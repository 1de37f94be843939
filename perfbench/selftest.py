#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of confspace).

    python3 perfbench/selftest.py

Checks that the traced run leaves no wrapper behind and reproduces the
untraced op results, that failures are counted without stopping a run, that
the op mix does not depend on the seed while the inputs do, and that
BENCHMARK.json lists exactly the metrics the benchmark emits.  Takes about
half a minute; prints one line per check and exits 1 on any failure.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)

run._put_program_on_path()

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def expect(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


def one_deck(name: str, workdir: str, seed: int = 1, index: int = 1):
    """Deck `index` of a workload, as a deck factory for run_pass."""
    workload = workloads.WORKLOADS[name](seed, workdir)
    return lambda i: workload.deck(index + i)


@check
def untraced_run_leaves_program_untouched(workdir):
    before = spans.snapshot()
    run.run_pass(one_deck("membership-mix", workdir), 1)
    expect(spans.snapshot() == before, "an untraced run changed a confspace attribute")
    rec = spans.Recorder()
    rec.install()
    try:
        expect(spans.snapshot() != before, "installing the recorder changed nothing; the leak check is blind")
        import confspace
        from confspace import canonical, jsonio, maps

        expect(canonical.ambient_point is maps.ambient_point is jsonio.ambient_point,
               "ambient_point wrapped differently at different binding sites")
        expect(confspace.expand_chart is canonical.expand_chart, "package and module bindings differ")
    finally:
        rec.uninstall()
    expect(spans.snapshot() == before, "uninstalling the recorder left a wrapper behind")


@check
def traced_run_reproduces_untraced_results(workdir):
    for name in ("chart-roundtrip", "membership-mix", "cli-pipeline"):
        plain = run.run_pass(one_deck(name, workdir), 1)
        rec = spans.Recorder()
        rec.install()
        try:
            traced = run.run_pass(one_deck(name, workdir), 1, rec)
        finally:
            rec.uninstall()
        expect(traced.attempted == plain.attempted and traced.kinds == plain.kinds,
               f"{name}: traced and untraced op counts differ")
        expect(traced.digests == plain.digests, f"{name}: traced and untraced op results differ")
        arrays = rec.arrays()
        expect(len(arrays["name"]) > 0, f"{name}: no spans recorded")
        prep_failures = sum(1 for f in traced.failures if f["where"] == "prep")
        expect(len(arrays["op_start"]) == traced.attempted - prep_failures,
               f"{name}: one recorded op per timed op")
        gaps = spans.consistency(arrays)
        expect(max(gaps.values()) <= 1e-9, f"{name}: span accounting does not add up: {gaps}")
        metrics = spans.per_layer(rec, arrays, traced.kinds, traced.buckets, traced.factors(), 0.0)
        expect(set(metrics) == set(spans.metric_units()), f"{name}: per-layer metric set changed")


@check
def failures_are_counted_and_never_stop_a_run(workdir):
    def ok():
        return Op("good", "", lambda: 1, lambda r: "1")

    def boom():
        return 1 / 0

    def wrong(_):
        workloads.require(False, "deliberately wrong output")

    def escape():
        raise AttributeError("'str' object has no attribute 'items'")

    deck = [
        ok(),
        Op("broken", "", boom, lambda r: "x"),
        Op("wrong", "", lambda: 2, wrong),
        Op("defect", "", escape, lambda r: "x", known_defect="a registered defect"),
        Op("prep", "", lambda: 3, lambda r: "3", prep=boom, known_defect="a registered defect"),
        ok(),
    ]
    res = run.run_pass(lambda i: deck, 1)
    expect(res.attempted == 6 and res.failed == 4, f"attempted {res.attempted}, failed {res.failed}")
    expect(res.ok[-1], "the run stopped at a failure")
    expect(res.tally() == {"ZeroDivisionError": 2, "CheckFailed": 1, "AttributeError": 1},
           f"tally {res.tally()}")
    unexplained = sorted(f["kind"] for f in res.unexplained())
    expect(unexplained == ["broken", "prep", "wrong"],
           f"only an escape from the op itself may match a known defect, got {unexplained}")
    e2e = run.end_to_end(res, [(0.1, 1.0)], 1.0)
    expect(e2e["error_rate"][0] == 4 / 6 and e2e["success_rate"][0] == 2 / 6, "rates do not count failures")


@check
def seeds_change_inputs_not_the_op_mix(workdir):
    for name in workloads.WORKLOADS:
        decks = {}
        for seed in (1, 2):
            workload = workloads.WORKLOADS[name](seed, workdir)
            decks[seed] = [workload.deck(index) for index in (0, 1)]
        for index in (0, 1):
            a, b = decks[1][index], decks[2][index]
            mix_a = collections.Counter((op.kind, op.bucket) for op in a)
            mix_b = collections.Counter((op.kind, op.bucket) for op in b)
            expect(mix_a == mix_b, f"{name} deck {index}: op mix depends on the seed")
            labels_a = [op.label for op in a if op.label]
            labels_b = [op.label for op in b if op.label]
            expect(labels_a and labels_a != labels_b, f"{name} deck {index}: seeds gave the same inputs")
            again = workloads.WORKLOADS[name](1, workdir).deck(index)
            expect([op.label for op in again] == [op.label for op in a], f"{name}: a seed does not fix its inputs")


@check
def benchmark_json_lists_the_emitted_metrics(workdir):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([m["name"] for m in bench["end_to_end"]] == list(run.E2E_REPORTED), "end_to_end list differs")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == spans.metric_units(), "per_layer list differs")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES),
           "workload list differs")


def main() -> int:
    os.makedirs(run.WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORKDIR)
    failed = 0
    try:
        for fn in CHECKS:
            try:
                fn(workdir)
            except Exception as exc:
                failed += 1
                print(f"FAIL {fn.__name__}: {type(exc).__name__}: {exc}")
            else:
                print(f"PASS {fn.__name__}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
