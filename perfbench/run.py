#!/usr/bin/env python3
"""confspace benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload chart-roundtrip --seed 1 --seconds 15 --trace 0

Runs whole decks of checked ops, as many as take --seconds of timed (busy)
time at the commit that defined the benchmark, so every commit runs the
same ops; then prints a report followed by one JSON line with the
BENCHMARK.json metrics.  --trace 0 reports the end-to-end metrics; --trace 1
also runs the first half of those decks again with every layer's public
functions wrapped, and reports the per-layer metrics.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
OUTDIR = os.path.join(HERE, ".out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 5
SETUP_SPEED_PROBES = 16
WORKLOAD_NAMES = ("chart-roundtrip", "membership-mix", "tree-combinatorics", "cli-pipeline")

# BLAS and OpenMP get one thread, set before anything imports numpy.
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _put_program_on_path():
    """Import confspace from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "confspace", "__init__.py")):
        raise SystemExit(f"benchmark: no confspace sources under {SRC}")
    sys.path.insert(0, SRC)


def _check_program_origin():
    import confspace

    origin = os.path.realpath(confspace.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"benchmark: confspace imported from {origin}, not from {SRC}")


# -- set-up time -------------------------------------------------------------------


def setup_probe(workload: str) -> tuple[float, float]:
    """(import plus warm-up seconds, host slowdown) in this fresh process."""
    _put_program_on_path()
    t0 = time.perf_counter()
    import confspace  # noqa: F401

    if workload == "cli-pipeline":
        import confspace.cli  # noqa: F401
    t1 = time.perf_counter()
    _check_program_origin()
    import workloads

    workdir = os.path.join(WORKDIR, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        t2 = time.perf_counter()
        workloads.WORKLOADS[workload].warmup(workdir)
        t3 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import hostspeed

    # the probe needs a few runs to reach its steady speed in a fresh process
    times = [hostspeed.probe()[1] for _ in range(2 * SETUP_SPEED_PROBES)]
    speed = statistics.mean(times[SETUP_SPEED_PROBES:])
    return (t1 - t0) + (t3 - t2), speed / hostspeed.REFERENCE_S


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(raw set-up seconds, host slowdown) of SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{proc.stderr}")
        raw, slowdown = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(slowdown)))
    return times


# -- the closed loop -----------------------------------------------------------------


class PassResult:
    """Per-op records of one pass over whole decks."""

    def __init__(self):
        self.kinds: list[str] = []
        self.buckets: list[str] = []
        self.latency: list[float | None] = []
        self.ok: list[bool] = []
        self.digests: list[str] = []
        self.failures: list[dict] = []
        self.deck_busy: list[float] = []
        self.deck_sizes: list[int] = []
        self.op_start: list[float] = []
        self.op_end: list[float] = []
        self.probe_starts = None
        self.probe_times = None

    @property
    def busy(self) -> float:
        return sum(self.deck_busy)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def unexplained(self) -> list[dict]:
        return [f for f in self.failures if not f["known"]]

    def tally(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.failures:
            out[f["type"]] = out.get(f["type"], 0) + 1
        return out

    def factors(self):
        """Host-speed factor of every op (see hostspeed.py); NaN if it never ran."""
        import hostspeed

        return hostspeed.factors(self.op_start, self.op_end, self.probe_starts, self.probe_times)

    def normalized(self):
        """Op times scaled to the reference host; NaN where the op never ran."""
        import numpy as np

        lat = np.array([np.nan if t is None else t for t in self.latency], dtype=float)
        return lat * self.factors()

    def normalized_busy(self, decks: int) -> float:
        import numpy as np

        return float(np.nansum(self.normalized()[: sum(self.deck_sizes[:decks])]))


def run_pass(make_deck, decks: int, recorder=None) -> PassResult:
    """Run decks 0..decks-1 of a workload, one op at a time.

    An op that raises or fails its check is recorded and never stops the
    run.  Only `op.fn` is timed; preparation and checking are not.
    """
    from hostspeed import Sampler

    res = PassResult()
    with Sampler() as sampler:
        _run_decks(res, make_deck, decks, recorder)
    res.probe_starts, res.probe_times = sampler.starts, sampler.times
    return res


def _run_decks(res: PassResult, make_deck, decks: int, recorder):
    from oracles import CheckFailed

    clock = time.perf_counter
    for index in range(decks):
        deck = make_deck(index)
        gc.collect()
        busy = 0.0
        for op in deck:
            res.kinds.append(op.kind)
            res.buckets.append(op.bucket)
            error, where, lat, t0 = None, "prep", None, float("nan")
            try:
                if op.prep is not None:
                    op.prep()
                where = "op"
                if recorder is not None:
                    recorder.begin_op()
                t0 = clock()
                try:
                    result = op.fn()
                finally:
                    t1 = clock()
                    if recorder is not None:
                        recorder.end_op()
                    lat = t1 - t0
                    busy += lat
                where = "check"
                digest = op.check(result)
            except Exception as exc:  # an op failure must not end the run
                error = exc
            res.latency.append(lat)
            res.op_start.append(t0)
            res.op_end.append(t0 if lat is None else t0 + lat)
            if error is None:
                res.ok.append(True)
                res.digests.append(digest)
                continue
            kind = "CheckFailed" if isinstance(error, CheckFailed) else type(error).__name__
            known = where == "op" and op.known_defect is not None
            res.ok.append(False)
            res.digests.append(f"failed {where} {kind}")
            res.failures.append({
                "op": len(res.ok) - 1, "kind": op.kind, "label": op.label[:200], "where": where, "type": kind,
                "known": known, "defect": op.known_defect if known else None,
                "message": "".join(traceback.format_exception_only(type(error), error)).strip()[:300],
            })
        res.deck_busy.append(busy)
        res.deck_sizes.append(len(deck))


# -- metrics ----------------------------------------------------------------------------


def end_to_end(res: PassResult, setup_times: list[tuple[float, float]], peak_rss_mb: float) -> dict:
    """End-to-end metrics of an untraced pass, from host-normalised op times.

    Percentiles are over ops that passed their check; ops_per_s counts
    those ops against the time of every op that ran.
    """
    import hostspeed
    import numpy as np

    norm = res.normalized()
    raw = np.array([np.nan if t is None else t for t in res.latency], dtype=float)
    ok = np.array(res.ok, dtype=bool)
    good = norm[ok]
    p50, p99 = (np.percentile(good, [50, 99]) if len(good) else (np.nan, np.nan))
    raw_p50, raw_p99 = (np.percentile(raw[ok], [50, 99]) if len(good) else (np.nan, np.nan))
    return {
        "ops_per_s": (len(good) / float(np.nansum(norm)), "ops/s"),
        "op_p50_ms": (float(p50) * 1e3, "ms"),
        "op_p99_ms": (float(p99) * 1e3, "ms"),
        "setup_s": (statistics.median(raw / slowdown for raw, slowdown in setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (len(good) / res.attempted, "fraction"),
        "error_rate": (res.failed / res.attempted, "fraction"),
        "samples": (len(good), "count"),
        "samples_beyond_p99": (int((good > p99).sum()), "count"),
        "raw_ops_per_s": (len(good) / float(np.nansum(raw)), "ops/s"),
        "raw_op_p50_ms": (float(raw_p50) * 1e3, "ms"),
        "raw_op_p99_ms": (float(raw_p99) * 1e3, "ms"),
        "raw_setup_s": (statistics.median(raw for raw, _ in setup_times), "s"),
        "host_slowdown": (float(np.mean(res.probe_times)) / hostspeed.REFERENCE_S if len(res.probe_times) else 1.0, "x"),
    }


E2E_REPORTED = ("ops_per_s", "op_p50_ms", "op_p99_ms", "setup_s", "peak_rss_mb", "success_rate")


def environment(args, cpu: int | None) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of this checkout, read from .git without running git, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_metrics(metrics: dict):
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")


def _print_failures(res: PassResult, label: str):
    if not res.failures:
        return
    print(f"{label} failures by type: {json.dumps(res.tally(), sort_keys=True)}")
    seen = set()
    for f in res.failures:
        key = (f["kind"], f["type"], f["known"])
        if key not in seen:
            seen.add(key)
            tag = f"known defect: {f['defect']}" if f["known"] else "UNEXPECTED"
            print(f"  first {f['kind']!r} {f['type']} ({tag}): {f['message']} [inputs: {f['label']}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print("%r %r" % setup_probe(args.workload))
        return 0

    _put_program_on_path()
    setup_times = measure_setup(args.workload)
    _check_program_origin()
    import spans
    import workloads

    # One vCPU for the whole run, so the host-speed sampler thread measures
    # the CPU the ops run on.
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # pinning not permitted: the sampler may see another CPU
        cpu = None
    import_time = spans.snapshot()
    workdir = os.path.join(WORKDIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        kind = workloads.WORKLOADS[args.workload]
        kind.warmup(workdir)
        workload = kind(args.seed, workdir)
        plain = run_pass(workload.deck, kind.decks_for(args.seconds))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        leaked = spans.snapshot() != import_time
        traced = recorder = None
        if args.trace:
            recorder = spans.Recorder()
            recorder.install()
            try:
                traced = run_pass(workload.deck, (len(plain.deck_busy) + 1) // 2, recorder)
            finally:
                recorder.uninstall()
            leaked = leaked or spans.snapshot() != import_time
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"confspace benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(environment(args, cpu), sort_keys=True))
    e2e = end_to_end(plain, setup_times, peak_rss_mb)
    print(f"end-to-end (untraced, {len(plain.deck_busy)} decks, {plain.attempted} ops, busy {plain.busy:.2f} s, "
          f"per deck {[round(t, 3) for t in plain.deck_busy]}; set-up probes {[round(t, 4) for t, _ in setup_times]}):")
    _print_metrics(e2e)
    _print_failures(plain, "untraced")
    problems = [f"unexpected failure in {f['kind']!r}: {f['message']}" for f in plain.unexplained()]
    if leaked:
        problems.append("a wrapper leaked into confspace after the run")

    attempted, failed = plain.attempted, plain.failed
    metrics = {name: e2e[name] for name in E2E_REPORTED}
    if traced is not None:
        n = traced.attempted
        if traced.digests != plain.digests[:n] or traced.kinds != plain.kinds[:n]:
            problems.append("traced and untraced runs disagree on op results")
        problems += [f"unexpected failure in {f['kind']!r} (traced): {f['message']}" for f in traced.unexplained()]
        arrays = recorder.arrays()
        gaps = spans.consistency(arrays)
        if max(gaps.values()) > 1e-9:
            problems.append(f"span accounting does not add up: {gaps}")
        ran = [i for i, t in enumerate(traced.latency) if t is not None]
        decks = len(traced.deck_busy)
        metrics = spans.per_layer(
            recorder, arrays,
            kinds=[traced.kinds[i] for i in ran],
            buckets=[traced.buckets[i] for i in ran],
            op_factor=traced.factors()[ran],
            overhead=traced.normalized_busy(decks) / plain.normalized_busy(decks) - 1.0,
        )
        print(f"per-layer (traced, {len(traced.deck_busy)} decks, {n} ops, {len(arrays['name'])} spans; "
              f"span accounting gaps {gaps}):")
        _print_metrics(metrics)
        _print_failures(traced, "traced")
        os.makedirs(OUTDIR, exist_ok=True)
        path = os.path.join(OUTDIR, f"trace-{args.workload}.npz")
        recorder.save(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        attempted, failed = traced.attempted, traced.failed

    for p in problems:
        print(f"PROBLEM: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
