"""Computable compactified configuration spaces.

Trees index the degeneration strata; ambient coordinates (positions,
pairwise unit directions, pairwise-relative ratios) make the
compactification of n distinct points in R^m, and its direction-only
variant, concrete enough to classify, test, chart, reconstruct, and map.
"""

from .trees import (
    FTree,
    SetMap,
    codim,
    contract,
    corolla,
    enumerate_trees,
    exclusion_relation,
    hasse_to_dot,
    join,
    leq,
    nested_collection,
    prune,
    relabel,
    tree_from_exclusions,
    tree_from_nested,
    tree_to_dot,
)
from .canonical import (
    AmbientPoint,
    Configuration,
    Euclidean,
    Sphere,
    StratumPoint,
    Verdict,
    Violation,
    ambient_distance,
    ambient_point,
    expand_chart,
    invert_chart,
    lift_configuration,
    membership_canonical,
    normalize,
    permute,
    ratio_from_directions,
    scale_bound,
    stratum_sample,
    stratum_tree,
)
from .simplicial import (
    Circuit3,
    SimplicialPoint,
    approximating_configuration,
    calibrate_circuit_signs,
    four_consistency_residual,
    membership_simplicial,
    reconstruct_from_directions,
    simplicial_point,
    stratum_tree_of_directions,
    three_dependent,
    to_simplicial,
)
from .maps import (
    FramedPoint,
    cosimplicial_map,
    diagonal_map,
    doubling_map,
    framed_point,
    membership_framed,
    monotone_dual,
    project_indices,
    pullback,
    section_of_doubling,
)
from .associahedron import (
    FacePoset,
    f_vector,
    face_poset,
    is_planar,
    realize_face,
)

__version__ = "0.1.0"
