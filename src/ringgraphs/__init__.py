"""Finite simple graphs generated by families of maps acting on finite
rings and state spaces: construction, statistics, claim verification, and
parameter surveys."""

__version__ = "0.1.0"

from .spaces import (
    BitVec,
    Mat2,
    PolyQuot,
    StateSpace,
    UpperTri2,
    Zn,
    ZnFromTwo,
    ZnNonzero,
    ZnUnits,
    parse_space,
)
from .maps import (
    Affine,
    CARule,
    Dickson,
    Exp,
    MapExpr,
    MapFamily,
    MatQuad,
    Perm,
    PolyAddConst,
    PolyDeriv,
    PolySquare,
    PowerPlus,
    WSMap,
    family_from_texts,
    format_map,
    parse_map,
    parse_maps,
    preset,
)
from .graphs import (
    SimpleGraph,
    build_graph,
    export_dot,
    export_edge_list,
)
from .metrics import (
    StatsReport,
    clustering,
    components,
    degree_stats,
    euler_characteristic,
    full_report,
    k4_free,
    lambda_coefficient,
    triangle_count,
)
from .verify import Verdict, run_claim
from .survey import (
    LambdaCensus,
    LocusResult,
    artin_census,
    ca_mandelbrot,
    connectivity_locus,
    euler_sequence,
    permutation_lambda,
)
