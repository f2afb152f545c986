"""Executable fixed-point counting machinery for sphere endomorphisms:
winding numbers, Lefschetz indices, topological degrees, annulus
decompositions, strip lifts, and periodic-point censuses."""

from .annuli import (
    AnnulusComponent,
    ComponentType,
    check_hypothesis_h,
    decompose,
    is_repelling,
    pole_preimages,
    theorem3_bound,
)
from .census import (
    CensusReport,
    CensusRow,
    fixed_points,
    growth_report,
    theorem_a_crosscheck,
)
from .charts import (
    AffineProfile,
    Chart,
    Iterate,
    MapSpec,
    N_POLE,
    PiecewiseLinearProfile,
    PolyProfile,
    Power,
    ProductMap,
    Quadratic,
    RationalPair,
    S_POLE,
    SpherePoint,
    chordal,
    evaluate,
    evaluate_many,
    format_map,
    parse_map,
    to_chart,
)
from .degree import (
    DegreeReport,
    annular_degree,
    cactus_check,
    global_degree,
    local_degree,
)
from .lefschetz import (
    Rect,
    RectCertificate,
    lefschetz_index,
    rectangle_certificate,
)
from .strip_lift import StripMap, build_beta, lift, verify_index
from .winding import (
    InnOut,
    SampledCurve,
    circle,
    classify,
    is_essential,
    latitude_circle,
    winding_number,
)

__version__ = "0.1.0"
