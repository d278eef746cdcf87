"""fibrelab: exact constructions of nodal hyperelliptic fibres, pencil
simulations over the line, and numerical geography of fibred surfaces."""

from .curves import (
    FibreClass,
    FibreKind,
    HyperellipticModel,
    WeightedModel,
    classify,
    construct_nodal,
    construct_split,
    homogenize_weighted,
    j_invariant,
    singular_points,
)
from .geography import (
    GeographyReport,
    ScanRow,
    SurfaceInvariants,
    XiaoCase,
    blow_up,
    elliptic_c2,
    fibration_chi_bounds,
    general_type_checks,
    hurwitz_bound,
    kodaira_slope,
    noether_complete,
    xiao_admissible_scan,
    xiao_validate,
)
from .linear_systems import (
    Bidegree,
    HirzebruchClass,
    SeveriSpec,
    arithmetic_genus_p1xp1,
    delpezzo_anticanonical_dim,
    h0_p1xp1,
    hirzebruch_effective,
    hirzebruch_genus,
    hirzebruch_intersection,
    hyperelliptic_bidegree,
    prescribed_nodes_dimension,
    severi_dimension,
)
from .pencils import (
    FibrationSummary,
    Pencil,
    SingularFibreRecord,
    pencil_discriminant,
    seeded_pencil,
    singular_fibres,
    total_space_euler,
)
from .polynomial import (
    LiteralError,
    UniPoly,
    discriminant,
    resultant,
    unipoly_from_literal,
    unipoly_to_literal,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
