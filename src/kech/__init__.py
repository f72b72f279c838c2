"""Combinatorial chain complex of closed geodesics on the flat Klein bottle.

Lattice-path generators with elliptic/hyperbolic edge labels, their integer
grading and action, a GF(2) differential built from corner rounding and
half-arrow pair moves, action-filtered homology and the resulting capacity
spectrum, plus the convex-toric-domain embedding obstruction pipeline.
"""

from .census import (
    ComplexSlice,
    generators_of_grading,
    generators_up_to_action,
    grading_slice,
)
from .diff import Chain, c_op, d_op, differential, round_interior
from .homology import (
    barcode,
    betti,
    betti_numbers,
    d_squared_report,
    stabilized_betti,
)
from .indexes import (
    CurveData,
    conley_zehnder,
    cz_total,
    ech_index_decomposed,
    fredholm_index,
    j0_index,
    partitions,
    q_tau,
    relative_chern,
)
from .paths import (
    EMPTY_PATH,
    EdgeGroup,
    H1Class,
    KLatticePath,
    PathError,
    PathSemanticsError,
    PathSyntaxError,
    action,
    build_path,
    direction_class,
    format_path,
    grading,
    grading_lattice,
    parse_path,
    total_class,
    validate,
)
from .spectrum import (
    REFERENCE_CONTACT_VOLUME,
    CapacityResult,
    capacity,
    capacity_series,
    weyl_series,
)
from .toric import (
    CgClass,
    ConvexGenerator,
    GromovRecord,
    GromovReport,
    ToricDomain,
    admissible_min_action,
    cg_elliptic_factor_count,
    cg_grading,
    cg_h_count,
    cg_lattice_points,
    cg_x,
    cg_y,
    ech_capacity_toric,
    embedding_obstructed,
    factorizations,
    format_convex_generator,
    gromov_upper,
    leq_relation,
    make_convex_generator,
    parse_domain,
    support_action,
    toric_capacity_detail,
)

__version__ = "1.0.0"
