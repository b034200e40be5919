"""Sheaf models of heterogeneous sensor systems.

Build finite-topology sheaves of pseudometric observation spaces,
quantify how self-consistent a dataset is (consistency radius), fuse
data by locating the nearest global section, and analyze the integrated
system through Cech cohomology.
"""

from .consistency import (
    Assignment,
    EdgeError,
    assignment_distance,
    consistency_radius,
    is_epsilon_approximate,
    lipschitz_bound,
    pullback_global,
)
from .cohomology import (
    BettiTable,
    BinGrid,
    CochainComplex,
    Cover,
    betti,
    build_complex,
    full_cover,
    global_sections_via_h0,
    leray_check,
    lift_sheaf,
    restrict_sheaf,
    stochastic_lift,
    uniform_grid,
)
from .fusion import (
    FusionOptions,
    FusionResult,
    fuse,
    fusion_lower_bound,
)
from .sheaf import (
    Affine,
    Builtin,
    Chain,
    Identity,
    Linear,
    Projection,
    RestrictionMap,
    Sheaf,
    complete_unions,
    register_builtin,
    resolve_builtin,
    verify_functoriality,
    verify_gluing,
)
from .spaces import (
    Point,
    ValueSpace,
    circle,
    discrete,
    distance,
    euclidean,
    geo2d,
    geo3d,
    make_point,
    product,
    sample_point,
    simplex,
    time_line,
)
from .topology import (
    EntityUniverse,
    OpenSet,
    Topology,
    comparable_pairs,
    generate_topology,
    verify_topology,
)

__version__ = "0.1.0"
# the geometry kernels are plain Python; kept only for the benchmark
# harness, which records it, and goes when it stops
KERNEL_BACKEND = "pure"
