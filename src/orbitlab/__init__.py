"""orbitlab: lattice-orbit approximation experiments in the plane and on the modular quotient."""

__version__ = "0.1.0"

from .errors import (
    BudgetOverflow,
    DegenerateCoordinate,
    EmptyBudget,
    ExactHit,
    InjectivityUnverified,
    InsufficientData,
    NonConvergence,
    OrbitLabError,
)
from .matrices import (
    IDENTITY,
    IwasawaCoords,
    LatticeElement,
    UDLCoords,
    cartan_radius,
    frobenius_norm,
    hs_norm,
    iwasawa_decompose,
    udl_decompose,
)
from .enumeration import (
    SubgroupFilter,
    count,
    dump_elements,
    elements_array,
    enumerate_ball,
    load_elements,
)
from .approx import (
    ApproxRecord,
    ApproxTrace,
    ExponentEstimate,
    approx_trace,
    best_approx,
    estimate_exponents,
    orbit_point,
)
from .homogeneous import (
    COVOLUME,
    HomPoint,
    TargetSpec,
    bump,
    bump_mean,
    box_haar_mass,
    haar_sample,
    in_quotient_target,
    in_target,
    reduce_point,
    target_bump,
    target_measure,
)
from .ergodic import (
    HitSet,
    MissRate,
    VarianceCurve,
    hit_set,
    matrix_coefficient,
    miss_rate,
    miss_rate_curve,
    orbit_average,
    shrinking_hit_experiment,
    uniform_grid_experiment,
    variance_curve,
    window_hit_counts,
)
