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
    IwasawaCoords,
    LatticeElement,
    UDLCoords,
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
    miss_rate_curve,
    shrinking_hit_experiment,
    uniform_grid_experiment,
    variance_curve,
    window_hit_counts,
)
