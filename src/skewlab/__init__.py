"""Numerical laboratory for skew products over symbolic hyperbolic dynamics.

Base dynamics are full shifts or subshifts of finite type; fibers are
2-tori carrying area-preserving diffeomorphisms.  The package provides
cocycle iteration, stable/unstable holonomies with convergence
diagnostics, fiber-bunching checks, Lyapunov exponent estimation with an
independent transfer-operator oracle, the pinching/twisting positivity
criterion, localized-twist perturbations, and a config-driven CLI.
"""

from .base_shift import (
    BaseMeasure,
    BaseSequence,
    PeriodicPoint,
    ShiftSpace,
    bracket,
    cylinder_measure,
    distance,
    homoclinic_point,
    periodic_point,
    sample_sequence,
    splice,
)
from .config import (
    ExperimentConfig,
    build_system,
    parse_config,
    parse_map_spec,
    serialize_config,
)
from .criterion import (
    HolonomyLoop,
    PinchingReport,
    TwistingParams,
    TwistingReport,
    build_holonomy_loop,
    check_pinching,
    check_twisting,
    perturbation_sweep,
    perturbed_system,
    projective_distance,
    su_state_probe,
)
from .errors import (
    BracketUndefinedError,
    CertificateViolationError,
    ConfigurationError,
    NonConvergenceError,
    SkewlabError,
)
from .fiber_maps import (
    Composite,
    FiberMap,
    LocalizedTwist,
    StandardMap,
    ToralAutomorphism,
)
from .holonomy import (
    BunchingReport,
    ConvergenceDiagnostics,
    HolonomyQuery,
    fiber_bunching_margin,
    holonomy_cocycle_check,
    linear_stable_holonomy,
    stable_holonomy_point,
    unstable_holonomy_point,
)
from .lyapunov import (
    ExponentEstimate,
    OseledetsFrame,
    furstenberg_exponent_transfer_operator,
    integrated_exponent,
    oseledets_frame,
    return_map,
)
from .rng import counter_uniform, derive_seed
from .skew import (
    HolderFamily,
    LocallyConstantFamily,
    SkewSystem,
    admissible_words,
    c1_distance,
    holder_estimate,
    iterate_cocycle,
    random_fiber_point,
)

__version__ = "0.1.0"
