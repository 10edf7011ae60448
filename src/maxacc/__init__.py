"""maxacc: does the optimal filter become exact as observation noise vanishes?

Decides, for finite-state Markov and linear-Gaussian filtering models,
whether the stationary filtering error converges to zero with the noise
strength (maximal accuracy), and validates each algebraic verdict with a
noise sweep: Monte-Carlo filter simulation for finite models, Riccati traces
for linear-Gaussian ones.
"""

__version__ = "0.1.0"

from .errors import MaxaccError
from .finite_analysis import (
    check_invertibility,
    check_reconstructibility,
    finite_verdict,
)
from .lingauss import (
    LinearGaussianModel,
    RiccatiSolution,
    kappa_sweep_lg,
    ks_check,
    lyapunov_solve,
    reduce_unstable,
    riccati_stationary,
    transfer_eval,
    transmission_zeros,
    validate_model,
)
from .modelfile import (
    ParsedModelFile,
    model_hash,
    parse_model_dict,
    parse_model_file,
    serialize_model,
    validate_report,
)
from .markov import (
    FiniteStateModel,
    reduce_support,
    stationary_distribution,
    time_reverse,
)
from .verdicts import (
    SweepResult,
    Verdict,
    ZeroReport,
    identity_embedding,
    indicator,
)
from .wonham import (
    SimParams,
    TrajectoryBundle,
    estimate_stationary_error,
    kappa_sweep_finite,
    run_filter,
    simulate_bundle,
)
