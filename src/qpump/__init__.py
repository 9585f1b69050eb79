"""Transport analysis of adiabatic quantum pumps.

The pump is described by its frozen on-shell scattering matrix S(t, E);
everything else -- currents, dissipation and its lower bound, entropy and
noise rates, pumped charge, optimality -- derives from the energy-shift
matrix ``i dS/dt S^dag``.  Natural units hbar = e = 1 throughout.
"""

from .errors import (
    BadParamRange,
    ConfigError,
    EnergyOutOfWindow,
    GridMismatch,
    MissingParam,
    NotOptimal,
    NumericalFailure,
    PhaseStepTooLarge,
    PumpError,
    SingularInput,
    TargetInfeasible,
    UnknownModel,
    UnknownParam,
)
from .matcore import (
    DEFAULT_TOLERANCES,
    PLANCK,
    R_K,
    CycleGrid,
    Tolerances,
    UnitaryMatrix,
    central_derivative,
    periodic_integral,
    spectral_derivative,
    unitarize,
)
from .models import (
    REGISTRY,
    ModelConfig,
    PumpModel,
    SplitMix64,
    build,
    build_model,
    reparameterized,
    time_warp,
)
from .shift import (
    EnergyShift,
    VelocitySplit,
    adiabaticity,
    delay_scale,
    energy_shift_at,
    energy_shift_cycle,
    energy_shift_fd,
    energy_shift_rows,
    sample_cycle,
    time_delay,
    velocity_split,
)
from .transport import (
    Dissipation,
    EntropyNoise,
    InstantReport,
    OutgoingSymbol,
    bound_residual,
    cycle_charge,
    dequantization_sweep,
    dissipation,
    dissipation_from_symbol,
    entropy_noise,
    instant_report,
    instantaneous_current,
    outgoing_symbol,
    winding_charge,
)
from .optimal import (
    DiagonalDecomposition,
    OptimalityVerdict,
    diagonal_decomposition,
    offdiag_ratio,
    optimality_verdict,
)
from .bathtub import (
    BoundCheck,
    DispersionGrid,
    Filling,
    analytic_minimum,
    greedy_minimize,
    linear_dispersion,
    project_to_qdot,
    quadratic_dispersion,
    thermal_step,
    two_sided_bound,
    verify_bound,
)
from .report import SPEC_VERSION, AnalysisResult, analyze, dumps, instant_document

__version__ = "0.1.0"
