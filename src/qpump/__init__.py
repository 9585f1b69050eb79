"""Transport analysis of adiabatic quantum pumps.

The pump is described by its frozen on-shell scattering matrix S(t, E);
everything else -- currents, dissipation and its lower bound, entropy and
noise rates, pumped charge, optimality -- derives from the energy-shift
matrix ``i dS/dt S^dag``.  Natural units hbar = e = 1 throughout.  Only the
entry points are re-exported here; import every other name from its module.
"""

from .errors import ConfigError, NumericalFailure, PumpError
from .matcore import R_K, CycleGrid, Tolerances
from .models import ModelConfig, PumpModel, build
from .shift import energy_shift_cycle
from .transport import instant_report, winding_charge
from .optimal import optimality_verdict
from .bathtub import greedy_minimize, linear_dispersion, verify_bound
from .report import analyze, dumps, instant_document

__version__ = "0.1.0"
