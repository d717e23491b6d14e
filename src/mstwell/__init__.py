"""Semi-analytic 1D scattering of a Gaussian packet by a two-step potential.

The profile is 0 for x < 0, U on 0 < x < d, Delta beyond d.  The package
evaluates scattering amplitudes, region-wise Green functions, the
time-dependent wave function via spectral integrals, dwell times, and an
independent finite-difference solver for cross-validation.  All public
quantities are dimensionless: lengths in d, energies in E_d = hbar^2/2md^2,
times in t_d = hbar/E_d.
"""

from .dwell import (
    DwellBreakdown,
    ResonantDwell,
    dwell_asymptotic,
    dwell_energy_density,
    dwell_resonant,
    dwell_total,
    relative_dwell_asymptotic,
    relative_dwell_turning_point,
)
from .evolution import (
    DensityDecomposition,
    WaveField,
    density,
    evolve,
    norm_integral,
    psi_point,
    stationary_density,
)
from .greens import (
    PropagatorSample,
    UnsupportedRegionError,
    free_kernel_1d,
    green_free,
    green_region,
    propagate_kernel,
)
from .grid import (
    GridConfigError,
    GridField,
    GridSpec,
    compare,
    evolve_grid,
    free_gaussian_closed,
    grid_for_scenario,
    initial_cutoff_packet,
)
from .model import PotentialSpec, branch_sqrt
from .packet import (
    PacketSpec,
    backward_peak_ratio,
    cutoff_tail_mass,
    gaussian_weight,
    spectral_modulus,
    validity_report,
)
from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    QuadResult,
    SpectralRule,
    spectral_rule,
    spectral_window,
)
from .scattering import (
    ScatteringSet,
    SingularStepError,
    StepAmplitudes,
    StepTMatrixSet,
    amplitude_table,
    closed_amplitudes,
    mst_compose,
    probabilities,
    region_of,
    region_waves,
    step_amplitudes,
    step_t_matrices,
    wave_at,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
