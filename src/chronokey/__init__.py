"""Numerical laboratory for large-alphabet time-frequency entangled key
distribution.

The pipeline: model a frequency anti-correlated photon-pair source
(:mod:`~chronokey.chronocyclic`), measure both photons in binned frequency
or, through a time lens, binned arrival time (:mod:`~chronokey.detection`),
bound the extractable secret key with an entropic uncertainty relation
(:mod:`~chronokey.security`), fold in dark counts and loss
(:mod:`~chronokey.noise`), cross-check everything against a round-by-round
simulation (:mod:`~chronokey.montecarlo`), and translate the design into
hardware requirements (:mod:`~chronokey.feasibility`).
"""

from .chronocyclic import (
    FrequencyGrid,
    JointSpectralAmplitude,
    JointTemporalAmplitude,
    SchmidtDecomposition,
    TimeGrid,
    analytic_schmidt_number,
    default_grid,
    fitted_spectral_widths,
    fitted_temporal_widths,
    make_gaussian_jsa,
    schmidt_decompose,
    to_temporal,
    from_temporal,
    transform_1d,
)
from .config import RunConfig, load_config, save_config
from .detection import (
    FREQUENCY_BASIS,
    TIME_BASIS,
    BinningScheme,
    OutcomeDistribution,
    TimeLens,
    bin_overlap_weights,
    binned_arrival_times,
    binned_spectrum,
    design_binning,
    design_time_lens,
    joint_outcome_distribution,
    overlap_fidelity,
    resolution_product,
    simulate_time_lens,
    temporal_kernel,
    time_resolution,
)
from .errors import (
    ChronokeyError,
    ConfigError,
    CoverageWarning,
    DecompositionError,
    GridCoverageError,
    ParameterError,
    PureNoiseWarning,
    ResolutionWarning,
)
from .feasibility import (
    ConventionFigures,
    FeasibilityReport,
    HardwareSpec,
    check_feasibility,
    frequency_to_wavelength,
    wavelength_to_frequency,
)
from .montecarlo import (
    RoundLedger,
    SimulationConfig,
    empirical_distribution,
    empirical_error_probability,
    estimate_key_rate,
    simulate_rounds,
)
from .noise import (
    ChannelModel,
    error_model_distribution,
    error_probability,
    pcorrect_pincorrect,
    pure_noise,
    reconstructed_error_probability,
    transmission,
)
from .security import (
    EntropyReport,
    KernelSpectrum,
    KeyRateBound,
    binary_entropy,
    binning_deficit,
    conditional_entropy,
    distribution_key_rate,
    entropic_bound,
    entropy_report,
    mutual_information,
    overlap_kernel_sigma_max,
    secret_key_bound,
    simplified_key_rate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
