"""Entropy accounting and secret-key bounds for the binned measurements.

The extractable key is limited two ways: by the receiver's outcome entropy
in the key basis, and by an uncertainty-relation bound in which the
conditional entropies observed in the two conjugate bases are subtracted
from ``log2(2*pi / (delta_omega * delta_t))``.  The smaller of the two wins.
All entropies are in bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detection import BinningScheme, OutcomeDistribution, TimeLens, time_resolution
from .errors import ParameterError, ResolutionWarning

# Validity threshold for the analytic peak-overlap approximation: the ratio
# of the resolution product to 2*pi should stay well below this.
KERNEL_VALIDITY_THRESHOLD = 0.1
_ENTROPY_SLACK = 1e-9


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def binary_entropy(x: float) -> float:
    """Entropy in bits of a coin with bias ``x``."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def mutual_information(probabilities: np.ndarray) -> float:
    """Mutual information in bits of a joint outcome matrix."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 2:
        raise ParameterError("joint probabilities must be a matrix")
    return (
        _entropy_bits(p.sum(axis=1)) + _entropy_bits(p.sum(axis=0)) - _entropy_bits(p.ravel())
    )


def conditional_entropy(probabilities: np.ndarray, conditioned_on: str = "sender") -> float:
    """Entropy of one party's outcome given the other's.

    Rows index the receiver and columns the sender, as in
    :class:`~chronokey.detection.OutcomeDistribution`.  The default gives the
    receiver's entropy conditioned on the sender's outcome.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 2:
        raise ParameterError("joint probabilities must be a matrix")
    joint = _entropy_bits(p.ravel())
    if conditioned_on == "sender":
        return joint - _entropy_bits(p.sum(axis=0))
    if conditioned_on == "receiver":
        return joint - _entropy_bits(p.sum(axis=1))
    raise ParameterError(f"conditioned_on must be 'sender' or 'receiver', got {conditioned_on!r}")


@dataclass(frozen=True)
class EntropyReport:
    """Receiver-side entropies of one basis's joint outcome distribution."""

    basis: str
    marginal_bits: float
    conditional_bits: float

    def __post_init__(self) -> None:
        if self.conditional_bits < -_ENTROPY_SLACK:
            raise ParameterError("conditional entropy cannot be negative")
        if self.conditional_bits > self.marginal_bits + _ENTROPY_SLACK:
            raise ParameterError("conditioning cannot increase entropy")

    @property
    def mutual_bits(self) -> float:
        return self.marginal_bits - self.conditional_bits


def entropy_report(distribution: OutcomeDistribution) -> EntropyReport:
    """Marginal and conditional receiver entropies of a joint distribution."""
    p = distribution.probabilities
    return EntropyReport(
        basis=distribution.basis,
        marginal_bits=_entropy_bits(p.sum(axis=1)),
        conditional_bits=conditional_entropy(p, conditioned_on="sender"),
    )


def entropic_bound(delta_omega: float, delta_t: float) -> float:
    """Uncertainty-relation ceiling ``log2(2*pi / (delta_omega * delta_t))``
    on the information shared through conjugate binned measurements."""
    if not (delta_omega > 0.0 and delta_t > 0.0):
        raise ParameterError("bin widths must be positive")
    return math.log2(2.0 * math.pi / (delta_omega * delta_t))


def binning_deficit(beta_plus: float, beta_minus: float) -> float:
    """Bits lost to finite binning: ``-log2(2*pi*beta_plus*beta_minus)``.

    This is the gap between ``log2(m)`` and the uncertainty bound for a
    design whose resolution product is ``1 / (beta_plus * beta_minus * m)``.
    """
    if not (beta_plus > 0.0 and beta_minus > 0.0):
        raise ParameterError("design ratios must be positive")
    return -math.log2(2.0 * math.pi * beta_plus * beta_minus)


@dataclass(frozen=True)
class KernelSpectrum:
    """Largest singular value of the cross-basis overlap kernel.

    ``sigma_max`` comes from the discretized kernel, ``analytic`` is the
    small-resolution-product approximation ``sqrt(delta_omega * delta_t /
    (2*pi))``, and ``validity_ratio`` is the squared analytic value, which
    must be small for the approximation to hold.
    """

    sigma_max: float
    analytic: float
    validity_ratio: float


def overlap_kernel_sigma_max(
    binning: BinningScheme,
    lens: TimeLens,
    lobes: int = 40,
    points_per_lobe: int = 16,
    strip_points: int = 64,
) -> KernelSpectrum:
    """Numerical largest singular value of the frequency/time overlap kernel.

    The kernel restricted to one frequency bin acts on the mapped arrival
    frequency through a ``sin(y)/y`` envelope of lobe length
    ``2*pi*focusing_rate / delta_omega``.  It is discretized on midpoint
    cells (``strip_points`` across the bin, ``points_per_lobe`` per lobe out
    to ``lobes`` lobes each side) with square-root cell weights so the
    discrete singular values converge to the continuous ones.

    Emits a :class:`ResolutionWarning` when the validity ratio reaches
    ``KERNEL_VALIDITY_THRESHOLD``, where the analytic comparison degrades.
    """
    if lobes < 1 or points_per_lobe < 1 or strip_points < 1:
        raise ParameterError("kernel discretization counts must be positive")
    dw = binning.delta_omega
    rate = lens.focusing_rate
    ratio = dw**2 / (2.0 * math.pi * rate)
    if ratio >= KERNEL_VALIDITY_THRESHOLD:
        warnings.warn(
            f"resolution-product ratio {ratio:.3g} is too coarse for the analytic "
            "peak-overlap approximation",
            ResolutionWarning,
            stacklevel=2,
        )
    lobe = 2.0 * math.pi * rate / dw
    d1 = dw / strip_points
    x = (np.arange(strip_points) - (strip_points - 1) / 2.0) * d1
    half = lobes * lobe + dw
    d2 = lobe / points_per_lobe
    n2 = math.ceil(2.0 * half / d2)
    y = (np.arange(n2) - (n2 - 1) / 2.0) * d2
    arg = (dw / (2.0 * rate)) * (x[:, None] - y[None, :])
    kernel = (dw / (2.0 * math.pi * rate)) * np.sinc(arg / math.pi) * math.sqrt(d1 * d2)
    sigma_max = float(np.linalg.svd(kernel, compute_uv=False)[0])
    return KernelSpectrum(
        sigma_max=sigma_max, analytic=math.sqrt(ratio), validity_ratio=ratio
    )


@dataclass(frozen=True)
class KeyRateBound:
    """Secret bits per sifted symbol pair and how they were limited.

    ``secret_key`` is reported raw and may be negative when the conditional
    entropies eat the whole bound; consumers that need a rate floor use
    :attr:`secret_key_floored`.  ``clamped`` is True when the receiver's own
    outcome entropy, not the uncertainty bound, was the binding limit.
    """

    uncertainty_bound: float
    mutual_information: float
    secret_key: float
    clamped: bool
    deficit: float | None = None

    @property
    def secret_key_floored(self) -> float:
        return max(0.0, self.secret_key)


def secret_key_bound(
    frequency: EntropyReport,
    time: EntropyReport,
    uncertainty_bound: float,
    deficit: float | None = None,
    reconciliation_efficiency: float = 1.0,
) -> KeyRateBound:
    """Combine the two bases' entropy reports into a key-rate bound.

    The frequency basis is the key basis: the extractable information is the
    smaller of the receiver's outcome entropy there and the uncertainty bound
    minus both bases' conditional entropies.  ``reconciliation_efficiency``
    scales up the error-correction leakage (the key-basis conditional
    entropy) for imperfect reconciliation; 1 is the ideal default.
    """
    if frequency.basis != "frequency" or time.basis != "time":
        raise ParameterError("reports must come from the frequency and time bases")
    if not 0.0 < reconciliation_efficiency <= 1.0:
        raise ParameterError("reconciliation efficiency must lie in (0, 1]")
    leak = frequency.conditional_bits / reconciliation_efficiency
    info_branch = uncertainty_bound - time.conditional_bits - leak
    clamped = frequency.marginal_bits <= info_branch
    secret = min(frequency.marginal_bits, info_branch)
    return KeyRateBound(
        uncertainty_bound=uncertainty_bound,
        mutual_information=frequency.mutual_bits,
        secret_key=secret,
        clamped=clamped,
        deficit=deficit,
    )


def distribution_key_rate(
    frequency: OutcomeDistribution,
    time: OutcomeDistribution,
    binning: BinningScheme,
    lens: TimeLens,
    reconciliation_efficiency: float = 1.0,
) -> KeyRateBound:
    """Key-rate bound of a design from its two bases' joint distributions.

    Runs the whole chain: both bases' entropy reports, the uncertainty
    bound at the frequency bin width and the lens's time resolution, the
    binning deficit of the design ratios, and :func:`secret_key_bound`.
    """
    return secret_key_bound(
        entropy_report(frequency),
        entropy_report(time),
        entropic_bound(binning.delta_omega, time_resolution(binning, lens)),
        deficit=binning_deficit(binning.beta_plus, binning.beta_minus),
        reconciliation_efficiency=reconciliation_efficiency,
    )


def simplified_key_rate(
    m: int,
    error_probability: float,
    beta_plus: float = 0.75,
    beta_minus: float = 0.2,
    reconciliation_efficiency: float = 1.0,
) -> float:
    """Closed-form key bound for the uniform-error model at alphabet ``m``.

    Equals ``log2(m)`` minus the binning deficit minus twice the conditional
    entropy ``p*log2(m - 1) + h(p)`` of the uniform error model (once for
    error correction, once for privacy against the conjugate basis).  With a
    reconciliation efficiency below 1 the error-correction share grows.
    """
    if not isinstance(m, int) or m < 2:
        raise ParameterError("alphabet size must be an integer >= 2")
    if not 0.0 <= error_probability <= (m - 1) / m + 1e-12:
        raise ParameterError(
            f"error probability {error_probability!r} outside [0, {(m - 1) / m}]"
        )
    if not 0.0 < reconciliation_efficiency <= 1.0:
        raise ParameterError("reconciliation efficiency must lie in (0, 1]")
    p = min(error_probability, (m - 1) / m)
    leak = p * math.log2(m - 1) + binary_entropy(p)
    return (
        math.log2(m)
        - binning_deficit(beta_plus, beta_minus)
        - leak
        - leak / reconciliation_efficiency
    )
