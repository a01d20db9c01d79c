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

from .detection import FREQUENCY_BASIS, TIME_BASIS, _NEGATIVE_ATOL, _PANEL_NODES, _PANEL_WEIGHTS
from .detection import BinningScheme, OutcomeDistribution, TimeLens, time_resolution
from .errors import ParameterError, ResolutionWarning, finite_positive, is_boolean, refuse_boolean_floats

# Resolution product over 2*pi from which the paper's bound parts from the
# exact one: by 0.004 bits at the threshold, 0.108 bits at the designed m = 2.
KERNEL_VALIDITY_THRESHOLD = 0.1
_ENTROPY_SLACK = 1e-9


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def binary_entropy(x: float) -> float:
    """Entropy in bits of a coin with bias ``x``."""
    if is_boolean(x) or not 0.0 <= x <= 1.0:
        raise ParameterError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _joint_matrix(probabilities) -> np.ndarray:
    """A joint outcome matrix as floats, refused unless it is finite and
    non-negative to :class:`~chronokey.detection.OutcomeDistribution`'s
    tolerance."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 2:
        raise ParameterError("joint probabilities must be a matrix")
    if not np.isfinite(p).all():
        raise ParameterError("joint probabilities must be finite")
    if p.size and not float(p.min()) >= -_NEGATIVE_ATOL:
        raise ParameterError("joint probabilities must be non-negative")
    return p


def mutual_information(probabilities: np.ndarray) -> float:
    """Mutual information in bits of a joint outcome matrix."""
    p = _joint_matrix(probabilities)
    return (
        _entropy_bits(p.sum(axis=1)) + _entropy_bits(p.sum(axis=0)) - _entropy_bits(p.ravel())
    )


def conditional_entropy(probabilities: np.ndarray, conditioned_on: str = "sender") -> float:
    """Entropy of one party's outcome given the other's.

    Rows index the receiver and columns the sender, as in
    :class:`~chronokey.detection.OutcomeDistribution`.  The default gives the
    receiver's entropy conditioned on the sender's outcome.
    """
    return _conditional_bits(_joint_matrix(probabilities), conditioned_on)


def _conditional_bits(p: np.ndarray, conditioned_on: str) -> float:
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
        if self.basis not in (FREQUENCY_BASIS, TIME_BASIS):
            raise ParameterError(f"unknown basis {self.basis!r}")
        refuse_boolean_floats(self)
        if not (math.isfinite(self.marginal_bits) and math.isfinite(self.conditional_bits)):
            raise ParameterError("entropies must be finite")
        if not self.conditional_bits >= -_ENTROPY_SLACK:
            raise ParameterError("conditional entropy cannot be negative")
        if not self.conditional_bits <= self.marginal_bits + _ENTROPY_SLACK:
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
        conditional_bits=_conditional_bits(p, "sender"),
    )


def entropic_bound(delta_omega: float, delta_t: float) -> float:
    """Uncertainty-relation ceiling ``log2(2*pi / (delta_omega * delta_t))``
    on the information shared through conjugate binned measurements."""
    product = delta_omega * delta_t
    if not (finite_positive(delta_omega, delta_t, product) and math.isfinite(2.0 * math.pi / product)):
        raise ParameterError(f"bin widths {delta_omega!r} and {delta_t!r} are out of range")
    return math.log2(2.0 * math.pi / product)


def binning_deficit(beta_plus: float, beta_minus: float) -> float:
    """Bits lost to finite binning: ``-log2(2*pi*beta_plus*beta_minus)``.

    This is the gap between ``log2(m)`` and the uncertainty bound for a
    design whose resolution product is ``1 / (beta_plus * beta_minus * m)``.
    """
    product = 2.0 * math.pi * beta_plus * beta_minus
    if not finite_positive(beta_plus, beta_minus, product):
        raise ParameterError(f"design ratios {beta_plus!r} and {beta_minus!r} are out of range")
    return -math.log2(product)


@dataclass(frozen=True)
class KernelSpectrum:
    """Largest singular value of the cross-basis overlap kernel.

    ``sigma_max`` is the exact value ``sqrt(lambda_0(c))``, ``analytic`` is
    the small-resolution-product approximation ``sqrt(delta_omega * delta_t /
    (2*pi))``, and ``validity_ratio`` is the squared analytic value, which
    must be small for the approximation to hold.
    """

    sigma_max: float
    analytic: float
    validity_ratio: float


def overlap_kernel_sigma_max(binning: BinningScheme, lens: TimeLens) -> KernelSpectrum:
    """Largest overlap between one frequency bin and one time bin.

    Its square is the top eigenvalue ``lambda_0(c)``, ``c = delta_omega *
    delta_t / 4``, of the kernel ``sin(c*(x - y)) / (pi*(x - y))`` on [-1, 1]
    (Slepian & Pollak, Bell Syst. Tech. J. 40, 43 (1961)), taken by Nystrom
    on the time binning's 16 Gauss-Legendre nodes: to 1e-12 up to c = 8 and
    2e-9 up to c = 12.  Beyond, where lambda_0 is within 2e-9 of 1, the
    aliased discrete value overshoots and is capped at 1.

    Emits a :class:`ResolutionWarning` from ``KERNEL_VALIDITY_THRESHOLD`` on,
    where the paper's bound ``log2(2*pi / (delta_omega * delta_t))`` parts
    from the exact ``-log2(sigma_max**2)``.
    """
    dw = binning.delta_omega
    ratio = dw**2 / (2.0 * math.pi * lens.focusing_rate)
    if ratio >= KERNEL_VALIDITY_THRESHOLD:
        warnings.warn(
            f"resolution-product ratio {ratio:.3g} is too coarse for the analytic "
            "peak-overlap approximation",
            ResolutionWarning,
            stacklevel=2,
        )
    c = dw * time_resolution(binning, lens) / 4.0
    root_w = np.sqrt(_PANEL_WEIGHTS)
    kernel = c / math.pi * np.sinc(c / math.pi * np.subtract.outer(_PANEL_NODES, _PANEL_NODES))
    top = np.linalg.eigvalsh(root_w[:, None] * kernel * root_w)[-1]
    return KernelSpectrum(
        sigma_max=math.sqrt(min(float(top), 1.0)), analytic=math.sqrt(ratio), validity_ratio=ratio
    )


@dataclass(frozen=True)
class KeyRateBound:
    """Secret bits per sifted symbol pair and how they were limited.

    ``secret_key`` is reported raw and may be negative when the conditional
    entropies eat the whole bound.  ``clamped`` is True when what error
    correction leaves of the receiver's outcome entropy, not the uncertainty
    bound, was the binding limit.
    """

    uncertainty_bound: float
    mutual_information: float
    secret_key: float
    clamped: bool
    deficit: float | None = None


def secret_key_bound(
    frequency: EntropyReport,
    time: EntropyReport,
    uncertainty_bound: float,
    deficit: float | None = None,
    reconciliation_efficiency: float = 1.0,
) -> KeyRateBound:
    """Combine the two bases' entropy reports into a key-rate bound.

    The frequency basis is the key basis: the extractable information is the
    smaller of what error correction leaves of the receiver's outcome entropy
    there, ``H(B) - leak``, and the uncertainty bound minus the time basis's
    conditional entropy and the leak.  The leak is the key-basis conditional
    entropy ``H(B|A)`` scaled up by ``1/reconciliation_efficiency`` for
    imperfect reconciliation; 1 is the ideal default.  A key thus never
    exceeds the mutual information ``H(B) - H(B|A)`` it is distilled from.
    """
    if frequency.basis != FREQUENCY_BASIS or time.basis != TIME_BASIS:
        raise ParameterError("reports must come from the frequency and time bases")
    given = (uncertainty_bound,) if deficit is None else (uncertainty_bound, deficit)
    if any(is_boolean(x) or not math.isfinite(x) for x in given):
        raise ParameterError(
            f"uncertainty bound {uncertainty_bound!r} and deficit {deficit!r} must be finite numbers"
        )
    if is_boolean(reconciliation_efficiency) or not 0.0 < reconciliation_efficiency <= 1.0:
        raise ParameterError("reconciliation efficiency must lie in (0, 1]")
    leak = frequency.conditional_bits / reconciliation_efficiency
    ceiling = frequency.marginal_bits - leak
    info_branch = uncertainty_bound - time.conditional_bits - leak
    clamped = ceiling <= info_branch
    secret = min(ceiling, info_branch)
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


def error_model_report(m: int, error_probability: float, basis: str) -> EntropyReport:
    """Entropy report of the uniform symmetric error model, in closed form.

    Equals :func:`entropy_report` of
    :func:`~chronokey.noise.error_model_distribution` without building the
    m x m matrix: the receiver's marginal is uniform, ``log2(m)``, and the
    conditional entropy is ``p*log2(m - 1) + h(p)``.
    """
    if not isinstance(m, int) or m < 2:
        raise ParameterError("alphabet size must be an integer >= 2")
    if is_boolean(error_probability) or not 0.0 <= error_probability <= (m - 1) / m + 1e-12:
        raise ParameterError(
            f"error probability {error_probability!r} outside [0, {(m - 1) / m}]"
        )
    # A numpy scalar would make ``clamped`` a numpy bool, which JSON refuses.
    p = float(min(error_probability, (m - 1) / m))
    return EntropyReport(
        basis=basis,
        marginal_bits=math.log2(m),
        conditional_bits=p * math.log2(m - 1) + binary_entropy(p),
    )


def simplified_key_rate(
    m: int,
    error_probability: float,
    beta_plus: float = 0.75,
    beta_minus: float = 0.2,
    reconciliation_efficiency: float = 1.0,
) -> KeyRateBound:
    """Closed-form key bound for the uniform-error model at alphabet ``m``.

    :func:`secret_key_bound` on :func:`error_model_report` in both bases:
    ``log2(m)`` minus the binning deficit minus twice ``p*log2(m - 1) +
    h(p)`` (error correction and privacy), clamped at ``log2(m)`` minus the
    error-correction leak alone.
    """
    deficit = binning_deficit(beta_plus, beta_minus)
    return secret_key_bound(
        error_model_report(m, error_probability, FREQUENCY_BASIS),
        error_model_report(m, error_probability, TIME_BASIS),
        math.log2(m) - deficit,
        deficit=deficit,
        reconciliation_efficiency=reconciliation_efficiency,
    )
