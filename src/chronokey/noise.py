"""Dark-count and loss model for the binned coincidence measurement.

Each party watches ``m`` detectors for one gate per round.  A pair is
emitted with probability ``pair_probability``; each photon then survives the
channel and fires its detector with probability
``detector_efficiency * exp(-length / attenuation_length)``.  Every detector
also fires on its own with the dark probability.  Rounds are kept only when
both parties see exactly one click, with a dark count landing on an already
firing detector absorbed into that single click.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PureNoiseWarning, is_boolean, refuse_boolean_floats


@dataclass(frozen=True)
class ChannelModel:
    """Physical parameters of source, channel, and detectors."""

    m: int
    pair_probability: float
    detector_efficiency: float
    dark_probability: float
    length: float = 0.0
    attenuation_length: float = 1.0

    def __post_init__(self) -> None:
        refuse_boolean_floats(self)
        if not isinstance(self.m, int) or self.m < 2:
            raise ParameterError(f"alphabet size must be an integer >= 2, got {self.m!r}")
        try:
            float(self.m)
        except OverflowError:
            raise ParameterError(
                f"alphabet size 2**{math.log2(self.m):g} exceeds the float range"
            ) from None
        if not 0.0 <= self.pair_probability <= 1.0:
            raise ParameterError("pair probability must lie in [0, 1]")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ParameterError("detector efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_probability < 1.0:
            raise ParameterError("dark probability must lie in [0, 1)")
        if not 0.0 <= self.length < math.inf:
            raise ParameterError("channel length must be finite and non-negative")
        if not 0.0 < self.attenuation_length < math.inf:
            raise ParameterError("attenuation length must be finite and positive")


def transmission(model: ChannelModel) -> float:
    """Per-photon probability of surviving the fiber and firing a detector."""
    return model.detector_efficiency * math.exp(-model.length / model.attenuation_length)


def pure_noise(model: ChannelModel) -> bool:
    """True when dark counts fire but no signal reaches the detectors, either
    because no pair is emitted or because no photon survives the channel."""
    return model.dark_probability > 0.0 and (
        model.pair_probability == 0.0 or transmission(model) == 0.0
    )


def error_probability(model: ChannelModel) -> float:
    """Closed-form symbol error probability ``kappa*(m-1) / (kappa*m + 1)``.

    ``kappa`` collects the relative weight of dark-count coincidences:
    ``2*d*(1-eta)/eta + m*d**2*(1 + (1-eps)/(eps*eta**2))`` with ``eta`` the
    end-to-end transmission.  Without dark counts the model makes no symbol
    errors; without signal (no pairs, or no transmission) every click is a
    dark count and the result saturates at the uniform-guessing value
    ``(m-1)/m``, flagged with a :class:`PureNoiseWarning` (see
    :func:`pure_noise`).  The result is that same limit, which the formula
    approaches as ``kappa*m`` grows, wherever ``kappa*m + 1`` rounds to
    ``kappa*m`` (the formula's last digit would only wobble around it) or
    overflows, and wherever the transmission is positive but the signal
    weight ``eps*eta**2`` underflows to 0 (from about 370 attenuation lengths
    at the default efficiency and pair probability, until ``eta`` itself
    underflows near 745).
    """
    d = model.dark_probability
    if d == 0.0:
        return 0.0
    if pure_noise(model):
        warnings.warn(
            "no signal reaches the detectors; error probability saturates at uniform guessing",
            PureNoiseWarning,
            stacklevel=2,
        )
        return (model.m - 1) / model.m
    eta = transmission(model)
    eps = model.pair_probability
    signal = eps * eta * eta
    if signal == 0.0:
        return (model.m - 1) / model.m
    kappa = 2.0 * d * (1.0 - eta) / eta + model.m * d * d * (1.0 + (1.0 - eps) / signal)
    weight = kappa * model.m
    if weight + 1.0 == weight:
        return (model.m - 1) / model.m
    return kappa * (model.m - 1) / (weight + 1.0)


def pcorrect_pincorrect(model: ChannelModel) -> tuple[float, float]:
    """Per-round probabilities of an accepted round with equal or unequal
    symbols.

    Both carry the common factor ``(1-d)**(2*(m-1))`` for the silence of the
    other detectors.  The correct bracket sums the photon-photon coincidence
    with the ways dark counts can masquerade as it; the incorrect bracket
    counts dark counts landing on a different symbol than the partner's.
    """
    d = model.dark_probability
    eta = transmission(model)
    eps = model.pair_probability
    m = model.m
    silent = (1.0 - d) ** (2 * (m - 1))
    eta_bar = 1.0 - eta
    eps_bar = 1.0 - eps
    correct = silent * (
        eps * eta * eta
        + 2.0 * eps * eta * eta_bar * d
        + eps * eta_bar * eta_bar * d * d * m
        + eps_bar * d * d * m
    )
    incorrect = silent * (
        2.0 * eps * eta * eta_bar * (m - 1) * d
        + eps * eta_bar * eta_bar * d * d * m * (m - 1)
        + eps_bar * d * d * m * (m - 1)
    )
    return correct, incorrect


def reconstructed_error_probability(model: ChannelModel) -> float:
    """Symbol error probability recomputed from the accepted-round
    probabilities as ``p_incorrect / (p_correct + p_incorrect)``.

    This is the error rate the counting model actually produces; it differs
    from :func:`error_probability` in the second order of the dark
    probability (see the package tests for the exact discrepancy).
    """
    correct, incorrect = pcorrect_pincorrect(model)
    total = correct + incorrect
    if total == 0.0:
        raise ParameterError("model produces no accepted rounds, error rate undefined")
    return incorrect / total


def error_model_distribution(m: int, error_probability: float) -> np.ndarray:
    """Joint distribution of the uniform symmetric error model.

    Uniform sender marginal; the receiver copies the sender's symbol except
    with total error probability spread evenly over the ``m - 1`` wrong
    symbols.  The off-diagonal mass equals ``error_probability`` exactly.
    """
    if not isinstance(m, int) or m < 2:
        raise ParameterError(f"alphabet size must be an integer >= 2, got {m!r}")
    limit = (m - 1) / m
    if is_boolean(error_probability) or not 0.0 <= error_probability <= limit + 1e-12:
        raise ParameterError(
            f"error probability {error_probability!r} outside [0, {limit}]"
        )
    p = min(error_probability, limit)
    spread = m * p / (m - 1)
    joint = np.full((m, m), spread / (m * m))
    np.fill_diagonal(joint, (1.0 - spread + spread / m) / m)
    return joint
