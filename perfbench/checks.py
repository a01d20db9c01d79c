"""Output checks of the benchmark: each one counts toward ``error_rate``."""

from __future__ import annotations

import math

# One-sided tail probability of a normal variate beyond five standard
# deviations.  Monte Carlo counts are judged against this tail of their exact
# binomial law, which stays a 5-sigma guard even when a count is small
# (a few wrong symbols at the sparse default channel).
FIVE_SIGMA_TAIL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))


def binomial_tail(k: int, n: int, p: float) -> float:
    """Probability that ``Binomial(n, p)`` lands at ``k`` or further out on
    ``k``'s side of the mean."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    log_term = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    odds = p / (1.0 - p)
    total = term = 1.0
    i = k
    # Terms shrink monotonically away from the mean, so sum until negligible.
    if k >= n * p:
        while i < n and term >= 1e-17 * total:
            term *= (n - i) / (i + 1) * odds
            total += term
            i += 1
    else:
        while i > 0 and term >= 1e-17 * total:
            term *= i / ((n - i + 1) * odds)
            total += term
            i -= 1
    return min(1.0, math.exp(log_term) * total)


class Checks:
    """Tally of output checks attempted and the descriptions of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def close(self, value: float, expected: float, what: str, rel=0.0, abs_=0.0) -> None:
        ok = abs(value - expected) <= max(rel * abs(expected), abs_)
        self.expect(ok, f"{what}: {value!r} vs expected {expected!r}")

    def binomial(self, k: int, n: int, p: float, what: str) -> None:
        tail = binomial_tail(k, n, p)
        self.expect(
            tail >= FIVE_SIGMA_TAIL,
            f"{what}: {k} of {n} is beyond 5 sigma of p={p!r} (tail {tail:.3g})",
        )
