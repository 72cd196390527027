"""Transfer-bound evaluators and the per-task sample-efficiency solver.

Three high-probability upper bounds on the transfer risk of a
meta-learned classifier are provided, each decomposed into an empirical
term, a confidence term sqrt(ln(1/delta) / 2n), and a complexity term:

* a closed-form bound driven by the VC-dimension of the scalar score
  class, with explicit constants C1 and C2;
* a bound consuming Monte Carlo Gaussian-complexity estimates of the
  restricted class on the meta-sample and on single tasks;
* a bound consuming entropy integrals (chaining sums) of covering
  numbers of those restrictions.

A surrogate form replaces the empirical ramp loss with (k-1) times the
multi-margin loss, and a specialization rewrites the complexity term
for episodes with s support and q query points per class. Totals are
reported raw: anything >= 1 is vacuous for a [0,1]-valued loss and is
flagged as such rather than clipped. All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EpisodeShape

DEFAULT_C0 = math.e


class InfeasibleError(ValueError):
    """No finite per-task sample size can reach the requested accuracy."""


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class BoundInputs:
    """Parameters shared by the bound evaluators.

    v is the VC-dimension of the scalar projection class; for a linear
    scorer on d-dimensional features the classical choice is d + 1.
    C0 is the uniform constant of the VC covering bound and must be
    >= 1 so that sqrt(ln C0) is real; the default is e.
    """

    k: int
    rho: float
    delta: float
    m: int
    n: int
    v: int
    b: float
    c0: float = DEFAULT_C0

    def __post_init__(self) -> None:
        _require_finite(rho=self.rho, delta=self.delta, b=self.b, c0=self.c0)
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.rho <= 0 or self.b <= 0:
            raise ValueError("rho and b must be > 0")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.v < 1:
            raise ValueError("v must be >= 1")
        if self.c0 < 1:
            raise ValueError("C0 must be >= 1 (sqrt(ln C0) must be real)")


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound, decomposed so total = empirical + confidence
    + complexity exactly."""

    empirical_term: float
    confidence_term: float
    complexity_term: float
    total: float
    kind: str
    vacuous: bool


def _report(kind: str, empirical: float, confidence: float, complexity: float) -> BoundReport:
    total = empirical + confidence + complexity
    return BoundReport(
        empirical_term=empirical,
        confidence_term=confidence,
        complexity_term=complexity,
        total=total,
        kind=kind,
        vacuous=total >= 1.0,
    )


def constants_c1_c2(b: float, c0: float = DEFAULT_C0) -> tuple[float, float]:
    """Closed-form constants of the VC-dimension bound.

    C1 = 24 sqrt(2 pi) b (1 + sqrt(ln 16e) + 2 sqrt(2))
    C2 = 24 sqrt(2 pi) b (sqrt(ln C0) + sqrt(ln 16e))
    """
    _require_finite(b=b, c0=c0)
    if b <= 0:
        raise ValueError("b must be > 0")
    if c0 < 1:
        raise ValueError("C0 must be >= 1: sqrt(ln C0) is imaginary below 1")
    lead = 24.0 * math.sqrt(2.0 * math.pi) * b
    root_log_16e = math.sqrt(math.log(16.0 * math.e))
    c1 = lead * (1.0 + root_log_16e + 2.0 * math.sqrt(2.0))
    c2 = lead * (math.sqrt(math.log(c0)) + root_log_16e)
    return c1, c2


def confidence_term(delta: float, n: int) -> float:
    """sqrt(ln(1/delta) / (2n))."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def vc_transfer_bound(inputs: BoundInputs, avg_empirical_margin_loss: float) -> BoundReport:
    """avg loss + confidence + (k/(rho sqrt(m)) + k/(rho sqrt(n))) (C1 sqrt(v) + C2)."""
    if not 0 <= avg_empirical_margin_loss <= 1:
        raise ValueError("average empirical margin loss must lie in [0, 1]")
    c1, c2 = constants_c1_c2(inputs.b, inputs.c0)
    rate = inputs.k / (inputs.rho * math.sqrt(inputs.m)) + inputs.k / (inputs.rho * math.sqrt(inputs.n))
    complexity = rate * (c1 * math.sqrt(inputs.v) + c2)
    return _report("vc", avg_empirical_margin_loss, confidence_term(inputs.delta, inputs.n), complexity)


def gaussian_transfer_bound(
    inputs: BoundInputs,
    avg_empirical_margin_loss: float,
    gamma_meta: float,
    gamma_task: float,
) -> BoundReport:
    """Bound from Gaussian complexities of the restricted class.

    gamma_meta estimates the expected complexity of the restriction to
    a whole meta-sample (n*m points); gamma_task the expectation over
    single fresh tasks (m points). Their coefficients are
    k sqrt(2 m pi) / rho and k sqrt(2 pi) / rho respectively.
    """
    if not 0 <= avg_empirical_margin_loss <= 1:
        raise ValueError("average empirical margin loss must lie in [0, 1]")
    _require_finite(gamma_meta=gamma_meta, gamma_task=gamma_task)
    if gamma_meta < 0 or gamma_task < 0:
        raise ValueError("gamma estimates must be >= 0")
    coeff_meta = inputs.k * math.sqrt(2.0 * inputs.m * math.pi) / inputs.rho
    coeff_task = inputs.k * math.sqrt(2.0 * math.pi) / inputs.rho
    complexity = coeff_meta * gamma_meta + coeff_task * gamma_task
    return _report("gaussian", avg_empirical_margin_loss, confidence_term(inputs.delta, inputs.n), complexity)


def covering_transfer_bound(
    inputs: BoundInputs,
    avg_empirical_margin_loss: float,
    entropy_meta: float,
    entropy_task: float,
) -> BoundReport:
    """Bound from raw entropy integrals int_0^L sqrt(ln N(tau)) dtau.

    The coefficients 24 k sqrt(2 pi) / (rho sqrt(n)) and
    24 k sqrt(2 pi) / (rho sqrt(m)) already absorb the 24/sqrt(nm) and
    24/sqrt(m) chaining normalizations, so callers pass the integrals
    unscaled (complexity.entropy_integral, not dudley_bound).
    """
    if not 0 <= avg_empirical_margin_loss <= 1:
        raise ValueError("average empirical margin loss must lie in [0, 1]")
    _require_finite(entropy_meta=entropy_meta, entropy_task=entropy_task)
    if entropy_meta < 0 or entropy_task < 0:
        raise ValueError("entropy integrals must be >= 0")
    lead = 24.0 * inputs.k * math.sqrt(2.0 * math.pi) / inputs.rho
    complexity = lead / math.sqrt(inputs.n) * entropy_meta + lead / math.sqrt(inputs.m) * entropy_task
    return _report("covering", avg_empirical_margin_loss, confidence_term(inputs.delta, inputs.n), complexity)


def surrogate_multimargin_bound(inputs: BoundInputs, avg_multimargin_loss: float) -> BoundReport:
    """VC bound with the empirical term replaced by (k-1) times the
    average empirical multi-margin loss."""
    _require_finite(avg_multimargin_loss=avg_multimargin_loss)
    if avg_multimargin_loss < 0:
        raise ValueError("average multi-margin loss must be >= 0")
    vc = vc_transfer_bound(inputs, 0.0)
    empirical = (inputs.k - 1) * avg_multimargin_loss
    return _report("surrogate", empirical, vc.confidence_term, vc.complexity_term)


def kway_sshot_complexity_term(
    k: int, s: int, q: int, n: int, rho: float, v: int, b: float, c0: float = DEFAULT_C0
) -> float:
    """Complexity term specialized to m = k (s + q):
    (sqrt(k)/(rho sqrt(s+q)) + k/(rho sqrt(n))) (C1 sqrt(v) + C2),
    the VC bound's complexity term at that m."""
    s, q = EpisodeShape(s, q)
    # delta enters only the confidence term, so any value in (0, 1) will do
    inputs = BoundInputs(k=k, rho=rho, delta=0.5, m=k * (s + q), n=n, v=v, b=b, c0=c0)
    return vc_transfer_bound(inputs, 0.0).complexity_term


def sample_efficiency_min_m(epsilon: float, k: int, v: int, n: float, a: float) -> int:
    """Smallest per-task sample size m with a^2 k^2 v / (eps - a k sqrt(v/n))^2
    examples, ceiled.

    Nonincreasing in n; n may be math.inf, in which case the formula
    reduces to a^2 k^2 v / eps^2. Raises InfeasibleError when
    eps <= a k sqrt(v/n), since then no finite m suffices.
    """
    _require_finite(epsilon=epsilon, a=a)
    if math.isnan(n):
        raise ValueError("n must not be NaN")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if k < 1 or v < 1:
        raise ValueError("k and v must be >= 1")
    if a <= 0:
        raise ValueError("a must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    floor_term = 0.0 if math.isinf(n) else a * k * math.sqrt(v / n)
    deficit = epsilon - floor_term
    if deficit <= 0:
        raise InfeasibleError(
            f"epsilon={epsilon} <= a*k*sqrt(v/n)={floor_term}: no finite m reaches this accuracy"
        )
    value = a * a * k * k * v / (deficit * deficit)
    return int(math.ceil(round(value, 9)))
