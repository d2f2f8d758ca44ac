"""Exact and asymptotic edge-probability formulas, the scaling law, and
critical-parameter solvers for the interest-overlap network model.

The model joins three layers on one node set: an overlap graph where two
nodes are adjacent iff their size-K object rings (drawn from a pool of P
objects) share at least d objects, a Bernoulli(f) friendship layer, and a
Bernoulli(g) link-survival layer. The per-pair edge probability is
t = f * g * s(K, P, d) with s the hypergeometric overlap tail.

A critical value is where t crosses (ln n + m ln ln n)/n with the other
parameters fixed. The f, g and m axes have closed forms. The integer axes n,
K and P share one search: the step from the lower end doubles until the
monotone predicate flips, then the last gap is bisected, so every probe
stays within a factor of 2 of the answer. K = P (a single overlap term) is
probed first, so an infeasible K axis is answered at once.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError

# Finite-n proxies for the asymptotic regime conditions; thresholds are
# configuration constants so the advisory is reproducible.
REGIME_SPARSITY_THRESHOLD = 0.1   # flags K^2 ln n / P above this
REGIME_POOL_THRESHOLD = 0.1       # flags K n ln n / P above this
REGIME_RING_GROWTH_EXPONENT = 0.1  # flags K below n**this


@dataclass(frozen=True)
class ModelParams:
    """Model parameter tuple (n, K, P, d, f, g); p = f*g is derived."""

    n: int
    K: int
    P: int
    d: int
    f: float
    g: float

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameterError(f"n must be >= 2, got {self.n}")
        _validate_kpd(self.K, self.P, self.d)
        if not (0.0 <= self.f <= 1.0):
            raise InvalidParameterError(f"f must be in [0,1], got {self.f}")
        if not (0.0 <= self.g <= 1.0):
            raise InvalidParameterError(f"g must be in [0,1], got {self.g}")

    @property
    def p(self) -> float:
        """Combined friendship x link-survival probability."""
        return self.f * self.g

    def replace(self, **kw) -> "ModelParams":
        return dataclasses.replace(self, **kw)


@dataclass
class RegimeCondition:
    name: str
    value: float
    threshold: float
    ok: bool
    description: str


def _validate_kpd(K: int, P: int, d: int) -> None:
    if not (1 <= d <= K <= P):
        raise InvalidParameterError(
            f"need 1 <= d <= K <= P, got d={d}, K={K}, P={P}"
        )


def edge_prob_overlap_exact(K: int, P: int, d: int) -> Fraction:
    """Exact probability two independent uniform K-subsets of a P-pool share
    at least d elements, as a reduced rational.

    Hypergeometric tail over the general support max(d, 2K-P) <= u <= K, so
    P < 2K is also legal (out-of-range terms are zero anyway). When the
    complement u < d has fewer terms, the tail is C(P, K) minus it, so
    small d costs d terms however large K is. Each term C(K, u) C(P-K, K-u)
    is the one before times (K - u)^2 / ((u + 1)(P - 2K + u + 1)); the
    division is exact, and its divisor is >= 1 on the support.
    """
    _validate_kpd(K, P, d)
    total = math.comb(P, K)
    low = max(0, 2 * K - P)

    def mass(us: range) -> int:
        if not us:
            return 0
        term = math.comb(K, us.start) * math.comb(P - K, K - us.start)
        acc = term
        for u in us[:-1]:
            term = term * (K - u) ** 2 // ((u + 1) * (P - 2 * K + u + 1))
            acc += term
        return acc

    tail = range(max(d, low), K + 1)
    complement = range(low, d)
    num = mass(tail) if len(tail) <= len(complement) else total - mass(complement)
    return Fraction(num, total)


def edge_prob_overlap(K: int, P: int, d: int) -> float:
    """Float value of the exact overlap probability s(K, P, d)."""
    return float(edge_prob_overlap_exact(K, P, d))


def edge_prob_model(params: ModelParams) -> float:
    """Per-pair edge probability t = f * g * s(K, P, d) of the full model."""
    return params.p * edge_prob_overlap(params.K, params.P, params.d)


def approx_edge_prob_overlap(K: int, P: int, d: int) -> float:
    """Asymptotic overlap probability (1/d!) * (K^2/P)^d, clamped to [0,1].

    Accurate only when K is large and K^2/P is small; at moderate K^2/P the
    relative error can exceed 10%. Evaluated in log space, so neither
    (K^2/P)^d nor d! can overflow.
    """
    if K < 1 or P < 1 or d < 1:
        raise InvalidParameterError("K, P, d must all be >= 1")
    log_val = d * math.log(K * K / P) - math.lgamma(d + 1)
    return 1.0 if log_val >= 0 else math.exp(log_val)


def alpha_from_params(params: ModelParams, m: int) -> float:
    """Deviation alpha solving n*t = ln n + m*ln ln n + alpha."""
    if params.n < 3:
        raise InvalidParameterError("scaling law needs n >= 3 (ln ln n undefined)")
    if m < 0:
        raise InvalidParameterError(f"failure budget m must be >= 0, got {m}")
    t = edge_prob_model(params)
    return params.n * t - math.log(params.n) - m * math.log(math.log(params.n))


def predicted_limit_prob(alpha: float, m: int) -> float:
    """Limit probability exp(-exp(-alpha)/m!) of staying connected after any
    m node failures; 1 at alpha=+inf and 0 at alpha=-inf.

    exp(-alpha)/m! is taken in log space (lgamma(m+1) = ln m!), so any m is
    accepted; where it overflows a float the limit is 0.
    """
    if m < 0:
        raise InvalidParameterError(f"failure budget m must be >= 0, got {m}")
    if math.isnan(alpha):
        raise InvalidParameterError("alpha must not be NaN")
    try:  # alpha = +-inf needs no branch: exp(-inf) = 0, exp(inf) = inf
        return math.exp(-math.exp(-alpha - math.lgamma(m + 1)))
    except OverflowError:
        return 0.0


def check_regime(params: ModelParams) -> list[RegimeCondition]:
    """Finite-n advisory proxies for the theorem's asymptotic conditions."""
    n, K, P = params.n, params.K, params.P
    ln_n = math.log(n)
    sparsity = K * K * ln_n / P
    pool = K * n * ln_n / P
    ring_floor = n ** REGIME_RING_GROWTH_EXPONENT
    return [
        RegimeCondition(
            name="K^2/P = o(1/ln n)",
            value=sparsity,
            threshold=REGIME_SPARSITY_THRESHOLD,
            ok=sparsity <= REGIME_SPARSITY_THRESHOLD,
            description=f"K^2 ln n / P = {sparsity:.6g}",
        ),
        RegimeCondition(
            name="K/P = o(1/(n ln n))",
            value=pool,
            threshold=REGIME_POOL_THRESHOLD,
            ok=pool <= REGIME_POOL_THRESHOLD,
            description=f"K n ln n / P = {pool:.6g}",
        ),
        RegimeCondition(
            name="K = Omega(n^eps)",
            value=float(K),
            threshold=ring_floor,
            ok=K >= ring_floor,
            description=f"K = {K} vs n^{REGIME_RING_GROWTH_EXPONENT} = {ring_floor:.6g}",
        ),
    ]


def poisson_degree_mean(n: int, t: float, h: int) -> float:
    """Mean n * (n t)^h * exp(-n t) / h! of the asymptotic Poisson law for
    the number of degree-h nodes."""
    if not (0.0 <= t <= 1.0):
        raise InvalidParameterError(f"t must be in [0,1], got {t}")
    if h < 0:
        raise InvalidParameterError(f"h must be >= 0, got {h}")
    return n * poisson_pmf(n * t, h)


def _stirlerr(x: int) -> float:
    """ln x! - ln(sqrt(2 pi x) (x/e)^x) for x >= 1; past 15 from five terms
    of its asymptotic series, which reach 1e-16 there."""
    if x <= 15:
        return math.lgamma(x + 1) - (x + 0.5) * math.log(x) + x - 0.5 * math.log(2 * math.pi)
    xx = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / xx) / xx) / xx) / xx) / x


def _bd0(x: int, mu: float) -> float:
    """x ln(x / mu) + mu - x for x >= 1; near mu as (x - mu) v + 2x (v^3/3 +
    v^5/5 + ...), v = (x - mu)/(x + mu), whose terms do not cancel."""
    if abs(x - mu) >= 0.1 * (x + mu):
        return x * math.log(x / mu) + mu - x
    v = (x - mu) / (x + mu)  # |v| < 0.1: the terms left out are below 1e-20 of the first
    return (x - mu) * v + 2 * x * sum(v ** j / j for j in range(3, 21, 2))


def low_degree_mean(params: ModelParams, m: int) -> float:
    """Exact mean E[X] = n * P[Bin(n - 1, t) <= m] of the number X of nodes
    of degree at most m, t = edge_prob_model(params). Given a node's ring,
    every other node is adjacent to it independently with probability t, so
    each degree is exactly Bin(n - 1, t).

    The terms rise up to h = n t and fall after it, so the sum runs away
    from that peak, over h <= m when m < n t and else over the tail h > m,
    and stops at the first term too small to change it. It takes a few
    standard deviations' worth of terms, not m + 1, so a huge m is cheap.
    Each term is the last times the ratio of neighbours; the first is in
    Loader's saddle-point form (as in R's dbinom), where nothing grows with n."""
    if m < 0:
        raise InvalidParameterError(f"failure budget m must be >= 0, got {m}")
    n, t = params.n, edge_prob_model(params)
    if m >= n - 1 or t == 0.0:
        return float(n)
    if t == 1.0:
        return 0.0
    below = m < n * t
    h, q = (m if below else m + 1), 1.0 - t
    if h in (0, n - 1):
        term = math.exp(h * math.log(t) + (n - 1 - h) * math.log1p(-t))
    else:
        term = math.exp(_stirlerr(n - 1) - _stirlerr(h) - _stirlerr(n - 1 - h)
                        - _bd0(h, (n - 1) * t) - _bd0(n - 1 - h, (n - 1) * q)
                        - 0.5 * math.log(2 * math.pi * h * (n - 1 - h) / (n - 1)))
    total = 0.0
    while total + term != total:
        total += term  # then the next term, 0 past h = 0 and h = n - 1
        term *= h * q / ((n - h) * t) if below else (n - 1 - h) * t / ((h + 1) * q)
        h += -1 if below else 1
    return n * min(total if below else 1.0 - total, 1.0)


def predicted_finite_prob(params: ModelParams, m: int) -> float:
    """Finite-n prediction exp(-E[X]) of staying connected after any m node
    failures, E[X] = low_degree_mean(params, m): the limit law's Poisson
    step taken at the exact mean rather than at its limit e^{-alpha}/m!."""
    return math.exp(-low_degree_mean(params, m))


def poisson_pmf(lam: float, ell: int) -> float:
    """Poisson pmf lam^ell exp(-lam)/ell!, evaluated in log space."""
    if lam < 0:
        raise InvalidParameterError(f"lambda must be >= 0, got {lam}")
    if ell < 0:
        raise InvalidParameterError(f"ell must be >= 0, got {ell}")
    if lam == 0.0:
        return 1.0 if ell == 0 else 0.0
    return math.exp(ell * math.log(lam) - lam - math.lgamma(ell + 1))


# -- critical parameter solvers ------------------------------------------

CRITICAL_AXES = ("g", "f", "n", "m", "K", "P")


@dataclass
class CriticalResult:
    """Boundary value where f*g*s(K,P,d) crosses (ln n + m ln ln n)/n.

    For continuous axes (f, g) the crossing is solved exactly by division;
    for integer axes the extreme integer satisfying the inequality is
    returned (minimal n*, minimal K*, maximal P*, maximal m*). When no value
    in the valid domain works, feasible is False and value carries the
    unclamped/sentinel quantity.
    """

    axis: str
    value: float
    feasible: bool
    alpha_at_value: float | None = None
    note: str = ""


def _threshold(n: int, m: int) -> float:
    return (math.log(n) + m * math.log(math.log(n))) / n


def solve_critical(param_name: str, params: ModelParams, m: int) -> CriticalResult:
    """Critical value of one axis with all other parameters held fixed."""
    if param_name not in CRITICAL_AXES:
        raise InvalidParameterError(
            f"axis must be one of {CRITICAL_AXES}, got {param_name!r}"
        )
    if m < 0:
        raise InvalidParameterError(f"m must be >= 0, got {m}")
    if params.n < 3:
        raise InvalidParameterError("critical solving needs n >= 3")

    if param_name == "g":
        return _solve_ratio_axis("g", params, m, params.f)
    if param_name == "f":
        return _solve_ratio_axis("f", params, m, params.g)
    if param_name == "m":
        return _solve_m(params, m)
    return {"n": _critical_n, "K": _critical_K, "P": _critical_P}[param_name](params, m)


def _solve_ratio_axis(axis: str, params: ModelParams, m: int, other: float) -> CriticalResult:
    s = edge_prob_overlap(params.K, params.P, params.d)
    thr = _threshold(params.n, m)
    if other * s == 0.0:
        return CriticalResult(axis=axis, value=math.inf, feasible=False,
                              note="f*s (resp. g*s) is zero; no finite crossing")
    star = thr / (other * s)
    feasible = star <= 1.0
    alpha = None
    if feasible:
        alpha = alpha_from_params(params.replace(**{axis: star}), m)
    return CriticalResult(axis=axis, value=star, feasible=feasible,
                          alpha_at_value=alpha,
                          note="" if feasible else "required value exceeds 1")


def _solve_m(params: ModelParams, m_query: int) -> CriticalResult:
    # maximal m with t >= (ln n + m ln ln n)/n
    t = edge_prob_model(params)
    n = params.n
    lnln = math.log(math.log(n))
    raw = (n * t - math.log(n)) / lnln
    if raw < 0:
        return CriticalResult(axis="m", value=raw, feasible=False,
                              note="even m=0 violates the inequality")
    m_star = math.floor(raw)
    return CriticalResult(axis="m", value=float(m_star), feasible=True,
                          alpha_at_value=alpha_from_params(params, m_star))


_N_CAP = 10 ** 15
_P_CAP = 10 ** 12


def _first_true(ok, lo: int, cap: int) -> int | None:
    """Smallest v in (lo, cap] with ok(v), for ok false at lo and monotone
    (false, then true) on [lo, cap]; None when ok(cap) is false.

    The step from lo doubles until ok holds, then the last gap is bisected,
    so no probe lies more than twice as far from lo as the answer does.
    """
    below, step = lo, 1
    while not ok(hi := min(lo + step, cap)):
        if hi == cap:
            return None
        below, step = hi, 2 * step
    while hi - below > 1:  # ok(below) false, ok(hi) true
        mid = (below + hi) // 2
        if ok(mid):
            hi = mid
        else:
            below = mid
    # +-1 neighborhood check (bisection soundness guard)
    assert ok(hi) and not ok(hi - 1)
    return hi


def _int_result(axis: str, params: ModelParams, m: int, star: int | None,
                note: str) -> CriticalResult:
    if star is None:
        return CriticalResult(axis=axis, value=math.inf, feasible=False, note=note)
    return CriticalResult(axis=axis, value=float(star), feasible=True,
                          alpha_at_value=alpha_from_params(params.replace(**{axis: star}), m))


# Extreme integer with t >= threshold: minimal n* and K*, maximal P*.
# s(K, P, d) is nondecreasing in K and nonincreasing in P.

def _critical_n(params: ModelParams, m: int) -> CriticalResult:
    t = edge_prob_model(params)  # t does not depend on n
    if t <= 0:
        return CriticalResult(axis="n", value=math.inf, feasible=False,
                              note="t = 0; threshold never met")

    def ok(n: int) -> bool:
        return t >= _threshold(n, m)

    # The threshold is not monotone at very small n (it can rise before
    # the eventual 1/n decay), so scan a small prefix before the search.
    star = next((v for v in range(3, 1001) if ok(v)), None)
    if star is None:
        star = _first_true(ok, 1000, _N_CAP)
    return _int_result("n", params, m, star, f"no n <= {_N_CAP} meets the threshold")


def _critical_K(params: ModelParams, m: int) -> CriticalResult:
    p, P, d = params.p, params.P, params.d
    thr = _threshold(params.n, m)

    def ok(k: int) -> bool:
        return p * edge_prob_overlap(k, P, d) >= thr

    # K = P is one overlap term, so probing it first keeps an infeasible
    # input from walking the doubling steps up to P.
    if ok(d):
        star = d
    else:
        star = _first_true(ok, d, P) if ok(P) else None
    return _int_result("K", params, m, star, "even K = P misses the threshold")


def _critical_P(params: ModelParams, m: int) -> CriticalResult:
    p, K, d = params.p, params.K, params.d
    thr = _threshold(params.n, m)

    def misses(q: int) -> bool:
        return p * edge_prob_overlap(K, q, d) < thr

    if misses(K):
        return CriticalResult(axis="P", value=-math.inf, feasible=False,
                              note="even P = K (s = 1) misses the threshold")
    first_miss = _first_true(misses, K, _P_CAP)
    star = None if first_miss is None else first_miss - 1
    return _int_result("P", params, m, star, "threshold met beyond the search cap")
