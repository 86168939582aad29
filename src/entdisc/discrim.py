"""Closed-form trace-distance maxima and the usefulness decision tree.

Discriminating two channels from the diagonal family reduces to four real
parameters.  With mixture weights lam, angles (phi, theta) for the first
channel and primes for its second component,

    alpha  = <cos^2 theta>_1 - <cos^2 theta>_2
    beta   = <cos^2 phi>_1   - <cos^2 phi>_2
    gamma1 = <cos phi cos theta>_1 - <cos phi cos theta>_2
    gamma2 = <sin phi sin theta>_1 - <sin phi sin theta>_2

where <.>_i is the lam-weighted average over channel i's two components.
Writing T = (1-s) alpha + s beta, A = (1-s) alpha - s beta, u = s (1-s),
the best trace distance using a probe with |1>-weight s is

    single:    g(s) = 2 sqrt(A^2 + 4 u ((|g1|+|g2|)/2)^2)
    entangled: E(s) = sum_j max(|T|, sqrt(A^2 + 4 u gj^2))

and side entanglement is useful exactly when max E > max g.  The maxima
have closed forms (with one scalar scan in the genuinely two-radical
cases), and the comparison collapses to the decision tree implemented by
:func:`classify`.

One analysis per pair: :func:`classify_pair` returns the parameters with the
verdict, which compute each maximum when it is first read and keep it.

Two corrections to the usual closed forms, both confirmed against the
brute-force oracle in this package: the interior stationary point of g is
the maximizer only when it actually lies in [0, 1] (otherwise the best
probe sits at an endpoint and max g = 2|P|), and in that endpoint regime
usefulness is decided by P (alpha + beta) < gamma1^2 + gamma2^2 regardless
of how |alpha + beta| compares to |gamma1| + |gamma2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import channels

SCAN_POINTS = 10001
GOLDEN_TOL = 1e-12
EPS_BOUNDARY = 1e-9

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DiscrimParams:
    """The four discrimination parameters, with the derived selections."""

    alpha: float
    beta: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma1", "gamma2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def gamma_m(self) -> float:
        """The gamma of smaller magnitude (gamma1 wins ties)."""
        return self.gamma1 if abs(self.gamma1) <= abs(self.gamma2) else self.gamma2

    @property
    def gamma_M(self) -> float:
        """The gamma of larger magnitude (gamma1 wins ties)."""
        return self.gamma1 if abs(self.gamma1) >= abs(self.gamma2) else self.gamma2

    @property
    def P(self) -> float:
        """alpha or beta, whichever has the larger magnitude (alpha wins ties)."""
        return self.alpha if abs(self.alpha) >= abs(self.beta) else self.beta

    @property
    def single(self) -> DistanceResult:
        """:func:`max_distance_single`, computed on first read and kept."""
        return self._memo("_single", max_distance_single)

    @property
    def entangled(self) -> DistanceResult:
        """:func:`max_distance_entangled`, computed on first read and kept."""
        return self._memo("_entangled", max_distance_entangled)

    _single = _entangled = None

    def _memo(self, name: str, compute):
        # Not functools.cached_property: reading self.__dict__ first takes the
        # instance off CPython's fast attribute path, slowing the scan by ~10%.
        if getattr(self, name) is None:
            object.__setattr__(self, name, compute(self))
        return getattr(self, name)


@dataclass(frozen=True)
class DistanceResult:
    """An optimized trace distance with its maximizer and formula branch."""

    value: float
    arg: float
    branch: str
    scan_resolution: int = 0
    converged: bool = True  # False when a search stopped at its iteration cap


@dataclass
class Classification:
    """A tree verdict with the parameters it was decided on."""

    useful: bool
    node: str
    boundary: bool
    params: DiscrimParams
    margins: dict = field(default_factory=dict)


def compute_params(c1, c2) -> DiscrimParams:
    """Discrimination parameters of a channel pair (extremal or mixture)."""

    def avg(c: channels.QubitChannel, f) -> float:
        return c.lam * f(c.first) + (1.0 - c.lam) * f(c.second)

    def coerce(c):
        if isinstance(c, channels.ExtremalChannel):
            return channels.QubitChannel(1.0, c, c)
        return c

    c1, c2 = coerce(c1), coerce(c2)
    ct2 = lambda e: math.cos(e.theta) ** 2
    cp2 = lambda e: math.cos(e.phi) ** 2
    cc = lambda e: math.cos(e.phi) * math.cos(e.theta)
    ss = lambda e: math.sin(e.phi) * math.sin(e.theta)
    return DiscrimParams(
        alpha=avg(c1, ct2) - avg(c2, ct2),
        beta=avg(c1, cp2) - avg(c2, cp2),
        gamma1=avg(c1, cc) - avg(c2, cc),
        gamma2=avg(c1, ss) - avg(c2, ss),
    )


def _check_s(s: float) -> float:
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s must lie in [0, 1], got {s}")
    return s


def g_single(p: DiscrimParams, s: float) -> float:
    """Best single-qubit trace distance at fixed probe weight s."""
    s = _check_s(s)
    a_form = (1.0 - s) * p.alpha - s * p.beta
    half = 0.5 * (abs(p.gamma1) + abs(p.gamma2))
    return 2.0 * math.sqrt(a_form**2 + 4.0 * s * (1.0 - s) * half**2)


def f_entangled(p: DiscrimParams, s: float) -> float:
    """Two-radical entangled profile, valid when both gamma_j^2 >= alpha beta."""
    s = _check_s(s)
    a_form = (1.0 - s) * p.alpha - s * p.beta
    u = s * (1.0 - s)
    return sum(
        math.sqrt(a_form**2 + 4.0 * u * g**2) for g in (p.gamma1, p.gamma2)
    )


def G_mixed(p: DiscrimParams, s: float) -> float:
    """Entangled profile in the regime gamma_m^2 < alpha beta < gamma_M^2."""
    s = _check_s(s)
    t_form = (1.0 - s) * p.alpha + s * p.beta
    u = s * (1.0 - s)
    c = p.gamma_M**2 - p.alpha * p.beta
    return abs(t_form) + math.sqrt(t_form**2 + 4.0 * u * c)


def _single_vertex(p: DiscrimParams):
    """Interior stationary point of the single-qubit profile, or None.

    The profile squared is quadratic in s; for |alpha+beta| < |g1|+|g2| it
    is concave with vertex t*.  The vertex is the maximizer only when it
    lies in [0, 1], which is equivalent to 2 alpha (alpha+beta) <= G^2 and
    2 beta (alpha+beta) <= G^2.
    """
    gsum = abs(p.gamma1) + abs(p.gamma2)
    apb = p.alpha + p.beta
    if abs(apb) >= gsum:
        return None
    if 2.0 * p.alpha * apb >= gsum**2 or 2.0 * p.beta * apb >= gsum**2:
        return None
    num = 2.0 * p.alpha * apb - gsum**2
    den = 2.0 * apb**2 - 2.0 * gsum**2
    return num / den


def max_distance_single(p: DiscrimParams) -> DistanceResult:
    """Maximum single-qubit trace distance over all probe states."""
    gsum = abs(p.gamma1) + abs(p.gamma2)
    apb = p.alpha + p.beta
    vertex = _single_vertex(p)
    if vertex is not None:
        value = (
            gsum
            * math.sqrt(gsum**2 - 4.0 * p.alpha * p.beta)
            / math.sqrt(gsum**2 - apb**2)
        )
        return DistanceResult(value, vertex, "interior")
    arg = 0.0 if abs(p.alpha) >= abs(p.beta) else 1.0
    return DistanceResult(2.0 * abs(p.P), arg, "endpoint")


def _scan_max(fn) -> tuple[float, float]:
    """Global max of a continuous fn on [0, 1]: uniform scan plus golden
    refinement of the best bracket down to a 1e-12 interval."""
    n = SCAN_POINTS
    best_v, best_i = -math.inf, 0
    step = 1.0 / (n - 1)
    for i in range(n):
        v = fn(i * step)
        if v > best_v:
            best_v, best_i = v, i
    lo = max(0.0, (best_i - 1) * step)
    hi = min(1.0, (best_i + 1) * step)
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > GOLDEN_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
    arg = 0.5 * (lo + hi)
    v = fn(arg)
    if best_v > v:
        return best_v, best_i * step
    return v, arg


def max_distance_entangled(p: DiscrimParams) -> DistanceResult:
    """Maximum trace distance with an entangled probe.

    Three regimes: when gamma_M^2 <= alpha beta both 2x2 blocks of the
    output difference have same-sign eigenvalues, the profile is piecewise
    linear and peaks at an endpoint; in the middle regime only the larger
    gamma contributes a radical (single-radical profile); otherwise both
    radicals are live and the two-radical profile is scanned numerically.
    """
    ab = p.alpha * p.beta
    if p.gamma_M**2 <= ab:
        arg = 0.0 if abs(p.alpha) >= abs(p.beta) else 1.0
        return DistanceResult(2.0 * max(abs(p.alpha), abs(p.beta)), arg, "linear")
    if p.gamma_m**2 < ab:
        value, arg = _scan_max(lambda s: G_mixed(p, s))
        return DistanceResult(value, arg, "single-radical", SCAN_POINTS)
    value, arg = _scan_max(lambda s: f_entangled(p, s))
    return DistanceResult(value, arg, "two-radical", SCAN_POINTS)


def s_tilde(p: DiscrimParams) -> float:
    """Stationary point of the single-radical profile, before clamping.

    Defined for gamma_M (alpha + beta) != 0; the degenerate product is
    rejected because both closed forms divide by it.
    """
    prod = p.gamma_M * (p.alpha + p.beta)
    if abs(prod) <= EPS_BOUNDARY:
        raise ValueError("s_tilde undefined: gamma_M * (alpha + beta) is zero")
    if prod > 0.0:
        return (p.gamma_M - p.alpha) / (2.0 * p.gamma_M - (p.alpha + p.beta))
    return (p.gamma_M + p.alpha) / (2.0 * p.gamma_M + (p.alpha + p.beta))


def F_diag(p: DiscrimParams, s: float) -> float:
    """Quartic whose negativity detects an entangled advantage over 2|P|
    in the two-radical regime (s runs opposite to the profile variable)."""
    s = _check_s(s)
    P2 = p.P**2
    sg = p.gamma1**2 + p.gamma2**2
    dg2 = (p.gamma1**2 - p.gamma2**2) ** 2
    apb = p.alpha + p.beta
    return (
        P2 * (P2 - p.beta**2)
        + 2.0 * P2 * (p.beta * apb - sg) * s
        + (P2 * (2.0 * sg - apb**2) + dg2) * s**2
        - 2.0 * dg2 * s**3
        + dg2 * s**4
    )


def R_diag(p: DiscrimParams, s: float) -> float:
    """Quartic whose negativity detects an entangled advantage over 2|P|
    in the single-radical regime."""
    s = _check_s(s)
    P2 = p.P**2
    c = p.gamma_M**2 - p.alpha * p.beta
    return (
        P2 * (P2 - p.alpha**2)
        + 2.0 * P2 * (p.alpha**2 - p.gamma_M**2) * s
        + (c**2 - P2 * (p.alpha**2 + p.beta**2 - 2.0 * p.gamma_M**2)) * s**2
        - 2.0 * c**2 * s**3
        + c**2 * s**4
    )


def success_probability(distance: float) -> float:
    """Helstrom success probability for equal priors at a given distance."""
    if not (0.0 <= distance <= 2.0 + 1e-12):
        raise ValueError(f"trace distance must lie in [0, 2], got {distance}")
    return 0.5 * (1.0 + 0.5 * min(distance, 2.0))


def classify(p: DiscrimParams) -> Classification:
    """Walk the decision tree on (alpha, beta, gamma1, gamma2).

    Records the signed slack of every inequality tested along the path;
    only useful verdicts read the maxima of ``p``, to record their gap as
    ``value_gap``.  ``boundary`` is set when any recorded slack is within
    1e-9 of zero, because the strict/non-strict splits of the tree are
    measure-zero sets where floating-point inputs are unreliable.
    """
    m: dict = {}
    a, b, g1, g2 = p.alpha, p.beta, p.gamma1, p.gamma2
    gM, gm = p.gamma_M, p.gamma_m
    ab = a * b
    gsum = abs(g1) + abs(g2)

    def finish(useful: bool, node: str) -> Classification:
        if useful:
            m["value_gap"] = p.entangled.value - p.single.value
        boundary = any(abs(v) < EPS_BOUNDARY for v in m.values())
        return Classification(useful, node, boundary, p, m)

    m["root_ab_minus_gM2"] = ab - gM**2
    if gM**2 <= ab:
        return finish(False, "T3/root")

    m["regime_ab_minus_gm2"] = ab - gm**2
    if gm**2 < ab:
        # Middle regime: only the larger gamma contributes a radical.
        m["t3_vertex"] = gsum**2 / 2.0 - p.P * (a + b)
        if gsum**2 / 2.0 - p.P * (a + b) <= 0.0:
            # Single-qubit optimum sits at an endpoint.
            m["t3_gM_vs_P"] = abs(gM) - abs(p.P)
            if m["t3_gM_vs_P"] > EPS_BOUNDARY:
                return finish(True, "T3/B.4")
            return finish(False, "T3/A.3")
        m["t3_alpha_eq_beta"] = abs(a - b)
        if abs(a - b) <= EPS_BOUNDARY:
            m["t3_gm_vs_alpha"] = abs(a) - abs(gm)
            if m["t3_gm_vs_alpha"] > EPS_BOUNDARY:
                return finish(True, "T3/B.1")
            return finish(False, "T3/A.1")
        res = 2.0 * gM * (a + b) - gsum**2
        m["t3_resonance"] = res
        if abs(res) > EPS_BOUNDARY:
            return finish(True, "T3/B.2")
        # On the resonance set the single and entangled optima share the
        # same argument, and the value ratio collapses to the geometric
        # mean comparison (gM + psi) / (2 sqrt(gM psi)) with
        # psi = (2 ab - gM (a+b)) / (a+b - 2 gM).  The ratio is 1 exactly
        # when gM equals alpha or beta.
        m["t3_gM_equation"] = min(abs(gM - a), abs(gM - b))
        if m["t3_gM_equation"] <= EPS_BOUNDARY:
            return finish(False, "T3/A.2")
        return finish(True, "T3/B.3")

    # Low regime: both radicals live, profiles are f and g.
    m["t2_g1_eq_g2"] = abs(abs(g1) - abs(g2))
    if abs(abs(g1) - abs(g2)) <= EPS_BOUNDARY:
        return finish(False, "T2/O1")

    vertex = _single_vertex(p)
    if abs(a + b) < gsum:
        m["t2_apb_vs_gsum"] = gsum - abs(a + b)
        m["t2_vertex"] = min(
            gsum**2 - 2.0 * a * (a + b), gsum**2 - 2.0 * b * (a + b)
        )
    if vertex is not None and 0.0 < vertex < 1.0:
        m["t2_alpha_eq_beta"] = abs(a - b)
        if abs(a - b) <= EPS_BOUNDARY:
            return finish(False, "T2/A.4")
        # Interior optimum with alpha != beta: the two-radical profile
        # strictly beats the single-qubit profile at the optimum.
        m["t2_fg_at_vertex"] = f_entangled(p, vertex) - g_single(p, vertex)
        return finish(True, "T2/B.3")

    # Single-qubit optimum at an endpoint: max g = 2 |P|.
    m["t2_2gM_vs_apb"] = abs(a + b) - 2.0 * abs(gM)
    if abs(a + b) >= 2.0 * abs(gM):
        return finish(False, "T2/A.1")
    m["t2_P_test"] = p.P * (a + b) - (g1**2 + g2**2)
    if p.P * (a + b) < g1**2 + g2**2:
        return finish(True, "T2/B.1")
    return finish(False, "T2/A.2")


def classify_pair(c1, c2) -> Classification:
    """Classify a channel pair; the verdict carries the pair's ``params``.

    A pair of quasi-extreme point maps short-circuits to the T1 verdict
    (side entanglement never helps there), reading no maximum.  The
    shortcut applies only to channels that *are* quasi-extreme point maps,
    not to proper mixtures of quasi-extreme components (those are interior
    channels, e.g. Pauli channels, where entanglement can help).
    """

    def quasi_point_map(c) -> bool:
        if isinstance(c, channels.ExtremalChannel):
            return channels.is_quasi_extreme(c)
        if c.is_extremal:
            return channels.is_quasi_extreme(c.first)
        return c.lam == 0.0 and channels.is_quasi_extreme(c.second)

    p = compute_params(c1, c2)
    if quasi_point_map(c1) and quasi_point_map(c2):
        return Classification(False, "T1", False, p)
    return classify(p)
