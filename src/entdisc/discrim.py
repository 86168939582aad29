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

and side entanglement is useful exactly when max E > max g.  Each maximum
is the best profile value over a few candidate points: the endpoints of
[0, 1] and the profile's stationary points, which have closed forms
except the concave two-radical profile's: the root of its slope, found by
a bracketed Newton search.
The comparison collapses to the decision tree implemented by
:func:`classify`.

One path from angles to parameters: :func:`channel_moments` holds the
moment expressions, the mixture weighting and the quasi-extreme point-map
rule, and :func:`classify_moments` the T1 shortcut.  :func:`compute_params`
and :func:`classify_pair` call them on channel objects, the CLI sweep on
grid values.

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

EPS_BOUNDARY = 1e-9


class _computed_once:
    """A lazy attribute: ``fn(obj)`` on first read, kept in ``obj.__dict__``.

    A non-data descriptor, so later reads find the instance entry and never
    call it again.  Unlike :class:`functools.cached_property` before Python
    3.12 it takes no lock, which made a first read about 2.5x slower.  Two
    threads racing on a first read may both compute the value; the results
    are equal.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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

    @_computed_once
    def single(self) -> DistanceResult:
        """:func:`max_distance_single`, computed on first read and kept."""
        return max_distance_single(self)

    @_computed_once
    def entangled(self) -> DistanceResult:
        """:func:`max_distance_entangled`, computed on first read and kept."""
        return max_distance_entangled(self)


@dataclass(frozen=True)
class DistanceResult:
    """An optimized trace distance with its maximizer and formula branch."""

    value: float
    arg: float
    branch: str
    iterations: int = 0  # zoom levels of an oracle search; 0 for closed forms


@dataclass
class Classification:
    """A tree verdict with the parameters it was decided on."""

    useful: bool
    node: str
    boundary: bool
    params: DiscrimParams
    margins: dict = field(default_factory=dict)


def cos_sin(x: float) -> tuple[float, float]:
    """cos x and sin x: the trig that a component's moments and its
    quasi-extreme test read."""
    return math.cos(x), math.sin(x)


def channel_moments(lam, phi, theta, phi_p, theta_p, trig=cos_sin):
    """The lam-weighted moments of lam * E(phi, theta) + (1 - lam) *
    E(phi_p, theta_p), and whether that channel is a quasi-extreme point map.

    The moments are <cos^2 theta>, <cos^2 phi>, <cos phi cos theta> and
    <sin phi sin theta>.  ``trig`` maps an angle to its (cos, sin), so a
    caller that meets the same angle many times can pass a memoized
    :func:`cos_sin`.  Equal components make the channel extremal whatever
    lam is; the second component's trig is then not read.  The channel is a
    point map when it is extremal (lam = 1 or equal components) or lam = 0,
    and quasi-extreme when that one component is.
    """
    cp1, sp1 = trig(phi)
    ct1, st1 = trig(theta)
    same = phi == phi_p and theta == theta_p
    if same:
        cp2, sp2, ct2, st2 = cp1, sp1, ct1, st1
    else:
        (cp2, sp2), (ct2, st2) = trig(phi_p), trig(theta_p)
    rest = 1.0 - lam
    moments = (
        lam * ct1**2 + rest * ct2**2,
        lam * cp1**2 + rest * cp2**2,
        lam * (cp1 * ct1) + rest * (cp2 * ct2),
        lam * (sp1 * st1) + rest * (sp2 * st2),
    )
    if lam == 1.0 or same:
        point = channels.quasi_extreme_sines(sp1, st1)
    else:
        point = lam == 0.0 and channels.quasi_extreme_sines(sp2, st2)
    return moments, point


def _channel_moments(c):
    """:func:`channel_moments` of a channel object (extremal or mixture)."""
    if isinstance(c, channels.ExtremalChannel):
        return channel_moments(1.0, c.phi, c.theta, c.phi, c.theta)
    first, second = c.first, c.second
    return channel_moments(c.lam, first.phi, first.theta, second.phi, second.theta)


def _params(m1, m2) -> DiscrimParams:
    """Parameters of a pair from each channel's moments: their differences."""
    return DiscrimParams(m1[0] - m2[0], m1[1] - m2[1], m1[2] - m2[2], m1[3] - m2[3])


def compute_params(c1, c2) -> DiscrimParams:
    """Discrimination parameters of a channel pair (extremal or mixture)."""
    return _params(_channel_moments(c1)[0], _channel_moments(c2)[0])


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
    """The paper's two-radical profile f, equal to :func:`entangled_profile`
    when both gamma_j^2 >= alpha beta; the tree reads it at the vertex of g."""
    s = _check_s(s)
    a2 = ((1.0 - s) * p.alpha - s * p.beta) ** 2
    u4 = 4.0 * (s * (1.0 - s))
    return math.sqrt(a2 + u4 * p.gamma1**2) + math.sqrt(a2 + u4 * p.gamma2**2)


def entangled_profile(p: DiscrimParams, s: float) -> float:
    """Best entangled trace distance at fixed Schmidt weight s, in all three
    regimes: E(s) = sum_j max(|T|, sqrt(A^2 + 4 u gamma_j^2))."""
    s = _check_s(s)
    t_abs = abs((1.0 - s) * p.alpha + s * p.beta)
    a2 = ((1.0 - s) * p.alpha - s * p.beta) ** 2
    u4 = 4.0 * (s * (1.0 - s))
    r1 = math.sqrt(a2 + u4 * p.gamma1**2)
    r2 = math.sqrt(a2 + u4 * p.gamma2**2)
    return (r1 if r1 > t_abs else t_abs) + (r2 if r2 > t_abs else t_abs)


def _best(profile, p: DiscrimParams, candidates) -> tuple[float, float]:
    """The highest ``profile`` value over ``candidates`` with its point; the
    first candidate wins ties."""
    best, arg = -math.inf, math.nan
    for s in candidates:
        value = profile(p, s)
        if value > best:
            best, arg = value, s
    return best, arg


def _single_vertex(p: DiscrimParams):
    """Interior stationary point of the single-qubit profile, or None.

    The profile squared is quadratic in s; for |alpha+beta| < |g1|+|g2| it
    is concave with vertex t*.  The vertex is the maximizer only when it
    lies in [0, 1], which is equivalent to 2 alpha (alpha+beta) <= G^2 and
    2 beta (alpha+beta) <= G^2.  Those tests and the quotient round apart,
    so the quotient is clamped to 1.
    """
    gsum = abs(p.gamma1) + abs(p.gamma2)
    apb = p.alpha + p.beta
    if abs(apb) >= gsum:
        return None
    if 2.0 * p.alpha * apb >= gsum**2 or 2.0 * p.beta * apb >= gsum**2:
        return None
    num = 2.0 * p.alpha * apb - gsum**2
    den = 2.0 * apb**2 - 2.0 * gsum**2
    vertex = num / den
    return vertex if vertex < 1.0 else 1.0


def max_distance_single(p: DiscrimParams) -> DistanceResult:
    """Maximum single-qubit trace distance over all probe states: the best
    profile value over the vertex and the endpoints ("interior" when the
    vertex wins)."""
    vertex = _single_vertex(p)
    candidates = (0.0, 1.0) if vertex is None else (vertex, 0.0, 1.0)
    value, arg = _best(g_single, p, candidates)
    return DistanceResult(value, arg, "interior" if arg == vertex else "endpoint")


def _single_radical_max(p: DiscrimParams) -> list[float]:
    """Candidate points of the single-radical maximum on [0, 1].

    Squaring E' = 0 gives s^2 (d^2 - 4c) + s (2 alpha d + 4c) - (alpha d + c)
    = 0 with d = beta - alpha and c = gamma_M^2 - alpha beta, whose roots
    are (gamma_M -+ alpha) / (2 gamma_M -+ (alpha + beta)).  The kink of
    |T| at T = 0 is a local minimum, so the maximum sits at an endpoint or
    at a root inside (0, 1).  The roots are read from this factored form,
    never from the quadratic formula: at alpha = beta its double root
    s = 1/2 has a discriminant that rounds negative.
    """
    gM, a, apb = p.gamma_M, p.alpha, p.alpha + p.beta
    candidates = [0.0, 1.0]
    for num, den in ((gM - a, 2.0 * gM - apb), (gM + a, 2.0 * gM + apb)):
        if den != 0.0 and 0.0 < num / den < 1.0:
            candidates.append(num / den)
    return candidates


def _two_radical_slope(p: DiscrimParams, s: float) -> tuple[float, float, float]:
    """Slope of the two-radical profile at s, the slope's derivative, and
    the profile's value.

    With h_j = (2 - 4s) gamma_j^2 - (alpha + beta) A, half of q_j', each
    radical sqrt(q_j) has slope h_j / sqrt(q_j) and second derivative
    (((alpha + beta)^2 - 4 gamma_j^2) q_j - h_j^2) / q_j^1.5, whose
    numerator is the constant 4 gamma_j^2 (alpha beta - gamma_j^2), <= 0
    in the two-radical regime.  A radical with q_j = 0 is zero on all of
    [0, 1] (alpha = beta = gamma_j = 0) and adds nothing.
    """
    ab, apb = p.alpha * p.beta, p.alpha + p.beta
    a_form = (1.0 - s) * p.alpha - s * p.beta
    u4 = 4.0 * (s * (1.0 - s))
    slope = curve = value = 0.0
    for gsq in (p.gamma1**2, p.gamma2**2):
        q = a_form * a_form + u4 * gsq
        if q > 0.0:
            r = math.sqrt(q)
            slope += ((2.0 - 4.0 * s) * gsq - apb * a_form) / r
            curve += 4.0 * gsq * (ab - gsq) / q / r
            value += r
    return slope, curve, value


_EDGE = 2.0**-53  # the slope is read only strictly inside (0, 1)
_NEWTON_STOP = 2.0**-45  # a Newton step this short ends the search
_FLAT = 2.0**-56  # share of the value a search may leave ungained


def _two_radical_max(p: DiscrimParams) -> tuple[float, ...]:
    """Candidate points of the two-radical maximum on [0, 1], for a concave
    profile: the endpoints and the root of the decreasing slope.

    A slope <= 0 at 2^-53 or > 0 at 1 - 2^-53 means a monotone profile, and
    that end's interval [0, 2^-53] or [1 - 2^-53, 1] is returned; the slope
    is never read at 0 or 1, where it can be infinite (at 0 when alpha = 0).
    Otherwise Newton's method runs from 1/2 and keeps a bracket [lo, hi]
    with slope(lo) > 0 >= slope(hi):

    - it stops when a step is at most 2^-45, or when the step's predicted
      gain, slope * step, is below 2^-56 of the value (a profile of small
      curvature knows its root only to slope noise / curvature);
    - a step that leaves the bracket, or comes from a slope derivative that
      is not negative (each gamma_j^2 is 0 or alpha beta), is replaced by
      the bracket's secant point, or its midpoint if the secant point is
      not strictly inside;
    - before that replacement it stops at s if concavity bounds the gain
      left, |slope(s)| (hi - lo), below 2^-56 of the value, as on a profile
      flat to rounding (alpha = beta = |gamma_j|) whose slope's sign is
      noise;
    - a bracket that its midpoint cannot split is returned whole.
    """
    lo, hi = _EDGE, 1.0 - _EDGE
    slope_lo = _two_radical_slope(p, lo)[0]
    if slope_lo <= 0.0:
        return (0.0, 1.0, 0.0, lo)
    slope_hi = _two_radical_slope(p, hi)[0]
    if slope_hi > 0.0:
        return (0.0, 1.0, hi, 1.0)
    s = 0.5
    while True:
        slope, curve, value = _two_radical_slope(p, s)
        if slope > 0.0:
            lo, slope_lo = s, slope
        else:
            hi, slope_hi = s, slope
        nxt = s - slope / curve if curve < 0.0 else math.nan
        step = abs(nxt - s)
        if step <= _NEWTON_STOP or abs(slope) * step <= _FLAT * value:
            return (0.0, 1.0, min(max(nxt, lo), hi))
        if not lo < nxt < hi:
            if abs(slope) * (hi - lo) <= _FLAT * value:
                return (0.0, 1.0, s)
            nxt = lo + (hi - lo) * (slope_lo / (slope_lo - slope_hi))
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:
                    return (0.0, 1.0, lo, hi)
        s = nxt


def max_distance_entangled(p: DiscrimParams) -> DistanceResult:
    """Maximum trace distance with an entangled probe: the best
    :func:`entangled_profile` value over the candidate points of its regime.

    When gamma_M^2 <= alpha beta both 2x2 blocks of the output difference
    have same-sign eigenvalues, the profile is 2|T|, linear in s, and the
    candidates are the endpoints ("linear"); in the middle regime only the
    larger gamma contributes a radical, and the candidates are the
    endpoints and that profile's stationary points ("single-radical");
    otherwise both radicals are live ("two-radical").

    The two-radical profile is concave on [0, 1], so its slope decreases
    and its stationary point is the slope's root, found by Newton's method
    inside a bracket that the slope's sign keeps.  Each radical is sqrt(q_j)
    with q_j = A^2 + 4 u gamma_j^2 = c0 + c1 s + c2 s^2, whose second
    derivative is (4 c0 c2 - c1^2) / (4 q_j^1.5)
    = 4 gamma_j^2 (alpha beta - gamma_j^2) / q_j^1.5 <= 0 in this regime.
    No q_j vanishes inside (0, 1) unless it vanishes identically: a zero
    needs gamma_j = 0 and A(s) = 0 there, and A has an interior zero only
    when alpha beta > 0 = gamma_j^2, outside this regime.
    """
    ab = p.alpha * p.beta
    if p.gamma_M**2 <= ab:
        branch, candidates = "linear", (0.0, 1.0)
    elif p.gamma_m**2 < ab:
        branch, candidates = "single-radical", _single_radical_max(p)
    else:
        branch, candidates = "two-radical", _two_radical_max(p)
    return DistanceResult(*_best(entangled_profile, p, candidates), branch)


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


def classify_moments(c1, c2) -> Classification:
    """Classify a pair given each channel's :func:`channel_moments`.

    A pair of quasi-extreme point maps short-circuits to the T1 verdict
    (side entanglement never helps there), reading no maximum.  The
    shortcut applies only to channels that *are* quasi-extreme point maps,
    not to proper mixtures of quasi-extreme components (those are interior
    channels, e.g. Pauli channels, where entanglement can help).
    """
    (m1, point1), (m2, point2) = c1, c2
    p = _params(m1, m2)
    if point1 and point2:
        return Classification(False, "T1", False, p)
    return classify(p)


def classify_pair(c1, c2) -> Classification:
    """Classify a channel pair; the verdict carries the pair's ``params``.
    See :func:`classify_moments` for the T1 shortcut."""
    return classify_moments(_channel_moments(c1), _channel_moments(c2))
