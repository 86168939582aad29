import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from entdisc import channels, checks, discrim
from entdisc.channels import ExtremalChannel, QubitChannel
from entdisc.discrim import DiscrimParams

DENSE_POINTS = 10001
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def random_params(rng) -> DiscrimParams:
    a, b, g1, g2 = rng.uniform(-1, 1, 4)
    return DiscrimParams(a, b, g1, g2)


def dense_max(fn, p: DiscrimParams) -> float:
    """Reference maximum of s -> fn(p, s) on [0, 1]: a uniform 10^4-point
    grid, then golden-section refinement of the best bracket to 1e-12."""
    step = 1.0 / (DENSE_POINTS - 1)
    best_v, best_i = -math.inf, 0
    for i in range(DENSE_POINTS):
        v = fn(p, i * step)
        if v > best_v:
            best_v, best_i = v, i
    lo = max(0.0, (best_i - 1) * step)
    hi = min(1.0, (best_i + 1) * step)
    return max(best_v, golden_section(fn, p, lo, hi))


def concave_max(fn, p: DiscrimParams) -> float:
    """Reference maximum of a concave s -> fn(p, s) on [0, 1]: golden-section
    refinement of all of [0, 1] to 1e-12, and the endpoints."""
    return max(fn(p, 0.0), fn(p, 1.0), golden_section(fn, p, 0.0, 1.0))


def golden_section(fn, p: DiscrimParams, lo: float, hi: float) -> float:
    """fn at the middle of [lo, hi] after golden-section narrowing to 1e-12."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = fn(p, x1), fn(p, x2)
    while hi - lo > 1e-12:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = fn(p, x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = fn(p, x1)
    return fn(p, 0.5 * (lo + hi))


def two_radical(p: DiscrimParams) -> bool:
    ab = p.alpha * p.beta
    return p.gamma_M**2 > ab and p.gamma_m**2 >= ab


def two_radical_reference(p: DiscrimParams, mp):
    """The two-radical maximum in mpmath: the best profile value over 0, 1
    and the slope's root, bisected to 2^-160 on the slope's exact sign.

    A float is an integer over a power of two, so alpha, beta and the
    gammas are integers a, b, g_j over one denominator d.  At s = m / n the
    slope sum_j h_j / sqrt(q_j) is sum_j H_j / (d sqrt(Q_j)) with integers
    H_j = (2n - 4m) g_j^2 - (a + b) A and Q_j = A^2 + 4 m (n - m) g_j^2,
    where A = a n - m (a + b), so its sign is decided without rounding.
    """
    fractions = [Fraction(x) for x in (p.alpha, p.beta, p.gamma1, p.gamma2)]
    d = max(f.denominator for f in fractions)
    a, b, g1, g2 = (int(f * d) for f in fractions)
    n = 2**160

    def rises(m: int) -> bool:
        big_a = a * n - m * (a + b)
        up, down = [], []
        for g in (g1, g2):
            q = big_a * big_a + 4 * m * (n - m) * g * g
            h = (2 * n - 4 * m) * g * g - (a + b) * big_a
            if q > 0 and h != 0:
                (up if h > 0 else down).append((h, q))
        if not up or not down:
            return bool(up)
        (hu, qu), (hd, qd) = up[0], down[0]
        return hu * hu * qd > hd * hd * qu

    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rises(mid):
            lo = mid
        else:
            hi = mid

    alpha, beta = mp.mpf(p.alpha), mp.mpf(p.beta)
    squares = [mp.mpf(g) ** 2 for g in (p.gamma1, p.gamma2)]

    def profile(s):
        t = abs((1 - s) * alpha + s * beta)
        a_form = (1 - s) * alpha - s * beta
        return sum(max(t, mp.sqrt(a_form**2 + 4 * s * (1 - s) * gsq)) for gsq in squares)

    return max(profile(mp.zero), profile(mp.one), profile(mp.mpf(lo) / n))


def channel_draws(rng) -> list:
    """Seeded extremal, mixture and quasi-extreme channel draws, in turn."""
    return [
        lambda: QubitChannel.extremal(*(float(x) for x in rng.uniform(0, math.pi, 2))),
        lambda: checks.sample_mixture(rng),
        lambda: checks.sample_quasi_extreme(rng),
    ]


def as_params(item) -> DiscrimParams:
    """``item`` itself, or the parameters of a pair of channel literals."""
    if isinstance(item, DiscrimParams):
        return item
    return discrim.compute_params(*(channels.parse_channel(t) for t in item))


EDGE_VALUES = (0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e-8, -1e-8) + tuple(
    sign * x for x in (0.3, 0.5, 1.0, 2.0) for sign in (1.0, -1.0)
)


class TestComputeParams:
    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, bad):
        values = [0.0, 0.0, 0.0, 0.0]
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            DiscrimParams(*values)

    def test_full_damping_vs_identity(self):
        p = discrim.compute_params(
            QubitChannel.extremal(math.pi / 2, 0), QubitChannel.extremal(0, 0)
        )
        assert p.alpha == pytest.approx(0.0, abs=1e-15)
        assert p.beta == pytest.approx(-1.0, abs=1e-15)
        assert p.gamma1 == pytest.approx(-1.0, abs=1e-15)
        assert p.gamma2 == pytest.approx(0.0, abs=1e-15)
        assert p.gamma_m == p.gamma2
        assert p.gamma_M == p.gamma1
        assert p.P == p.beta

    def test_identical_channels(self):
        c = QubitChannel.extremal(0.8, 0.3)
        p = discrim.compute_params(c, c)
        assert (p.alpha, p.beta, p.gamma1, p.gamma2) == (0.0, 0.0, 0.0, 0.0)

    def test_two_damping_channels(self):
        p = discrim.compute_params(
            QubitChannel.extremal(math.pi / 3, 0), QubitChannel.extremal(math.pi / 6, 0)
        )
        assert p.alpha == pytest.approx(0.0, abs=1e-15)
        assert p.beta == pytest.approx(-0.5, abs=1e-15)
        assert p.gamma1 == pytest.approx((1 - math.sqrt(3)) / 2, abs=1e-15)
        assert p.gamma2 == pytest.approx(0.0, abs=1e-15)

    def test_accepts_bare_extremal(self):
        p = discrim.compute_params(
            ExtremalChannel(math.pi / 2, 0), ExtremalChannel(0, 0)
        )
        assert p.beta == pytest.approx(-1.0)

    def test_bit_identical_to_per_moment_formulas(self):
        # compute_params as it was written before its single trig pass:
        # one lambda per moment, each evaluating its own cos and sin
        moments = (
            lambda e: math.cos(e.theta) ** 2,
            lambda e: math.cos(e.phi) ** 2,
            lambda e: math.cos(e.phi) * math.cos(e.theta),
            lambda e: math.sin(e.phi) * math.sin(e.theta),
        )

        def reference(c1, c2):
            c1, c2 = (
                QubitChannel(1.0, c, c) if isinstance(c, ExtremalChannel) else c
                for c in (c1, c2)
            )
            return tuple(
                (c1.lam * f(c1.first) + (1.0 - c1.lam) * f(c1.second))
                - (c2.lam * f(c2.first) + (1.0 - c2.lam) * f(c2.second))
                for f in moments
            )

        rng = np.random.default_rng(53)

        def extremal():
            return ExtremalChannel(*(float(x) for x in rng.uniform(0, math.pi, 2)))

        def equal_halves():
            e = extremal()
            return QubitChannel(float(rng.uniform()), e, ExtremalChannel(e.phi, e.theta))

        draws = [
            lambda: QubitChannel.extremal(*(float(x) for x in rng.uniform(0, math.pi, 2))),
            lambda: checks.sample_mixture(rng),
            extremal,
            lambda: QubitChannel(float(rng.integers(2)), extremal(), extremal()),
            equal_halves,
        ]
        for k in range(10000):
            c1, c2 = draws[k % 5](), draws[(k // 5) % 5]()
            p = discrim.compute_params(c1, c2)
            assert (p.alpha, p.beta, p.gamma1, p.gamma2) == reference(c1, c2)

    def test_tie_selections(self):
        p = DiscrimParams(0.5, -0.5, 0.3, -0.3)
        assert p.gamma_m == 0.3 and p.gamma_M == 0.3  # gamma1 wins ties
        assert p.P == 0.5  # alpha wins ties
        assert {p.gamma_m, p.gamma_M} <= {p.gamma1, p.gamma2}


class TestProfiles:
    def test_g_endpoints(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = random_params(rng)
            assert discrim.g_single(p, 0.0) == pytest.approx(2 * abs(p.alpha))
            assert discrim.g_single(p, 1.0) == pytest.approx(2 * abs(p.beta))

    def test_g_midpoint_example(self):
        p = DiscrimParams(0.0, -1.0, -1.0, 0.0)
        assert discrim.g_single(p, 0.5) == pytest.approx(math.sqrt(2.0))

    def test_f_endpoint(self):
        p = DiscrimParams(0.0, -1.0, -1.0, 0.0)
        assert discrim.f_entangled(p, 0.0) == pytest.approx(0.0)
        assert discrim.f_entangled(p, 1.0) == pytest.approx(2.0)

    def test_f_equals_g_for_equal_gamma_magnitudes(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a, b, g = rng.uniform(-1, 1, 3)
            p = DiscrimParams(a, b, g, -g if rng.integers(2) else g)
            for s in np.linspace(0, 1, 101):
                assert abs(
                    discrim.f_entangled(p, s) - discrim.g_single(p, s)
                ) < 1e-12

    def test_f_bounded_by_gamma_M_profile(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            p = random_params(rng)
            s = float(rng.uniform(0, 1))
            a_form = (1 - s) * p.alpha - s * p.beta
            bound = 2 * math.sqrt(a_form**2 + 4 * s * (1 - s) * p.gamma_M**2)
            assert discrim.f_entangled(p, s) <= bound + 1e-12

    def test_G_endpoints_and_collapse(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            p = random_params(rng)
            assert discrim.entangled_profile(p, 0.0) == 2 * abs(p.alpha)
            assert discrim.entangled_profile(p, 1.0) == 2 * abs(p.beta)
        # gamma_M^2 == alpha*beta collapses the radical
        p = DiscrimParams(0.8, 0.45, 0.6, 0.1)
        for s in np.linspace(0, 1, 21):
            t_form = (1 - s) * p.alpha + s * p.beta
            assert discrim.entangled_profile(p, s) == pytest.approx(
                2 * abs(t_form), abs=1e-12
            )

    def test_kernels_are_the_documented_formulas(self):
        # bit for bit, at the endpoints and at points of a 1/10000 grid; E
        # also equals its regime's own formula within 2 ulp: 2|T| (linear),
        # |T| + sqrt(T^2 + 4u (gM^2 - ab)) (single-radical), f (two-radical)
        rng = np.random.default_rng(36)
        step = 1.0 / 10000
        regimes = set()
        for k in range(75):
            if k % 3 == 0:
                c1, c2 = (
                    QubitChannel.extremal(*rng.uniform(0, math.pi, 2))
                    for _ in range(2)
                )
                p = discrim.compute_params(c1, c2)
            elif k % 3 == 1:
                c1, c2 = (
                    QubitChannel(
                        float(rng.uniform()),
                        ExtremalChannel(*rng.uniform(0, math.pi, 2)),
                        ExtremalChannel(*rng.uniform(0, math.pi, 2)),
                    )
                    for _ in range(2)
                )
                p = discrim.compute_params(c1, c2)
            else:
                p = random_params(rng)
            a, b, g1, g2 = p.alpha, p.beta, p.gamma1, p.gamma2
            gM, gm = max(g1, g2, key=abs), min(g1, g2, key=abs)
            idx = rng.choice(10001, 200, replace=False)
            for s in [0.0, 1.0] + [int(i) * step for i in idx]:
                A = (1 - s) * a - s * b
                T = (1 - s) * a + s * b
                u = s * (1 - s)
                E = sum(max(abs(T), math.sqrt(A**2 + 4 * u * g**2)) for g in (g1, g2))
                f = sum(math.sqrt(A**2 + 4 * u * g**2) for g in (g1, g2))
                assert discrim.entangled_profile(p, s) == E
                assert discrim.f_entangled(p, s) == f
                if gM**2 <= a * b:
                    regimes.add("linear")
                    own = 2 * abs(T)
                elif gm**2 < a * b:
                    regimes.add("single-radical")
                    own = abs(T) + math.sqrt(T**2 + 4 * u * (gM**2 - a * b))
                else:
                    regimes.add("two-radical")
                    own = discrim.f_entangled(p, s)
                assert abs(E - own) <= 2 * math.ulp(own)
        assert len(regimes) == 3

    def test_range_validation(self):
        p = DiscrimParams(0.1, 0.2, 0.3, 0.4)
        for fn in (discrim.g_single, discrim.f_entangled, discrim.entangled_profile):
            with pytest.raises(ValueError):
                fn(p, -0.01)
            with pytest.raises(ValueError):
                fn(p, 1.01)

    def test_algebraic_identity(self):
        rng = np.random.default_rng(35)
        for _ in range(1000):
            a, b = rng.uniform(-2, 2, 2)
            s = float(rng.uniform(0, 1))
            lhs = ((1 - s) * a + s * b) ** 2 - 4 * s * (1 - s) * a * b
            rhs = ((1 - s) * a - s * b) ** 2
            assert abs(lhs - rhs) < 1e-12


class TestMaxDistanceSingle:
    def test_endpoint_branch(self):
        r = discrim.max_distance_single(DiscrimParams(0.0, -1.0, -1.0, 0.0))
        assert r.value == pytest.approx(2.0)
        assert r.arg == 1.0
        assert r.branch == "endpoint"

    def test_interior_branch_equal_alpha_beta(self):
        r = discrim.max_distance_single(DiscrimParams(0.1, 0.1, 0.5, 0.3))
        assert r.value == pytest.approx(0.8)
        assert r.arg == pytest.approx(0.5)
        assert r.branch == "interior"

    def test_damping_pair(self):
        p = discrim.compute_params(
            QubitChannel.extremal(math.pi / 3, 0), QubitChannel.extremal(math.pi / 6, 0)
        )
        assert discrim.max_distance_single(p).value == pytest.approx(1.0)

    def test_stationary_point_outside_unit_interval_uses_endpoint(self):
        # |alpha+beta| < |g1|+|g2| but the vertex sits left of s=0, so the
        # best probe is the endpoint one; the interior formula would
        # overstate the maximum by ~1.9e-3 here.
        a = math.cos(0.6) ** 2 - math.cos(math.pi / 2 + 0.1) ** 2
        g = math.cos(0.6) - math.cos(math.pi / 2 + 0.1)
        p = DiscrimParams(a, 0.0, g, 0.0)
        r = discrim.max_distance_single(p)
        assert r.branch == "endpoint"
        assert r.value == pytest.approx(2 * a, abs=1e-14)
        assert r.value == pytest.approx(1.3424243323179152, abs=1e-12)

    def test_matches_scan_of_profile(self):
        rng = np.random.default_rng(36)
        for _ in range(300):
            p = random_params(rng)
            closed = discrim.max_distance_single(p).value
            grid = max(discrim.g_single(p, s) for s in np.linspace(0, 1, 4001))
            assert closed >= grid - 1e-9
            assert closed <= grid + 1e-5

    # Pairs on which a quotient closed form for the maximum reported more
    # than the entangled maximum: quasi-extreme pairs with alpha = beta and
    # |alpha + beta| = |g1| + |g2| up to rounding, where both of its radicals
    # are rounding residues, and a pair whose rounded vertex fell at 1.25.
    @pytest.mark.parametrize(
        "pair",
        [
            ("extremal(2.08018903245475,1.061403621135043)",
             "extremal(0.4271619053718463,2.714430748217947)"),
            ("extremal(1.3116731288928696,1.8299195246969235)",
             "extremal(2.409854764542708,0.7317378890470853)"),
            ("extremal(2.13056136699564,2.13056136699564)",
             "extremal(2.3878926471187882,2.3878926471187882)"),
            ("extremal(1.5694388879891892,1.5694388879891892)",
             "extremal(2.858656384456965,0.2829362691328284)"),
            ("extremal(1.8384479292579352,1.3031447243318579)",
             "extremal(0.92803693049420088,2.2135557230955922)"),
        ],
    )
    def test_degenerate_pair_stays_below_entangled(self, pair):
        p = discrim.compute_params(*(channels.parse_channel(text) for text in pair))
        single = discrim.max_distance_single(p)
        ent = discrim.max_distance_entangled(p)
        assert single.value <= ent.value + 1e-12
        assert 0.0 <= single.arg <= 1.0
        assert 0.0 <= ent.arg <= 1.0

    def test_matches_50_digit_reference(self):
        # the best of g at 0, at 1 and at the exact vertex, in 50 digits
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50

        def reference(p):
            a, b, g1, g2 = (mp.mpf(x) for x in (p.alpha, p.beta, p.gamma1, p.gamma2))
            gsum, apb = abs(g1) + abs(g2), a + b

            def g(s):
                return 2 * mp.sqrt((a - s * apb) ** 2 + s * (1 - s) * gsum**2)

            points = [mp.zero, mp.one]
            if apb**2 < gsum**2:
                vertex = (2 * a * apb - gsum**2) / (2 * apb**2 - 2 * gsum**2)
                if 0 < vertex < 1:
                    points.append(vertex)
            return max(g(s) for s in points)

        rng = np.random.default_rng(50)

        def literal():
            phi, theta = (float(x) for x in rng.uniform(0, math.pi, 2))
            lam = float(rng.uniform())
            return channels.parse_channel(
                [
                    "identity",
                    f"ad({phi!r})",
                    f"extremal({phi!r},{theta!r})",
                    f"pauli({lam!r},{phi!r},{theta!r})",
                    f"mix({lam!r};{phi!r},{theta!r};{theta!r},{phi!r})",
                ][rng.integers(5)]
            )

        draws = [
            literal,
            lambda: checks.sample_mixture(rng),
            lambda: checks.sample_quasi_extreme(rng),
        ]
        worst = 0.0
        for k in range(3000):
            draw = draws[k % 3]
            p = discrim.compute_params(draw(), draw())
            value = discrim.max_distance_single(p).value
            worst = max(worst, abs(float(mp.mpf(value) - reference(p))))
        assert worst <= 2e-15


class TestMaxDistanceEntangled:
    def test_equal_gammas_match_single(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            a, b, g = rng.uniform(-1, 1, 3)
            p = DiscrimParams(a, b, g, g)
            single = discrim.max_distance_single(p).value
            ent = discrim.max_distance_entangled(p).value
            assert ent == pytest.approx(single, abs=1e-9)

    def test_orthogonalizing_pair(self):
        r = discrim.max_distance_entangled(DiscrimParams(0.0, -1.0, -1.0, 0.0))
        assert r.value == pytest.approx(2.0, abs=1e-9)
        assert r.arg == pytest.approx(1.0, abs=1e-6)
        assert r.branch == "two-radical"

    def test_linear_branch(self):
        # gamma_M^2 <= alpha*beta: both blocks degenerate, profile 2|T|
        r = discrim.max_distance_entangled(DiscrimParams(0.8, 0.5, 0.6, 0.3))
        assert r.value == pytest.approx(1.6)
        assert r.arg == 0.0
        assert r.branch == "linear"

    def test_single_radical_branch_matches_stilde(self):
        rng = np.random.default_rng(38)
        found = 0
        while found < 100:
            p = random_params(rng)
            ab = p.alpha * p.beta
            if not (p.gamma_m**2 < ab < p.gamma_M**2):
                continue
            if abs(p.gamma_M * (p.alpha + p.beta)) < 1e-6:
                continue
            found += 1
            r = discrim.max_distance_entangled(p)
            assert r.branch == "single-radical"
            # the paper's stationary point s~, the root on the sign branch
            # of gamma_M (alpha + beta), clamped to [0, 1]
            gM, a, apb = p.gamma_M, p.alpha, p.alpha + p.beta
            sign = 1.0 if gM * apb > 0.0 else -1.0
            st = min(max((gM - sign * a) / (2.0 * gM - sign * apb), 0.0), 1.0)
            # the clamped stationary point is the argmax whenever it is
            # interior, and otherwise an endpoint is
            if 0.0 < st < 1.0:
                assert r.arg == pytest.approx(st, abs=1e-12)
            assert r.value >= discrim.entangled_profile(p, st) - 1e-15

    def test_single_radical_closed_form_matches_scan(self):
        # a dense scan of the profile is the reference; quasi-extreme pairs
        # put alpha = beta within rounding, where the stationary point is a
        # double root
        rng = np.random.default_rng(44)
        draws = [
            lambda: (
                QubitChannel.extremal(*rng.uniform(0, math.pi, 2)),
                checks.sample_mixture(rng),
            ),
            lambda: (checks.sample_mixture(rng), checks.sample_mixture(rng)),
            lambda: (
                checks.sample_quasi_extreme(rng),
                checks.sample_quasi_extreme(rng),
            ),
        ]
        for draw in draws:
            found = 0
            while found < 25:
                p = discrim.compute_params(*draw())
                if not p.gamma_m**2 < p.alpha * p.beta < p.gamma_M**2:
                    continue
                found += 1
                r = discrim.max_distance_entangled(p)
                assert r.branch == "single-radical"
                assert abs(r.value - dense_max(discrim.entangled_profile, p)) <= 1e-15
                assert r.value == discrim.entangled_profile(p, r.arg)

    def test_single_radical_double_root(self):
        # alpha = beta within rounding (a classify pair of the benchmark's
        # cli-requests stream): the optimum is the double root s = 1/2,
        # which a quadratic-formula solve loses to a negative discriminant
        p = discrim.compute_params(
            QubitChannel.extremal(0.3420059729065053, 0.3420059729065053),
            QubitChannel.extremal(2.3003768824310766, 0.8412157711587163),
        )
        r = discrim.max_distance_entangled(p)
        assert r.branch == "single-radical"
        assert r.arg == pytest.approx(0.5, abs=1e-12)
        assert abs(r.value - dense_max(discrim.entangled_profile, p)) <= 1e-15
        assert r.value >= discrim.max_distance_single(p).value

    def assert_two_radical_maximum(self, p):
        r = discrim.max_distance_entangled(p)
        assert r.branch == "two-radical"
        assert r.value == discrim.entangled_profile(p, r.arg)
        assert abs(r.value - dense_max(discrim.entangled_profile, p)) <= 1e-15
        assert r.value >= discrim.max_distance_single(p).value - 1e-12

    @pytest.mark.parametrize(
        "pair",
        [
            # alpha = 0 and gamma2 = 0: the slope is infinite at s = 0
            ("identity", "ad(3.1114479478770947)"),
            ("ad(3.1413396748067317)", "identity"),
            # alpha = beta = |gamma_m|: the stationary point is a double
            # root of the squared stationarity condition
            (
                "extremal(3.057121351229078,0.08447130236071514)",
                "extremal(3.0825800696421006,3.0825800696421006)",
            ),
        ],
    )
    def test_two_radical_directed_pairs(self, pair):
        # classify pairs of the benchmark's cli-requests stream, where the
        # squared stationarity condition q1'^2 q2 = q2'^2 q1 has a double root
        c1, c2 = (channels.parse_channel(text) for text in pair)
        self.assert_two_radical_maximum(discrim.compute_params(c1, c2))

    def test_two_radical_equal_gamma_magnitudes(self):
        self.assert_two_radical_maximum(DiscrimParams(0.1, 0.1, 0.5, -0.5))

    def test_two_radical_matches_dense_reference(self):
        rng = np.random.default_rng(49)
        draws = [
            lambda: tuple(
                QubitChannel.extremal(*rng.uniform(0, math.pi, 2)) for _ in range(2)
            ),
            lambda: (checks.sample_mixture(rng), checks.sample_mixture(rng)),
            lambda: (
                checks.sample_quasi_extreme(rng),
                checks.sample_quasi_extreme(rng),
            ),
        ]
        for draw in draws:
            found = 0
            while found < 25:
                p = discrim.compute_params(*draw())
                if p.gamma_M**2 <= p.alpha * p.beta or p.gamma_m**2 < p.alpha * p.beta:
                    continue
                found += 1
                self.assert_two_radical_maximum(p)

    TWO_RADICAL_DIRECTED = [
        # endpoint maxima
        DiscrimParams(0.0, -1.0, -1.0, 0.0),
        DiscrimParams(-1.0, 0.0, 0.0, -1.0),
        ("ad(3.1413396748067317)", "identity"),
        # alpha = 0: the slope is infinite at s = 0
        ("identity", "ad(3.1114479478770947)"),
        DiscrimParams(0.0, 0.3, 1e-8, 0.3),
        DiscrimParams(1e-8, -0.5, 0.0, 0.5),
        # the double root alpha = beta = |gamma_m|
        (
            "extremal(3.057121351229078,0.08447130236071514)",
            "extremal(3.0825800696421006,3.0825800696421006)",
        ),
        DiscrimParams(0.3, 0.3, 0.3, -0.8),
        # alpha = beta = |gamma_j| up to rounding: flat, the slope's sign is noise
        DiscrimParams(
            0.2825546478975348, 0.2825546478975346,
            -0.2825546478975347, -0.28255464789753476,
        ),
        # gamma1 = gamma2 = 0 with alpha beta < 0: the slope's derivative is 0
        DiscrimParams(0.5, -0.3, 0.0, 0.0),
        DiscrimParams(0.4, -0.4, 0.0, 0.0),
    ]

    def test_two_radical_matches_50_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        draws = channel_draws(np.random.default_rng(54))
        pairs = [as_params(item) for item in self.TWO_RADICAL_DIRECTED]
        k = 0
        while len(pairs) < 2000 + len(self.TWO_RADICAL_DIRECTED):
            draw = draws[k % 3]
            k += 1
            p = discrim.compute_params(draw(), draw())
            if two_radical(p):
                pairs.append(p)
        worst = 0.0
        for p in pairs:
            assert two_radical(p)
            value = discrim.max_distance_entangled(p).value
            worst = max(worst, abs(float(mp.mpf(value) - two_radical_reference(p, mp))))
        assert worst <= 4.4e-16

    def test_two_radical_maximum_reads_few_slopes(self, monkeypatch):
        # each read is one evaluation of both radicals' slopes; a bisection
        # to 2^-53 makes 53
        slope = discrim._two_radical_slope
        reads = [0]

        def counting(p, s):
            reads[0] += 1
            return slope(p, s)

        monkeypatch.setattr(discrim, "_two_radical_slope", counting)
        draws = channel_draws(np.random.default_rng(55))
        counts = {"falls": [], "rises": [], "interior": []}
        for k in range(6000):
            draw = draws[k % 3]
            p = discrim.compute_params(draw(), draw())
            if not two_radical(p):
                continue
            reads[0] = 0
            discrim._two_radical_max(p)
            if slope(p, 2.0**-53)[0] <= 0.0:
                counts["falls"].append(reads[0])
            elif slope(p, 1.0 - 2.0**-53)[0] > 0.0:
                counts["rises"].append(reads[0])
            else:
                counts["interior"].append(reads[0])
        assert all(len(c) > 100 for c in counts.values())
        # a monotone profile reads the slope at 2^-53, then at 1 - 2^-53
        assert set(counts["falls"]) == {1}
        assert set(counts["rises"]) == {2}
        assert max(counts["interior"]) <= 8
        directed = [
            # a quasi-extreme pair of small curvature, whose root is known
            # only to slope noise / curvature: 3 reads, 10 without the
            # predicted-gain stop
            ("extremal(0.70057612063200869,2.4410165329577844)",
             "extremal(1.5899104178697403,1.5899104178697403)"),
            # roots near an end, where Newton steps overshoot the bracket:
            # 6 and 7 reads, 10 and 31 with midpoints in place of secants
            ("extremal(1.6314014609917142,3.1398368144479747)",
             "extremal(1.5811813878597754,1.6706546129718898)"),
            DiscrimParams(0.0, 0.5, 1e-8, 0.5),
        ]
        for item in directed:
            reads[0] = 0
            discrim._two_radical_max(as_params(item))
            assert reads[0] <= 8

    def test_two_radical_edge_grid(self):
        # every two-radical tuple over zeros, signed zeros, subnormals, tiny
        # and unit-scale values; the maximum depends on alpha, beta and the
        # gamma squares, so each distinct profile gets one reference
        references = {}
        seen = 0
        for values in itertools.product(EDGE_VALUES, repeat=4):
            p = DiscrimParams(*values)
            if not two_radical(p):
                continue
            seen += 1
            r = discrim.max_distance_entangled(p)
            assert math.isfinite(r.value)
            assert 0.0 <= r.arg <= 1.0
            assert r.value == discrim.entangled_profile(p, r.arg)
            key = (p.alpha, p.beta, p.gamma1**2, p.gamma2**2)
            if key not in references:
                references[key] = (p, concave_max(discrim.entangled_profile, p))
            # golden-section points round worse than s = 1/2 or a root, so
            # this reference bounds the maximum from below only
            assert r.value >= references[key][1] - 1e-15
        assert seen == 36274
        # the dense grid on a seeded sample of the distinct profiles
        rng = np.random.default_rng(56)
        keys = list(references)
        for i in rng.choice(len(keys), 40, replace=False):
            p, _ = references[keys[i]]
            value = discrim.max_distance_entangled(p).value
            assert abs(value - dense_max(discrim.entangled_profile, p)) <= 1e-15

    @pytest.mark.parametrize(
        "params, branch",
        [
            ((0.0, -1.0, -1.0, 0.0), "two-radical"),
            ((0.5, 0.4, 0.9, 0.1), "single-radical"),
            ((0.8, 0.5, 0.6, 0.3), "linear"),
        ],
    )
    def test_max_evaluates_the_public_profile_by_name(
        self, monkeypatch, params, branch
    ):
        # a tracer counts profile evaluations by replacing these names
        calls = {"entangled_profile": 0, "f_entangled": 0}

        def counting(name, fn):
            def wrapper(p, s):
                calls[name] += 1
                return fn(p, s)

            return wrapper

        for name in calls:
            monkeypatch.setattr(discrim, name, counting(name, getattr(discrim, name)))
        r = discrim.max_distance_entangled(DiscrimParams(*params))
        assert r.branch == branch
        # the endpoints and the stationary point (two-radical: the Newton
        # point, or the ends of the width-2^-53 interval at a monotone
        # profile's higher end; single-radical: the sign branches)
        assert 0 < calls["entangled_profile"] <= 4
        assert calls["f_entangled"] == 0

    def test_never_below_single(self):
        rng = np.random.default_rng(39)
        for _ in range(400):
            p = random_params(rng)
            single = discrim.max_distance_single(p).value
            ent = discrim.max_distance_entangled(p).value
            assert ent >= single - 1e-9


class TestSuccessProbability:
    def test_values(self):
        assert discrim.success_probability(0.0) == 0.5
        assert discrim.success_probability(2.0) == 1.0
        assert discrim.success_probability(1.0) == 0.75

    def test_range_check(self):
        with pytest.raises(ValueError):
            discrim.success_probability(-0.1)
        with pytest.raises(ValueError):
            discrim.success_probability(2.1)


class TestClassify:
    def test_quasi_extreme_pair_short_circuits(self):
        c1 = QubitChannel.extremal(0.7, 0.7)
        c2 = QubitChannel.extremal(2.0, math.pi - 2.0)
        cls = discrim.classify_pair(c1, c2)
        assert not cls.useful
        assert cls.node == "T1"

    def test_pauli_mixture_not_short_circuited(self):
        c1 = QubitChannel(
            0.4, ExtremalChannel(0.5, 0.5), ExtremalChannel(1.0, math.pi - 1.0)
        )
        c2 = QubitChannel.extremal(0.7, 0.7)
        assert discrim.classify_pair(c1, c2).node != "T1"

    @pytest.mark.parametrize(
        "c1, t1",
        [
            # equal (not identical) quasi-extreme components: extremal at any lam
            (QubitChannel(0.4, ExtremalChannel(0.8, 0.8), ExtremalChannel(0.8, 0.8)), True),
            (QubitChannel(0.0, ExtremalChannel(0.3, 2.0), ExtremalChannel(1.1, 1.1)), True),
            (QubitChannel(1.0, ExtremalChannel(1.1, 1.1), ExtremalChannel(0.3, 2.0)), True),
            (ExtremalChannel(2.0, math.pi - 2.0), True),
            # the point map is the component that is not quasi-extreme
            (QubitChannel(0.0, ExtremalChannel(1.1, 1.1), ExtremalChannel(0.3, 2.0)), False),
            (QubitChannel(1.0, ExtremalChannel(0.3, 2.0), ExtremalChannel(1.1, 1.1)), False),
            # a proper mixture of two quasi-extreme components
            (QubitChannel(0.5, ExtremalChannel(1.1, 1.1), ExtremalChannel(0.6, 0.6)), False),
        ],
    )
    def test_point_map_rule(self, c1, t1):
        c2 = QubitChannel.extremal(1.3, 1.3)
        assert (discrim.classify_pair(c1, c2).node == "T1") is t1
        assert (discrim.classify_pair(c2, c1).node == "T1") is t1

    def test_symmetric_middle_regime_useful(self):
        cls = discrim.classify(DiscrimParams(0.25, 0.25, 0.5, 0.1))
        assert cls.useful
        assert cls.node == "T3/B.1"
        assert cls.boundary  # alpha == beta exactly is a boundary set
        assert cls.margins["value_gap"] == pytest.approx(0.15, abs=1e-9)

    def test_root_not_useful(self):
        cls = discrim.classify(DiscrimParams(0.8, 0.5, 0.6, 0.3))
        assert not cls.useful
        assert cls.node == "T3/root"

    def test_equal_gamma_magnitudes_never_useful(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            a, b, g = rng.uniform(-1, 1, 3)
            sign = -1.0 if rng.integers(2) else 1.0
            cls = discrim.classify(DiscrimParams(a, b, g, sign * g))
            assert not cls.useful

    def test_interior_vertex_with_unequal_alpha_beta_useful(self):
        # swapped-role channels: alpha = -beta, unequal gamma magnitudes
        p = DiscrimParams(0.7768, -0.7768, 0.0788, 0.0709)
        cls = discrim.classify(p)
        assert cls.useful
        assert cls.node == "T2/B.3"
        assert cls.margins["t2_fg_at_vertex"] > 0

    def test_endpoint_region_uses_P_test(self):
        # vertex outside [0,1]: usefulness decided by P(a+b) vs g1^2+g2^2
        a = math.cos(0.6) ** 2 - math.cos(math.pi / 2 + 0.1) ** 2
        g = math.cos(0.6) - math.cos(math.pi / 2 + 0.1)
        cls = discrim.classify(DiscrimParams(a, 0.0, g, 0.0))
        assert cls.useful
        assert cls.node == "T2/B.1"

    def test_theorem2_A1_region(self):
        cls = discrim.classify(DiscrimParams(0.9, -0.1, 0.35, 0.2))
        assert cls.node == "T2/A.1"
        assert not cls.useful

    def test_alpha_equals_beta_in_low_regime_never_useful(self):
        # with alpha == beta and alpha*beta <= gamma_m^2, necessarily
        # alpha^2 <= gamma_m^2 < |gamma1 gamma2|, so the split always lands
        # on the not-useful side
        not_useful = discrim.classify(DiscrimParams(0.1, 0.1, 0.5, 0.3))
        assert not not_useful.useful and not_useful.node == "T2/A.4"
        rng = np.random.default_rng(48)
        seen = 0
        for _ in range(20000):
            a, g1, g2 = rng.uniform(-1, 1, 3)
            p = DiscrimParams(a, a, g1, g2)
            if p.gamma_m**2 < a * a or abs(abs(g1) - abs(g2)) <= 1e-9:
                continue
            seen += 1
            cls = discrim.classify(p)
            assert cls.node == "T2/A.4" and not cls.useful
        assert seen > 100

    def test_t3_endpoint_split(self):
        # vertex outside [0,1] (P (a+b) > (|g1|+|g2|)^2 / 2): the single
        # optimum is an endpoint and usefulness is |gamma_M| vs |P|
        strong = discrim.classify(DiscrimParams(0.9, 0.8, 1.2, 0.3))
        assert strong.useful and strong.node == "T3/B.4"
        assert strong.margins["t3_vertex"] < 0
        weak = discrim.classify(DiscrimParams(0.9, 0.35, 0.7, 0.5))
        assert not weak.useful and weak.node == "T3/A.3"

    def test_t3_resonance_is_useful_off_the_degenerate_line(self):
        # engineered resonance: 2 gM (a+b) == (|g1|+|g2|)^2 exactly
        a, b, g2 = 0.62, 0.38, 0.3
        gM = (a + b - g2) + math.sqrt((a + b - g2) ** 2 - g2**2)
        p = DiscrimParams(a, b, gM, g2)
        assert p.gamma_m**2 < a * b < p.gamma_M**2
        cls = discrim.classify(p)
        assert cls.node == "T3/B.3"
        assert cls.useful
        assert abs(cls.margins["t3_resonance"]) <= 1e-9
        gap = (
            discrim.max_distance_entangled(p).value
            - discrim.max_distance_single(p).value
        )
        assert gap > 0.1

    def test_t3_resonance_with_root_matching_gamma_is_still_useful(self):
        # the resonance tuple whose gamma_M solves the off-by-a-factor
        # quadratic still shows a large honest advantage; only
        # gamma_M in {alpha, beta} kills it
        a, b = 0.62, 0.38
        disc = (a * a - 1) * (b * b - 1)
        r1 = (1 + a * b + math.sqrt(disc)) / (a + b)
        g2 = math.sqrt(2 * r1 * (a + b)) - r1
        p = DiscrimParams(a, b, r1, g2)
        assert p.gamma_m**2 < a * b < p.gamma_M**2
        cls = discrim.classify(p)
        assert cls.useful and cls.node == "T3/B.3"
        gap = (
            discrim.max_distance_entangled(p).value
            - discrim.max_distance_single(p).value
        )
        assert gap > 0.4

    def test_boundary_flag_on_exact_ties(self):
        cls = discrim.classify(DiscrimParams(0.0, 0.0, 0.0, 0.0))
        assert not cls.useful
        assert cls.boundary

    def test_verdict_matches_distance_gap_on_interior_samples(self):
        rng = np.random.default_rng(47)
        checked = 0
        for _ in range(4000):
            if checked >= 200:
                break
            p = random_params(rng)
            cls = discrim.classify(p)
            if cls.margins and min(abs(v) for v in cls.margins.values()) < 1e-3:
                continue
            checked += 1
            gap = (
                discrim.max_distance_entangled(p).value
                - discrim.max_distance_single(p).value
            )
            assert cls.useful == (gap > 1e-6)
        assert checked >= 100


class TestSplitLeaves:
    """Directed inputs for the leaves that random samples miss.

    T3/A.1 and T3/A.2 lie only within EPS_BOUNDARY of a split (the exact
    sets are empty), so their inputs are built on it; T2/A.2 is also built
    on the split it shares with T2/B.1, and T2/A.4 within EPS_BOUNDARY of
    alpha == beta.  A useful leaf must show a clear closed-form gap, a leaf
    that is not useful none.
    """

    def assert_useful(self, p, node):
        cls = discrim.classify(p)
        assert cls.node == node and cls.useful
        assert cls.params is p
        assert cls.margins["value_gap"] == p.entangled.value - p.single.value
        assert cls.margins["value_gap"] > 1e-6
        return cls

    def assert_not_useful(self, p, node):
        cls = discrim.classify(p)
        assert cls.node == node and not cls.useful
        assert "value_gap" not in cls.margins
        assert p.entangled.value - p.single.value <= 1e-9
        return cls

    def test_t2_a2_on_the_P_test_split(self):
        # P (a+b) == g1^2 + g2^2: the strict test sends the split to A.2
        a, b, g1 = 0.1, -0.95, 0.5
        p = DiscrimParams(a, b, g1, math.sqrt(b * (a + b) - g1**2))
        cls = self.assert_not_useful(p, "T2/A.2")
        assert abs(cls.margins["t2_P_test"]) <= 1e-15
        assert cls.boundary

    def test_t2_a2_off_the_split(self):
        cls = self.assert_not_useful(DiscrimParams(0.1, -0.95, 0.5, 0.08), "T2/A.2")
        assert cls.margins["t2_P_test"] > 0.5

    def test_t3_b2_off_resonance(self):
        cls = self.assert_useful(DiscrimParams(-0.38, -0.15, 0.66, -0.18), "T3/B.2")
        assert abs(cls.margins["t3_resonance"]) > 1.0

    def test_t3_a1_alpha_within_eps_of_beta(self):
        # alpha == beta sends the middle regime to T3/B.1 when |alpha|
        # exceeds |gamma_m| by more than EPS_BOUNDARY; A.1 takes the rest
        a = 0.3
        cls = self.assert_not_useful(DiscrimParams(a, a + 0.9e-9, 0.8, a), "T3/A.1")
        assert cls.boundary

    def test_t3_a2_resonance_with_gamma_M_within_eps_of_alpha(self):
        # On resonance with gamma_M == alpha the middle regime is empty
        # (gamma_m^2 - alpha beta = alpha^2 x^2 / 8 for beta = alpha (1 - x))
        # and the vertex margin is zero, so A.2 needs gamma_M a little above
        # alpha and gamma_m a little below sqrt(alpha beta).
        a, x = 0.5, 1e-5
        b = a * (1.0 - x)
        p = DiscrimParams(a, b, a + 0.5e-9, math.sqrt(a * b) - 1e-11)
        assert p.gamma_m**2 < a * b < p.gamma_M**2
        cls = self.assert_not_useful(p, "T3/A.2")
        assert abs(cls.margins["t3_resonance"]) <= 1e-9
        assert cls.margins["t3_vertex"] > 0.0

    @staticmethod
    def t2_b2_params():
        # |alpha - beta| <= 1e-9 with ||g1| - |g2|| > 1e-9 and
        # alpha^2 > |g1 g2| >= alpha beta, which fits only at small scale:
        # there alpha^2 - |g1 g2| <= alpha (alpha - beta) is below
        # EPS_BOUNDARY, so the low regime has no useful leaf at alpha == beta
        a = 1e-4
        b = a - 0.999999e-9
        gm = math.sqrt(a * b) * (1.0 + 1e-15)
        gM = a * a / gm * (1.0 - 1e-15)
        return DiscrimParams(a, b, gM, gm)

    def test_t2_b2_within_eps_of_alpha_eq_beta(self):
        p = self.t2_b2_params()
        assert p.alpha**2 > abs(p.gamma1 * p.gamma2) >= p.alpha * p.beta
        cls = self.assert_not_useful(p, "T2/A.4")
        assert cls.boundary
