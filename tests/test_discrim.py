import math

import numpy as np
import pytest

from entdisc import discrim
from entdisc.channels import ExtremalChannel, QubitChannel
from entdisc.discrim import DiscrimParams


def random_params(rng) -> DiscrimParams:
    a, b, g1, g2 = rng.uniform(-1, 1, 4)
    return DiscrimParams(a, b, g1, g2)


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
            assert discrim.G_mixed(p, 0.0) == pytest.approx(2 * abs(p.alpha))
            assert discrim.G_mixed(p, 1.0) == pytest.approx(2 * abs(p.beta))
        # gamma_M^2 == alpha*beta collapses the radical
        p = DiscrimParams(0.8, 0.45, 0.6, 0.1)
        for s in np.linspace(0, 1, 21):
            t_form = (1 - s) * p.alpha + s * p.beta
            assert discrim.G_mixed(p, s) == pytest.approx(2 * abs(t_form), abs=1e-12)

    def test_range_validation(self):
        p = DiscrimParams(0.1, 0.2, 0.3, 0.4)
        for fn in (discrim.g_single, discrim.f_entangled, discrim.G_mixed):
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
        assert r.scan_resolution == 0

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
            st = min(max(discrim.s_tilde(p), 0.0), 1.0)
            # the clamped stationary point is the argmax whenever it is
            # interior; otherwise the scan picks the better endpoint
            if 0.0 < st < 1.0:
                assert r.arg == pytest.approx(st, abs=1e-6)
            assert r.value >= discrim.G_mixed(p, st) - 1e-12

    def test_never_below_single(self):
        rng = np.random.default_rng(39)
        for _ in range(400):
            p = random_params(rng)
            single = discrim.max_distance_single(p).value
            ent = discrim.max_distance_entangled(p).value
            assert ent >= single - 1e-9


class TestSTilde:
    def test_symmetric_case(self):
        assert discrim.s_tilde(DiscrimParams(0.4, 0.4, 0.9, 0.2)) == pytest.approx(0.5)

    def test_positive_product(self):
        p = DiscrimParams(0.4, 0.2, 0.5, 0.45)
        assert discrim.s_tilde(p) == pytest.approx(0.25)

    def test_negative_product(self):
        p = DiscrimParams(0.4, 0.2, -0.5, 0.45)
        assert discrim.s_tilde(p) == pytest.approx(0.25)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            discrim.s_tilde(DiscrimParams(0.4, -0.4, 0.5, 0.1))


class TestPolynomials:
    def test_F_constant_term(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            p = random_params(rng)
            expected = p.P**2 * (p.P**2 - p.beta**2)
            assert discrim.F_diag(p, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_F_sign_matches_direct_inequality_in_branch(self):
        # In the branch |g1|+|g2| <= |a+b| < 2|gM| the quartic is negative
        # somewhere exactly when the swapped-variable profile beats 2|P|.
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 1000:
            p = random_params(rng)
            gsum = abs(p.gamma1) + abs(p.gamma2)
            if not (gsum <= abs(p.alpha + p.beta) < 2 * abs(p.gamma_M)):
                continue
            s = float(rng.uniform(0, 1))
            checked += 1
            w = (s * p.alpha - (1 - s) * p.beta) ** 2
            u = s * (1 - s)
            lhs = math.sqrt(w + 4 * u * p.gamma1**2) + math.sqrt(
                w + 4 * u * p.gamma2**2
            )
            advantage = lhs > 2 * abs(p.P) + 1e-13
            negative = discrim.F_diag(p, s) < -1e-13
            assert advantage == negative

    def test_F_nonnegative_when_alpha_dominates(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 300:
            p = random_params(rng)
            if abs(p.alpha) < abs(p.beta):
                continue
            if p.alpha * (p.alpha + p.beta) < p.gamma1**2 + p.gamma2**2:
                continue
            checked += 1
            for s in np.linspace(0, 1, 101):
                assert discrim.F_diag(p, s) >= -1e-12

    def test_R_constant_term(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = random_params(rng)
            expected = p.P**2 * (p.P**2 - p.alpha**2)
            assert discrim.R_diag(p, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_R_nonnegative_when_gamma_M_small(self):
        rng = np.random.default_rng(44)
        checked = 0
        while checked < 300:
            p = random_params(rng)
            if abs(p.gamma_M) > abs(p.P):
                continue
            checked += 1
            for s in np.linspace(0, 1, 101):
                assert discrim.R_diag(p, s) >= -1e-12

    def test_R_sign_matches_direct_inequality(self):
        # advantage over 2|P| in the single-radical regime is equivalent to
        # R(s) < 0 or the degenerate guard P^2 < u (gM^2 - ab)
        rng = np.random.default_rng(45)
        checked = 0
        while checked < 1000:
            p = random_params(rng)
            ab = p.alpha * p.beta
            if not (p.gamma_m**2 < ab < p.gamma_M**2):
                continue
            s = float(rng.uniform(0, 1))
            checked += 1
            u = s * (1 - s)
            c = p.gamma_M**2 - ab
            a_form = (1 - s) * p.alpha - s * p.beta
            t_form = abs((1 - s) * p.alpha + s * p.beta)
            lhs = t_form + math.sqrt(a_form**2 + 4 * u * p.gamma_M**2)
            advantage = lhs > 2 * abs(p.P) + 1e-13
            predicted = discrim.R_diag(p, s) < -1e-13 or p.P**2 < u * c
            assert advantage == predicted


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
        c1 = QubitChannel.mixture(
            0.4, ExtremalChannel(0.5, 0.5), ExtremalChannel(1.0, math.pi - 1.0)
        )
        c2 = QubitChannel.extremal(0.7, 0.7)
        assert discrim.classify_pair(c1, c2).node != "T1"

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
