import math

import numpy as np
import pytest

from entdisc import channels, checks, discrim, oracle
from entdisc.channels import ExtremalChannel, QubitChannel
from entdisc.oracle import Measurement, PureState, SearchConfig

FAST = SearchConfig(grid_points=64, refine_tol=1e-10)
PRODUCT_TRAP = (
    QubitChannel.extremal(2.866637509083145, 0.22126097025033295),
    QubitChannel.extremal(3.0911674279949026, 1.5505448436716018),
)
# a restricted row of `verify --mode tree --seed 1725131899` whose maximum
# is the product probe |00>, at t = 0
PRODUCT_MAXIMUM = (
    QubitChannel(
        0.13023154547026672,
        ExtremalChannel(2.6772833006734484, 0.8077800216169402),
        ExtremalChannel(1.0357042591200658, 1.478547736364059),
    ),
    QubitChannel(
        0.7608705236667526,
        ExtremalChannel(2.8553474380054444, 0.12650898375698397),
        ExtremalChannel(2.105489668859063, 0.8221248033549091),
    ),
)
# A zoom level narrows a bracket at least 16-fold, and a bracket starts at
# most two grid cells wide, so a row reaches the float resolution of its
# bracket within about 13 levels; 16 leaves room.
LEVEL_CAP = 16


def bloch_states(params):
    """The qubit probes at the (polar, azimuth) rows of ``params``."""
    polar, azim = params[:, 0], params[:, 1]
    return np.stack(
        [np.cos(polar / 2.0), np.exp(1j * azim) * np.sin(polar / 2.0)], axis=1
    )


def bloch_probe(polar, azimuth):
    """The qubit probe at (polar, azimuth) on the Bloch sphere."""
    return PureState(tuple(bloch_states(np.array([[polar, azimuth]]))[0]))


def schmidt_states(t):
    """The pair probes sqrt(1 - t)|00> + sqrt(t)|11>, one per weight."""
    states = np.zeros((len(t), 4), dtype=complex)
    states[:, 0], states[:, 3] = np.sqrt(1.0 - t), np.sqrt(t)
    return states


def pair_chart_point(t, polar, azim):
    """sqrt(1 - t)|0>|v0> + sqrt(t)|1>|v1>: v0 the Bloch state at (polar,
    azim), v1 = (-conj v0[1], conj v0[0]) orthogonal to it."""
    v0 = bloch_probe(polar, azim).vector
    v1 = np.array([-v0[1].conj(), v0[0].conj()])
    return np.concatenate([math.sqrt(1.0 - t) * v0, math.sqrt(t) * v1])


def kraus_outputs(ops, states):
    """sum_k (K psi)(K psi)^dag for each row psi of ``states``, the Kraus
    operators ``ops`` acting on the right qubit of a pair state."""
    ops = np.asarray(ops)
    if states.shape[1] == 4:
        ops = np.array([np.kron(np.eye(2), op) for op in ops])
    kpsi = np.einsum("kij,nj->kni", ops, states)
    return np.einsum("kni,knj->nij", kpsi, kpsi.conj())


def kraus_delta(c1, c2, states):
    """The output differences of ``c1`` and ``c2`` on ``states``, from
    their Kraus sums."""
    ops1, ops2 = channels.kraus_operators(c1), channels.kraus_operators(c2)
    return kraus_outputs(ops1, states) - kraus_outputs(ops2, states)


def norm1(d):
    """||d||_1 of a Hermitian matrix: the sum of its absolute eigenvalues,
    from LAPACK's eigh, the solver behind the library's trace norms."""
    return float(np.abs(np.linalg.eigh(d)[0]).sum())


def norms1(d):
    """norm1 of each matrix of a stack."""
    return np.sum(np.abs(np.linalg.eigvalsh(d)), axis=-1)


def random_pair(rng, mixtures=False):
    if mixtures:
        def make():
            return QubitChannel(
                float(rng.uniform(0, 1)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
            )
        return make(), make()
    return (
        QubitChannel.extremal(*rng.uniform(0, math.pi, 2)),
        QubitChannel.extremal(*rng.uniform(0, math.pi, 2)),
    )


class TestStates:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState((1.0, 1.0))
        with pytest.raises(ValueError):
            PureState((1.0, 0.5, 0, 0))

    @pytest.mark.parametrize(
        "amps", [(math.nan, 0j), (1.0, math.nan), (0.6, 0.8j, 0j, complex(0, math.nan))]
    )
    def test_rejects_nan_amplitudes(self, amps):
        with pytest.raises(ValueError, match="deviates from 1 by nan"):
            PureState(amps)

    @pytest.mark.parametrize("amps", [(1.0,), (0.6, 0.8, 0.0), (1.0,) + (0.0,) * 7])
    def test_rejects_other_lengths(self, amps):
        # each has unit norm: only its length is wrong
        with pytest.raises(ValueError, match=f"2 or 4 amplitudes, got {len(amps)}"):
            PureState(amps)

    def test_schmidt(self):
        s = PureState.schmidt(0.6, 0.8)
        assert s.is_pair
        np.testing.assert_allclose(s.vector, [0.6, 0, 0, 0.8])


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_points=32)
        with pytest.raises(ValueError):
            SearchConfig(multistarts=4)
        with pytest.raises(ValueError):
            SearchConfig(refine_tol=0.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SearchConfig(rng_seed=-1)
        # counts that fail deep in numpy, and tolerances that stop every
        # zoom row after one level or only at float resolution; multistarts
        # and rng_seed are read by no search but still validated, for the
        # configurations that name them
        for field, value in [
            ("grid_points", 96.5),
            ("grid_points", True),
            ("multistarts", 16.5),
            ("multistarts", "24"),
            ("refine_tol", float("inf")),
            ("refine_tol", float("nan")),
            ("refine_tol", -1e-12),
            ("refine_tol", "1e-15"),
            # seeds that fail inside numpy's SeedSequence, fail to compare,
            # or silently run as seed 1
            ("rng_seed", 1.5),
            ("rng_seed", float("nan")),
            ("rng_seed", "3"),
            ("rng_seed", True),
        ]:
            with pytest.raises(ValueError, match=field):
                SearchConfig(**{field: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = SearchConfig(
            grid_points=np.int64(96), multistarts=np.int32(16), rng_seed=np.uint8(3)
        )
        assert cfg.grid_points == 96 and cfg.multistarts == 16 and cfg.rng_seed == 3


class TestDeltas:
    def test_identical_channels_vanish(self):
        c = QubitChannel.extremal(0.7, 0.2)
        d = oracle.delta(c, c, PureState((0.6, 0.8)))
        assert np.max(np.abs(d)) < 1e-14
        d4 = oracle.delta(c, c, PureState.schmidt(0.6, 0.8))
        assert np.max(np.abs(d4)) < 1e-14

    def test_orthogonal_outputs(self):
        ident = QubitChannel.extremal(0, 0)
        damp = QubitChannel.extremal(math.pi / 2, 0)
        d = oracle.delta(ident, damp, PureState((0, 1)))
        np.testing.assert_allclose(d, np.diag([-1.0, 1.0]), atol=1e-14)
        d0 = oracle.delta(ident, damp, PureState((1, 0)))
        assert np.max(np.abs(d0)) < 1e-14

    def test_product_probe_embeds_marginal(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            c1, c2 = random_pair(rng, mixtures=True)
            psi = bloch_probe(*rng.uniform(0, math.pi, 2))
            probe = PureState(tuple(np.kron([1, 0], psi.vector)))
            d2 = oracle.delta(c1, c2, psi)
            d4 = oracle.delta(c1, c2, probe)
            assert abs(
                norm1(d4) - norm1(d2)
            ) < 1e-10

    def test_traceless(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            c1, c2 = random_pair(rng, mixtures=True)
            psi = bloch_probe(*rng.uniform(0, math.pi, 2))
            assert abs(np.trace(oracle.delta(c1, c2, psi))) < 1e-10
            probe = PureState.schmidt(
                math.sqrt(0.3), math.sqrt(0.7) * np.exp(0.4j)
            )
            assert abs(np.trace(oracle.delta(c1, c2, probe))) < 1e-10

    def test_schmidt_phase_leaves_trace_norm_unchanged(self):
        # a phase on |11> is diag(1, e^{i eta}) on the reference qubit, which
        # commutes with id (x) N: the restricted search needs no phase axis
        rng = np.random.default_rng(58)
        for _ in range(10):
            c1, c2 = random_pair(rng, mixtures=True)
            t = rng.uniform(0, 1)
            norms = []
            for eta in np.linspace(0, 2 * math.pi, 7):
                probe = PureState.schmidt(math.sqrt(1 - t), math.sqrt(t) * np.exp(1j * eta))
                norms.append(norm1(oracle.delta(c1, c2, probe)))
            assert max(norms) - min(norms) < 1e-12

    def test_pair_chart_covers_every_state(self):
        # by the SVD M = U diag(s) W^dagger of its amplitude matrix, a state
        # is (U (x) id) (s0 |0>|r0> + s1 |1>|r1>) with r_k = conj(W[:, k]);
        # up to phases on the reference qubit r0 is the Bloch state v0 of
        # the chart and r1 its orthogonal v1, so the chart point has the
        # same output-difference trace norm
        rng = np.random.default_rng(59)
        for mixtures in (False, True):
            for _ in range(10):
                c1, c2 = random_pair(rng, mixtures=mixtures)
                for _ in range(30):
                    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
                    amps /= np.linalg.norm(amps)
                    _, s, wh = np.linalg.svd(amps.reshape(2, 2))
                    r0 = wh[0]  # conj(W[:, 0])
                    polar = 2.0 * math.acos(min(abs(r0[0]), 1.0))
                    azim = (np.angle(r0[1]) - np.angle(r0[0])) % (2.0 * math.pi)
                    point = pair_chart_point(s[1] ** 2, polar, azim)
                    assert np.linalg.norm(point) == pytest.approx(1.0, abs=1e-14)
                    chart = norm1(
                        oracle.delta(c1, c2, PureState(tuple(point)))
                    )
                    state = norm1(
                        oracle.delta(c1, c2, PureState(tuple(amps)))
                    )
                    assert abs(chart - state) < 1e-12

    def test_matches_the_kraus_sum(self):
        # 200 random complex probes, qubit and pair in turn, on extremal and
        # mixture pairs
        rng = np.random.default_rng(57)
        worst = 0.0
        for k in range(200):
            c1, c2 = random_pair(rng, mixtures=k % 4 >= 2)
            dim = 2 + 2 * (k % 2)
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amps /= np.linalg.norm(amps)
            d = oracle.delta(c1, c2, PureState(tuple(amps)))
            worst = max(worst, np.max(np.abs(d - kraus_delta(c1, c2, amps[None, :])[0])))
        assert worst <= 1e-15

    def test_schmidt_probe_block_structure(self):
        # the output difference on a0|00> + a1|11> consists of a block on
        # span{|00>,|11>} and a block on span{|01>,|10>} with entries set
        # by the discrimination parameters
        c1 = QubitChannel.extremal(1.2, 0.5)
        c2 = QubitChannel.extremal(0.4, 0.9)
        p = discrim.compute_params(c1, c2)
        a0, a1 = math.sqrt(0.4), math.sqrt(0.6)
        d = oracle.delta(c1, c2, PureState.schmidt(a0, a1))
        expected = np.zeros((4, 4))
        expected[0, 0] = a0**2 * p.alpha
        expected[3, 3] = a1**2 * p.beta
        expected[0, 3] = expected[3, 0] = a0 * a1 * p.gamma1
        expected[1, 1] = -(a0**2) * p.alpha
        expected[2, 2] = -(a1**2) * p.beta
        expected[1, 2] = expected[2, 1] = a0 * a1 * p.gamma2
        np.testing.assert_allclose(d, expected, atol=1e-12)


class TestBruteMaxSingle:
    def test_identical_channels(self):
        c = QubitChannel.extremal(0.9, 0.4)
        assert oracle.brute_max_single(c, c, FAST).value < 1e-12

    def test_orthogonal_outputs(self):
        r = oracle.brute_max_single(
            QubitChannel.extremal(0, 0), QubitChannel.extremal(math.pi / 2, 0), FAST
        )
        assert r.value == pytest.approx(2.0, abs=1e-9)

    def test_damping_pair_matches_closed_form(self):
        r = oracle.brute_max_single(
            QubitChannel.extremal(math.pi / 3, 0),
            QubitChannel.extremal(math.pi / 6, 0),
            FAST,
        )
        assert r.value == pytest.approx(1.0, abs=1e-6)

    def test_grid_doubling_invariance(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            c1, c2 = random_pair(rng)
            v1 = oracle.brute_max_single(c1, c2, FAST).value
            v2 = oracle.brute_max_single(
                c1, c2, SearchConfig(grid_points=128)
            ).value
            assert abs(v1 - v2) < 1e-6

    @pytest.mark.parametrize("grid", [65, 97])
    def test_grid_without_a_quarter_azimuth(self, grid):
        # the azimuth grid of these sizes misses pi/2, where this pair's
        # maximum lies: the grid once stopped 6.26e-5 below it, at t = 0
        c1 = QubitChannel.extremal(1.5763906235811882, 1.5652020300086049)
        c2 = QubitChannel.extremal(0.47227209380245955, 0.47227209380245955)
        r = oracle.brute_max_single(c1, c2, SearchConfig(grid_points=grid))
        closed = discrim.compute_params(c1, c2).single.value
        assert abs(r.value - closed) <= 1e-15


class TestBruteMaxEntangled:
    def test_identical_channels(self):
        c = QubitChannel.extremal(0.9, 0.4)
        assert oracle.brute_max_entangled(c, c, FAST).value < 1e-12
        chois = oracle._chois([(c, c)])
        assert oracle._entangled_bounds(chois, np.array([0.5]))[0] < 1e-12

    def test_orthogonalizing_pair(self):
        r = oracle.brute_max_entangled(
            QubitChannel.extremal(math.pi / 2, 0), QubitChannel.extremal(0, 0), FAST
        )
        assert r.value == pytest.approx(2.0, abs=1e-9)
        assert r.arg == pytest.approx(1.0, abs=1e-6)

    def test_full_never_beats_restricted(self):
        # seeded probes over all of C^4 stay below the restricted search;
        # TestCertifiedBound proves it for every probe
        rng = np.random.default_rng(54)
        for mixtures in (False, True, False, True):
            c1, c2 = random_pair(rng, mixtures=mixtures)
            restricted = oracle.brute_max_entangled(c1, c2, FAST).value
            for _ in range(100):
                amps = rng.normal(size=4) + 1j * rng.normal(size=4)
                probe = PureState(tuple(amps / np.linalg.norm(amps)))
                assert norm1(oracle.delta(c1, c2, probe)) <= restricted + 1e-12

    def test_unknown_mode_rejected(self):
        # "full" named the seeded search over C^4 that the bound replaced
        c = QubitChannel.extremal(0.5, 0.1)
        for mode in ("exhaustive", "full"):
            with pytest.raises(ValueError, match="mode must be 'restricted'"):
                oracle.brute_max_entangled(c, c, FAST, mode=mode)

    def test_optimal_probe_reaches_reported_value(self):
        rng = np.random.default_rng(55)
        c1, c2 = random_pair(rng)
        probe, res = oracle.optimal_entangled_probe(c1, c2, FAST)
        achieved = norm1(oracle.delta(c1, c2, probe))
        assert achieved == pytest.approx(res.value, abs=1e-9)

    @pytest.mark.parametrize("grid", [96, 128, 256])
    def test_product_probe_trap(self, grid):
        # at grid 96 the best grid point is the product probe |00>, 2.8e-5
        # below the maximum, which lies inside the first grid cell
        c1, c2 = PRODUCT_TRAP
        res = oracle.brute_max_entangled(c1, c2, SearchConfig(grid_points=grid))
        closed = discrim.compute_params(c1, c2).entangled.value
        assert res.value == pytest.approx(closed, abs=1e-12)


class TestCertifiedBound:
    """The bound over every two-qubit probe, checked against seeded probes
    of all of C^4 through :func:`oracle.delta`, with nothing from discrim."""

    # both clamp edges, and the ends they clamp
    WEIGHTS = (0.0, 1e-5, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-5, 1.0)

    @staticmethod
    def pairs():
        rng = checks._rng(71)
        identity = channels.parse_channel("identity")
        return [
            *checks._draw_pairs(6, rng, checks.sample_extremal),
            *checks._draw_pairs(6, rng, checks.sample_mixture),
            *checks._draw_pairs(6, rng, checks.sample_quasi_extreme),
            (identity, identity),
            PRODUCT_TRAP,
        ]

    def test_bound_holds_over_every_probe(self):
        pairs = self.pairs()
        rng = np.random.default_rng(72)
        amps = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
        probes = [PureState(tuple(a / np.linalg.norm(a))) for a in amps]
        # the restricted maximizer, moved by a unitary on the reference
        # qubit: off the Schmidt plane, with the largest value there is
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        worst = []
        for c1, c2 in pairs:
            best, _ = oracle.optimal_entangled_probe(c1, c2, FAST)
            moved = PureState(tuple(np.kron(u, np.eye(2)) @ best.vector))
            worst.append(max(norm1(oracle.delta(c1, c2, p)) for p in probes + [moved]))
        chois = oracle._chois(pairs)
        for t in self.WEIGHTS:
            bounds = oracle._entangled_bounds(chois, np.full(len(pairs), t))
            assert np.all(np.array(worst) <= bounds), t

    def test_bound_is_tight_at_the_restricted_maximizer(self):
        pairs = self.pairs()
        chois = oracle._chois(pairs)
        results = oracle._grid_searches(chois, SearchConfig(grid_points=128), bloch=False)[0]
        values = np.array([r.value for r in results])
        gaps = oracle._entangled_bounds(chois, np.array([r.arg for r in results])) - values
        assert np.all(gaps >= 0.0)
        assert np.max(gaps) <= checks.LEMMA_TOL


class TestZoom:
    """The zoom ends within LEVEL_CAP levels, returns at least its grid
    best, and gives the same bits twice."""

    CFG = SearchConfig(grid_points=96)
    CASES = {
        # an all-zero row
        "identical": (QubitChannel.extremal(0.9, 0.4), QubitChannel.extremal(0.9, 0.4)),
        # two maps of the family cos(theta) = cos(phi): the restricted
        # profile is flat to rounding (its grid spreads by 4.4e-16)
        "quasi-extreme": (QubitChannel.extremal(0.7, 0.7), QubitChannel.extremal(1.9, 1.9)),
        # best at t = 0 (restricted) and at t = 1 (both searches)
        "product-maximum": PRODUCT_MAXIMUM,
        "orthogonalizing": (QubitChannel.extremal(math.pi / 2, 0), QubitChannel.extremal(0, 0)),
    }

    @staticmethod
    def bits(results):
        return [(r.value.hex(), r.arg.hex(), r.iterations) for r in results]

    @pytest.mark.parametrize("case", CASES)
    def test_ends_within_the_cap_at_or_above_the_grid_best(self, case):
        chois = oracle._chois([self.CASES[case]])
        n = self.CFG.grid_points
        grid = [
            grid_best(oracle._bloch_rows(chois, n))[0][0],
            grid_best(oracle._restricted_rows(chois, n))[0][0],
        ]
        results = [part[0] for part in oracle._grid_searches(chois, self.CFG)]
        again = [part[0] for part in oracle._grid_searches(chois, self.CFG)]
        assert self.bits(results) == self.bits(again)
        for r, best in zip(results, grid):
            assert 1 <= r.iterations <= LEVEL_CAP
            assert r.value >= best
        if case == "identical":
            # every level of an all-zero row spreads by 0
            assert self.bits(results) == [("0x0.0p+0", "0x0.0p+0", 1)] * 2
        if case == "quasi-extreme":
            coef, weights = oracle._restricted_rows(chois, n)
            assert np.ptp(oracle._block_values(coef, weights[None, :])) < 1e-15
        if case == "product-maximum":
            # the zoom stops once a level spreads by less than refine_tol,
            # a few ulps of t from the end
            assert results[1].arg < 1e-12
        if case == "orthogonalizing":
            assert [r.arg for r in results] == [1.0, 1.0]


class TestHelstrom:
    def test_diagonal(self):
        m = oracle.helstrom(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(m.plus_projector, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(m.minus_projector, np.diag([0.0, 1.0]), atol=1e-12)

    def test_zero_matrix_goes_minus(self):
        m = oracle.helstrom(np.zeros((2, 2)))
        np.testing.assert_allclose(m.plus_projector, np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(m.minus_projector, np.eye(2), atol=1e-12)

    def test_pauli_x(self):
        m = oracle.helstrom(np.array([[0, 1], [1, 0]], dtype=complex))
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        np.testing.assert_allclose(m.plus_projector, plus, atol=1e-12)

    def test_optimality(self):
        rng = np.random.default_rng(56)
        for _ in range(60):
            c1, c2 = random_pair(rng, mixtures=True)
            psi = bloch_probe(*rng.uniform(0, math.pi, 2))
            delta = oracle.delta(c1, c2, psi)
            m = oracle.helstrom(delta)
            bias = np.trace(delta @ (m.plus_projector - m.minus_projector)).real
            assert abs(bias - norm1(delta)) < 1e-9

    def test_hermiticity_tolerance_is_1e_12(self):
        # the one check is smallmat's; a deviation above it raises, one
        # below it is accepted
        near = np.array([[0.5, 0.2], [0.2, -0.5]], dtype=complex)
        near[0, 1] += 5e-11
        with pytest.raises(ValueError, match="max deviation 5.000e-11"):
            oracle.helstrom(near)
        near[0, 1] = 0.2 + 5e-13
        m = oracle.helstrom(near)
        assert m.plus_projector.shape == (2, 2)
        np.testing.assert_allclose(np.trace(m.plus_projector), 1.0, atol=1e-12)

    def test_projector_validation(self):
        bad = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="idempotent"):
            Measurement(bad, np.eye(2) - bad)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_projector_validation_rejects_nan(self, dim):
        plus = np.zeros((dim, dim), dtype=complex)
        plus[0, 0] = 1.0
        minus = np.eye(dim) - plus
        bad = plus.copy()
        bad[dim - 1, 0] = math.nan
        with pytest.raises(ValueError, match="idempotent"):
            Measurement(bad, minus)
        with pytest.raises(ValueError, match="idempotent"):
            Measurement(plus, bad)


class TestSimulate:
    def _damping_setup(self):
        ident = QubitChannel.extremal(0, 0)
        damp = QubitChannel.extremal(math.pi / 2, 0)
        return ident, damp, PureState((0, 1))

    def test_orthogonal_outputs_always_win(self):
        ident, damp, probe = self._damping_setup()
        distance, freq = oracle.simulate(ident, damp, probe, 10000, 3)
        assert freq == 1.0
        assert distance == pytest.approx(2.0, abs=1e-14)

    def test_identical_channels_coin_flip(self):
        c = QubitChannel.extremal(0.5, 0.2)
        probe = PureState((1, 0))
        distance, freq = oracle.simulate(c, c, probe, 100000, 7)
        assert distance == 0.0
        assert abs(freq - 0.5) <= 4 * 0.5 / math.sqrt(100000)

    def test_damping_pair_success_rate(self):
        c1 = QubitChannel.extremal(math.pi / 3, 0)
        c2 = QubitChannel.extremal(math.pi / 6, 0)
        probe = PureState((0, 1))
        _, freq = oracle.simulate(c1, c2, probe, 100000, 11)
        assert abs(freq - 0.75) <= 4 * 0.5 / math.sqrt(100000)

    def test_deterministic_given_seed(self):
        c1 = QubitChannel.extremal(0.8, 0.1)
        c2 = QubitChannel.extremal(0.2, 0.6)
        probe = bloch_probe(1.0, 2.0)
        a = oracle.simulate(c1, c2, probe, 5000, 123)
        b = oracle.simulate(c1, c2, probe, 5000, 123)
        assert a == b

    def test_distance_is_the_trace_norm_of_delta(self):
        rng = np.random.default_rng(61)
        for dim in (2, 4, 2, 4, 2, 4):
            c1, c2 = random_pair(rng, mixtures=True)
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            probe = PureState(tuple(amps / np.linalg.norm(amps)))
            distance, _ = oracle.simulate(c1, c2, probe, 10, 1)
            assert distance == norm1(oracle.delta(c1, c2, probe))

    def test_trials_validated(self):
        ident, damp, probe = self._damping_setup()
        with pytest.raises(ValueError, match="trials"):
            oracle.simulate(ident, damp, probe, 0, 1)


class TestConvergence:
    # criterion 2's search budget
    CFG = SearchConfig(grid_points=128)

    def test_grid_searches_converge(self):
        rng = checks._rng(202)
        c1, c2 = checks.sample_extremal(rng), checks.sample_extremal(rng)
        _, res = oracle.optimal_entangled_probe(c1, c2, self.CFG)
        for r in (
            oracle.brute_max_single(c1, c2, self.CFG),
            oracle.brute_max_entangled(c1, c2, self.CFG),
            res,
        ):
            assert 1 <= r.iterations <= LEVEL_CAP

    def test_product_probe_maximum_is_reached_not_crawled_to(self):
        # plain see-saw steps from the best interior grid point shrank t by
        # about 5% each and ran 1856 steps before stopping short of the
        # endpoint
        c1, c2 = PRODUCT_MAXIMUM
        cfg = SearchConfig(grid_points=96)
        closed = discrim.compute_params(c1, c2).entangled
        assert closed.arg == 0.0
        res = oracle.brute_max_entangled(c1, c2, cfg)
        assert res.iterations <= LEVEL_CAP
        assert res.value == pytest.approx(closed.value, abs=1e-12)

    def test_quasi_extreme_searches_reach_their_maxima(self):
        # criterion 3: the gap between the two searches is rounding
        cfg = SearchConfig(grid_points=96)
        rep = checks.check_quasi_extreme(100, 303, cfg)
        assert rep["max_gap"] < 1e-12
        assert rep["refine_levels"]["max"] <= LEVEL_CAP


PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)
# the entries of the real affine Bloch matrix that are zero for a difference
# of two family channels: all but the diagonal and the z shifts (0, 3), (3, 0)
OFF_AXES = ~np.eye(4, dtype=bool)
OFF_AXES[[0, 3], [3, 0]] = False


def grid_best(rows):
    """Each row's best grid value and that point's index, from the
    coefficients and grid weights of _bloch_rows or _restricted_rows."""
    coef, weights = rows
    values = oracle._block_values(coef, weights[None, :])
    tops = oracle._first_best(values)
    return values[np.arange(len(tops)), tops], tops


def eigensolver_values(pairs, cfg):
    """The restricted grid the way it ran before it read Choi blocks: one
    LAPACK eigvalsh per grid point of each pair's extended output, here
    from the Kraus sums.  Returns the values, one row per pair."""
    states = schmidt_states(np.linspace(0.0, 1.0, cfg.grid_points))
    return np.array([norms1(kraus_delta(c1, c2, states)) for c1, c2 in pairs])


def choi_of(ops):
    """The Choi matrix sum_k vec(K_k) vec(K_k)^dag, vec stacking columns."""
    vecs = np.array([op.T.reshape(-1) for op in ops])
    return vecs.T @ vecs.conj()


def unitary_pair(rng):
    """Two random unitaries: the channels U X U^dag of no family channel."""
    return [
        np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        for _ in range(2)
    ]


def unitary_difference(rng):
    """The Choi matrix of U1 X U1^dag - U2 X U2^dag (:func:`unitary_pair`)."""
    u1, u2 = unitary_pair(rng)
    return choi_of([u1]) - choi_of([u2])


def full_bloch_grid(n):
    """The whole uniform (polar, azimuth) Bloch grid with n points per axis,
    in flat polar-major order: its parameters, and the affine coordinates
    r = (1, x, y, z) of its points as four rows."""
    polar = np.linspace(0.0, math.pi, n)
    azim = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    mesh = np.meshgrid(polar, azim, indexing="ij")
    params = np.stack([g.ravel() for g in mesh], axis=1)
    p, a = params[:, 0], params[:, 1]
    x, y = np.sin(p) * np.cos(a), np.sin(p) * np.sin(a)
    return params, np.stack([np.ones_like(p), x, y, np.cos(p)])


def affine_bloch(choi):
    """The real affine Bloch matrix A of a qubit map from its Choi matrix:
    the Pauli coordinates (c0, c) of Delta(rho) are A (1, x, y, z), with
    A[k, l] = tr(sigma_k Delta(sigma_l)) / 4 and
    Delta(X)_ij = sum_ab X_ab J[(a i), (b j)]."""
    j = choi.reshape(2, 2, 2, 2)
    return np.real(np.einsum("kij,lab,ajbi->kl", PAULIS, PAULIS, j)) / 4.0


def full_bloch_values(choi, r):
    """||Delta(rho)||_1 at every column of r: the n^2 reference for the
    library's grid, which takes each polar row at its best azimuth."""
    return oracle._tracenorm2(*(affine_bloch(choi) @ r))


class TestRestrictedBlocks:
    LITERALS = (
        "identity", "ad(0.7)", "ad(1)", "pauli(0.3,0.4,1.1)",
        "pauli(0.5,0.6,1.1)", "mix(0.25;1.2,0.4;0.3,2.0)",
    )

    @classmethod
    def pairs(cls):
        rng = checks._rng(26)
        pairs = [
            (checks.sample_extremal(rng), checks.sample_extremal(rng))
            for _ in range(150)
        ] + [(checks.sample_mixture(rng), checks.sample_mixture(rng)) for _ in range(150)]
        literals = [channels.parse_channel(text) for text in cls.LITERALS]
        return pairs + [(c1, c2) for c1 in literals for c2 in literals]

    @pytest.mark.parametrize("grid", [96, 256])
    def test_matches_the_eigensolver_path(self, grid):
        pairs = self.pairs()
        cfg = SearchConfig(grid_points=grid)
        top_values, tops = grid_best(oracle._restricted_rows(oracle._chois(pairs), grid))
        values = eigensolver_values(pairs, cfg)
        rows = np.arange(len(pairs))
        # under the shared tie rule the picks do not depend on rounding: a
        # literal pair may have two grid points equal in exact arithmetic
        # (t and 1 - t for identity against a Pauli channel), and both paths
        # take the lower one
        ref_tops = oracle._first_best(values)
        assert np.max(np.abs(top_values - values[rows, ref_tops])) <= 1e-15
        np.testing.assert_array_equal(tops, ref_tops)

    def test_quasi_extreme_starts_do_not_depend_on_rounding(self):
        # a quasi-extreme pair's restricted profile is flat or symmetric in
        # t <-> 1 - t; the eigensolver and the Choi blocks round its tied
        # points differently, yet pick the same top, where the zoom starts
        pairs = list(
            checks._draw_pairs(200, checks._rng(303), checks.sample_quasi_extreme)
        )
        cfg = SearchConfig()
        chois = oracle._chois(pairs)
        _, tops = grid_best(oracle._restricted_rows(chois, cfg.grid_points))
        values = eigensolver_values(pairs, cfg)
        np.testing.assert_array_equal(tops, oracle._first_best(values))

    def test_rows_equal_one_row_calls(self):
        chois = oracle._chois(self.pairs()[::17])
        batched = oracle._restricted_rows(chois, 96)
        best = grid_best(batched)
        for k in range(len(chois)):
            alone = oracle._restricted_rows(chois[k : k + 1], 96)
            np.testing.assert_array_equal(batched[0][k], alone[0][0])
            for part, row in zip(best, grid_best(alone)):
                np.testing.assert_array_equal(part[k], row[0])

    def test_choi_stack_holds_each_pair_difference(self):
        pairs = self.pairs()
        for (c1, c2), choi in zip(pairs, oracle._chois(pairs)):
            reference = choi_of(channels.kraus_operators(c1)) - choi_of(
                channels.kraus_operators(c2)
            )
            assert np.max(np.abs(choi - reference)) <= 1e-15

    def test_rejects_a_difference_that_is_not_z_covariant(self):
        # one check guards both searches
        chois = np.stack([
            oracle._chois(self.pairs()[:1])[0],
            unitary_difference(np.random.default_rng(65)),
        ])
        for bloch in (True, False):
            with pytest.raises(ValueError, match="Z-covariant"):
                oracle._grid_searches(
                    chois, SearchConfig(grid_points=96), bloch=bloch, restricted=not bloch
                )

    def test_calls_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid search called an eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        oracle._grid_searches(oracle._chois(self.pairs()), SearchConfig(grid_points=96))


class TestAxisAlignedBloch:
    """The Bloch grid takes each polar row at its best azimuth, exactly;
    the full n^2 grid is the reference."""

    # all five literal kinds; ad(1.2) against ad(pi/2) has |a1| = |a2|, so
    # every azimuth of a polar row ties there
    LITERALS = (
        "identity", "ad(0.7)", "ad(1.2)", "ad(1.5707963267948966)",
        "extremal(0.9,0.4)", "pauli(0.3,0.4,1.1)", "pauli(0.5,0.6,1.1)",
        "mix(0.25;1.2,0.4;0.3,2.0)",
    )

    @pytest.fixture(scope="class")
    def chois(self):
        pairs = list(checks._alternating_pairs(checks._rng(29), 2000))
        literals = [channels.parse_channel(text) for text in self.LITERALS]
        pairs += [
            (c1, c2) for i, c1 in enumerate(literals)
            for j, c2 in enumerate(literals) if i != j
        ]
        assert len(pairs) == 2056
        return oracle._chois(pairs)

    @pytest.mark.parametrize("grid", [64, 65, 96, 97, 100, 128, 255, 256])
    def test_matches_the_full_grid(self, chois, grid):
        # the full grid holds the azimuths 0 and pi/2, where a family
        # difference's best lies, only when grid % 4 == 0; elsewhere the
        # exact best azimuth may lie above the grid's.  The reference rounds
        # apart from the library, by less than _TIE_TOL.
        top_values, tops = grid_best(oracle._bloch_rows(chois, grid))
        _, r = full_bloch_grid(grid)
        for choi, value, top in zip(chois, top_values, tops):
            values = full_bloch_values(choi, r)
            ref_top = int(oracle._first_best(values))
            assert value >= values[ref_top] - oracle._TIE_TOL
            if grid % 4 == 0:
                assert value <= values[ref_top] + oracle._TIE_TOL
                assert top == ref_top // grid

    def test_first_best_takes_the_lowest_index_within_the_tie_tolerance(self):
        tol = oracle._TIE_TOL
        values = np.array([
            [1.0, 2.0 - 2.0 * tol, 2.0 - 0.5 * tol, 2.0],
            [0.5, 0.25, 0.5, 0.5 + 0.5 * tol],
        ])
        np.testing.assert_array_equal(oracle._first_best(values), [2, 0])
        assert oracle._first_best(values[1]) == 0

    def test_family_differences_are_axis_aligned(self):
        # seeded channels of every literal kind and of every sampler, paired
        # across kinds: their affine Bloch matrices hold only the diagonal
        # and the z shifts, and the shared Z-covariance guard never fires
        rng = checks._rng(31)

        def angle():
            return repr(float(rng.uniform(0.0, math.pi)))

        def weight():
            return repr(float(rng.uniform(0.0, 1.0)))

        texts = []
        for _ in range(60):
            texts += [
                "identity", f"ad({angle()})", f"extremal({angle()},{angle()})",
                f"pauli({weight()},{angle()},{angle()})",
                f"mix({weight()};{angle()},{angle()};{angle()},{angle()})",
            ]
        chans = [channels.parse_channel(text) for text in texts]
        for sample in (
            checks.sample_extremal, checks.sample_mixture, checks.sample_quasi_extreme
        ):
            chans += [sample(rng) for _ in range(300)]
        pairs = [(c, chans[(7 * k + 3) % len(chans)]) for k, c in enumerate(chans)]
        chois = oracle._chois(pairs)
        for choi in chois:
            off = affine_bloch(choi)[OFF_AXES]
            np.testing.assert_array_equal(off, np.zeros_like(off))
        oracle._grid_searches(chois, SearchConfig(grid_points=64))


class TestBatchedEngine:
    # the search budget of `entdisc verify`
    CFG = SearchConfig(grid_points=96)

    @staticmethod
    def pairs(seed, count):
        rng = np.random.default_rng(seed)
        return [random_pair(rng, mixtures=k % 2 == 1) for k in range(count)]

    def test_many_equals_one_pair_calls(self):
        pairs = self.pairs(61, 40)
        batched = oracle.brute_max_many(pairs, self.CFG)
        for (c1, c2), (single, restricted) in zip(pairs, batched):
            assert single == oracle.brute_max_single(c1, c2, self.CFG)
            assert restricted == oracle.brute_max_entangled(c1, c2, self.CFG)
        assert oracle.brute_max_many([], self.CFG) == []

    @pytest.fixture
    def zoom_rows(self, monkeypatch):
        """The row count of every _zoom call, in call order."""
        calls = []
        zoom = oracle._zoom

        def counting(coef, *args):
            calls.append(len(coef))
            return zoom(coef, *args)

        monkeypatch.setattr(oracle, "_zoom", counting)
        return calls

    def test_one_zoom_per_check(self, zoom_rows):
        rep = checks.check_tree(8, 3, self.CFG)
        assert zoom_rows == [2 * rep["retained"]]
        zoom_rows.clear()
        checks.check_quasi_extreme(6, 3, self.CFG)
        assert zoom_rows == [12]
        zoom_rows.clear()
        checks.check_lemma1(6, 3, self.CFG)
        assert zoom_rows == [6]
        zoom_rows.clear()
        checks.check_lemma2(5, 3, self.CFG)
        assert zoom_rows == [5]

    def test_lemma_checks_alternate_extremal_pairs_and_mixtures(self, monkeypatch):
        drawn = []
        chois = oracle._chois

        def recording(pairs):
            drawn.extend(pairs)
            return chois(pairs)

        monkeypatch.setattr(oracle, "_chois", recording)
        for check in (checks.check_lemma1, checks.check_lemma2):
            drawn.clear()
            check(4, 3, self.CFG)
            assert drawn == list(checks._alternating_pairs(checks._rng(3), 4))
            assert [c1.is_extremal for c1, _ in drawn] == [True, False, True, False]

    def test_many_builds_only_qubit_superoperators(self, monkeypatch):
        # one 4x4 Choi matrix per channel, and no two-qubit matrix
        built = []
        choi_matrix = channels.choi_matrix

        def counting(c):
            choi = choi_matrix(c)
            built.append(choi.shape)
            return choi

        monkeypatch.setattr(channels, "choi_matrix", counting)
        oracle.brute_max_many(self.pairs(67, 9), self.CFG)
        assert built == [(4, 4)] * 18

    def test_values_match_closed_forms_at_verify_budget(self):
        # every zoomed value within 1e-15 of its closed form, and no
        # restricted value above its certified bound over all of C^4
        rng = checks._rng(11)
        pairs = [
            *checks._draw_pairs(300, rng, checks.sample_extremal),
            *checks._draw_pairs(300, rng, checks.sample_mixture),
            *checks._draw_pairs(200, rng, checks.sample_quasi_extreme),
        ]
        results = oracle.brute_max_many(pairs, self.CFG)
        bounds = oracle._entangled_bounds(
            oracle._chois(pairs), np.array([ent.arg for _, ent in results])
        )
        worst_single = worst_entangled = 0.0
        for (c1, c2), (single, ent), bound in zip(pairs, results, bounds):
            params = discrim.compute_params(c1, c2)
            worst_single = max(worst_single, abs(single.value - params.single.value))
            worst_entangled = max(worst_entangled, abs(ent.value - params.entangled.value))
            assert ent.value <= bound
        assert worst_single <= 1e-15
        assert worst_entangled <= 1e-15

    @pytest.mark.parametrize("grid", [96, 128])
    def test_affine_bloch_grid_matches_outer_products(self, grid):
        params, r = full_bloch_grid(grid)
        states = bloch_states(params)
        pairs = self.pairs(63, 10)
        # the channel family is real; unitary channels U X U^dag also have
        # complex outputs
        rng = np.random.default_rng(65)
        for c1, c2 in pairs:
            reference = norms1(kraus_delta(c1, c2, states))
            choi = oracle._chois([(c1, c2)])[0]
            assert np.max(np.abs(full_bloch_values(choi, r) - reference)) < 1e-14
        for u1, u2 in (unitary_pair(rng) for _ in range(4)):
            reference = norms1(kraus_outputs([u1], states) - kraus_outputs([u2], states))
            choi = choi_of([u1]) - choi_of([u2])
            assert np.max(np.abs(full_bloch_values(choi, r) - reference)) < 1e-14
        # the library's best grid values are those of its best polar rows at
        # the better of the azimuths 0 and pi/2
        top_values, tops = grid_best(oracle._bloch_rows(oracle._chois(pairs), grid))
        polar = np.linspace(0.0, math.pi, grid)[tops]
        for (c1, c2), p, value in zip(pairs, polar, top_values):
            top_states = bloch_states(np.array([[p, 0.0], [p, 0.5 * math.pi]]))
            assert abs(np.max(norms1(kraus_delta(c1, c2, top_states))) - value) < 1e-14

    @staticmethod
    def per_pair_tree(samples, seed, cfg):
        """check_tree as a plain loop of one-pair searches."""
        rng = checks._rng(seed)
        retained, failures, levels = 0, [], []
        for k in range(samples):
            if k % 2 == 0:
                c1, c2 = checks.sample_extremal(rng), checks.sample_extremal(rng)
            else:
                c1, c2 = checks.sample_mixture(rng), checks.sample_mixture(rng)
            cls = discrim.classify_pair(c1, c2)
            slack = min((abs(v) for v in cls.margins.values()), default=math.inf)
            if slack < checks.TREE_SLACK:
                continue
            retained += 1
            single = oracle.brute_max_single(c1, c2, cfg)
            ent = oracle.brute_max_entangled(c1, c2, cfg)
            levels += [single.iterations, ent.iterations]
            useful = ent.value - single.value > checks.TREE_GAP
            if useful != cls.useful:
                bound = oracle._entangled_bounds(
                    oracle._chois([(c1, c2)]), np.array([ent.arg])
                )[0]
                failures.append(
                    {
                        **channels.format_pair(c1, c2),
                        "node": cls.node,
                        "classified_useful": cls.useful,
                        "single": single.value,
                        "entangled": ent.value,
                        "bound": float(bound),
                    }
                )
        return {
            "mode": "tree",
            "samples": samples,
            "seed": seed,
            "retained": retained,
            "discarded": samples - retained,
            "slack_threshold": checks.TREE_SLACK,
            "gap_threshold": checks.TREE_GAP,
            "refine_levels": {
                "rows": len(levels), "max": max(levels), "total": sum(levels),
            },
            "failures": failures,
            "passed": retained > 0 and not failures,
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_check_tree_equals_per_pair_loop(self, seed):
        cfg = SearchConfig(grid_points=96)
        assert checks.check_tree(8, seed, cfg) == self.per_pair_tree(8, seed, cfg)

    def test_step_counts_are_deterministic_and_capped(self):
        reports = [
            checks.check_lemma1(6, 3, self.CFG),
            checks.check_lemma2(3, 3, self.CFG),
            checks.check_quasi_extreme(6, 3, self.CFG),
            checks.check_tree(8, 3, self.CFG),
        ]
        again = checks.check_tree(8, 3, self.CFG)
        assert again["refine_levels"] == reports[-1]["refine_levels"]
        for rep in reports:
            levels = rep["refine_levels"]
            assert 1 <= levels["max"] <= LEVEL_CAP
            assert levels["rows"] <= levels["total"] <= levels["rows"] * levels["max"]
        for c1, c2 in self.pairs(64, 4):
            for r in oracle.brute_max_many([(c1, c2)], self.CFG)[0]:
                assert 1 <= r.iterations <= LEVEL_CAP
            params = discrim.compute_params(c1, c2)
            assert params.single.iterations == params.entangled.iterations == 0
