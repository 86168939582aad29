import math

import numpy as np
import pytest

from entdisc import channels, checks, discrim, oracle, smallmat
from entdisc.channels import ExtremalChannel, QubitChannel
from entdisc.oracle import Measurement, PureState2, PureState4, SearchConfig

FAST = SearchConfig(grid_points=64, multistarts=16, refine_tol=1e-10, rng_seed=9)


def random_pair(rng, mixtures=False):
    if mixtures:
        def make():
            return QubitChannel.mixture(
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
            PureState2(1.0, 1.0)
        with pytest.raises(ValueError):
            PureState4((1.0, 0.5, 0, 0))

    def test_bloch_construction(self):
        s = PureState2.from_bloch(math.pi / 2, 0.0)
        np.testing.assert_allclose(s.vector, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_schmidt_and_product(self):
        s = PureState4.schmidt(0.6, 0.8)
        np.testing.assert_allclose(s.vector, [0.6, 0, 0, 0.8])
        prod = PureState4.product(PureState2(1, 0), PureState2(0, 1))
        np.testing.assert_allclose(prod.vector, [0, 1, 0, 0])


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_points=32)
        with pytest.raises(ValueError):
            SearchConfig(multistarts=4)
        with pytest.raises(ValueError):
            SearchConfig(refine_tol=0.0)


class TestDeltas:
    def test_identical_channels_vanish(self):
        c = QubitChannel.extremal(0.7, 0.2)
        d = oracle.delta_single(c, c, PureState2(0.6, 0.8))
        assert np.max(np.abs(d)) < 1e-14
        d4 = oracle.delta_entangled(c, c, PureState4.schmidt(0.6, 0.8))
        assert np.max(np.abs(d4)) < 1e-14

    def test_orthogonal_outputs(self):
        ident = QubitChannel.extremal(0, 0)
        damp = QubitChannel.extremal(math.pi / 2, 0)
        d = oracle.delta_single(ident, damp, PureState2(0, 1))
        np.testing.assert_allclose(d, np.diag([-1.0, 1.0]), atol=1e-14)
        d0 = oracle.delta_single(ident, damp, PureState2(1, 0))
        assert np.max(np.abs(d0)) < 1e-14

    def test_product_probe_embeds_marginal(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            c1, c2 = random_pair(rng, mixtures=True)
            psi = PureState2.from_bloch(*rng.uniform(0, math.pi, 2))
            probe = PureState4.product(PureState2(1, 0), psi)
            d2 = oracle.delta_single(c1, c2, psi)
            d4 = oracle.delta_entangled(c1, c2, probe)
            assert abs(
                smallmat.trace_norm(d4) - smallmat.trace_norm(d2)
            ) < 1e-10

    def test_traceless(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            c1, c2 = random_pair(rng, mixtures=True)
            psi = PureState2.from_bloch(*rng.uniform(0, math.pi, 2))
            assert abs(np.trace(oracle.delta_single(c1, c2, psi))) < 1e-10
            probe = PureState4.schmidt(
                math.sqrt(0.3), math.sqrt(0.7) * np.exp(0.4j)
            )
            assert abs(np.trace(oracle.delta_entangled(c1, c2, probe))) < 1e-10

    def test_schmidt_phase_leaves_trace_norm_unchanged(self):
        # a phase on |11> is diag(1, e^{i eta}) on the reference qubit, which
        # commutes with id (x) N: the restricted search needs no phase axis
        rng = np.random.default_rng(58)
        for _ in range(10):
            c1, c2 = random_pair(rng, mixtures=True)
            t = rng.uniform(0, 1)
            norms = []
            for eta in np.linspace(0, 2 * math.pi, 7):
                probe = PureState4.schmidt(math.sqrt(1 - t), math.sqrt(t) * np.exp(1j * eta))
                norms.append(smallmat.trace_norm(oracle.delta_entangled(c1, c2, probe)))
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
                    point = oracle._pair_states(np.array([[s[1] ** 2, polar, azim]]))[0]
                    assert np.linalg.norm(point) == pytest.approx(1.0, abs=1e-14)
                    chart = smallmat.trace_norm(
                        oracle.delta_entangled(c1, c2, PureState4(tuple(point)))
                    )
                    state = smallmat.trace_norm(
                        oracle.delta_entangled(c1, c2, PureState4(tuple(amps)))
                    )
                    assert abs(chart - state) < 1e-12

    def test_pair_chart_points(self):
        rng = np.random.default_rng(60)
        params = rng.uniform(0, 1, size=(50, 3)) * [1.0, math.pi, 2.0 * math.pi]
        states = oracle._pair_states(params)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-15)
        # polar angle 0 is the Schmidt family of the restricted search
        params[:, 1] = 0.0
        np.testing.assert_array_equal(
            oracle._pair_states(params), oracle._schmidt_states(params[:, :1])
        )

    def test_schmidt_probe_block_structure(self):
        # the output difference on a0|00> + a1|11> consists of a block on
        # span{|00>,|11>} and a block on span{|01>,|10>} with entries set
        # by the discrimination parameters
        c1 = QubitChannel.extremal(1.2, 0.5)
        c2 = QubitChannel.extremal(0.4, 0.9)
        p = discrim.compute_params(c1, c2)
        a0, a1 = math.sqrt(0.4), math.sqrt(0.6)
        d = oracle.delta_entangled(c1, c2, PureState4.schmidt(a0, a1))
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
                c1, c2, SearchConfig(grid_points=128, multistarts=16, rng_seed=9)
            ).value
            assert abs(v1 - v2) < 1e-6


class TestBruteMaxEntangled:
    def test_identical_channels(self):
        c = QubitChannel.extremal(0.9, 0.4)
        assert oracle.brute_max_entangled(c, c, FAST).value < 1e-12
        assert oracle.brute_max_entangled(c, c, FAST, mode="full").value < 1e-10

    def test_orthogonalizing_pair(self):
        r = oracle.brute_max_entangled(
            QubitChannel.extremal(math.pi / 2, 0), QubitChannel.extremal(0, 0), FAST
        )
        assert r.value == pytest.approx(2.0, abs=1e-9)
        assert r.arg == pytest.approx(1.0, abs=1e-6)

    def test_full_never_beats_restricted(self):
        rng = np.random.default_rng(54)
        for _ in range(4):
            c1, c2 = random_pair(rng)
            restricted = oracle.brute_max_entangled(c1, c2, FAST).value
            full = oracle.brute_max_entangled(c1, c2, FAST, mode="full").value
            assert full <= restricted + 1e-6

    def test_unknown_mode_rejected(self):
        c = QubitChannel.extremal(0.5, 0.1)
        with pytest.raises(ValueError, match="mode"):
            oracle.brute_max_entangled(c, c, FAST, mode="exhaustive")

    def test_optimal_probe_reaches_reported_value(self):
        rng = np.random.default_rng(55)
        c1, c2 = random_pair(rng)
        probe, res = oracle.optimal_entangled_probe(c1, c2, FAST)
        achieved = smallmat.trace_norm(oracle.delta_entangled(c1, c2, probe))
        assert achieved == pytest.approx(res.value, abs=1e-9)


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
            psi = PureState2.from_bloch(*rng.uniform(0, math.pi, 2))
            delta = oracle.delta_single(c1, c2, psi)
            m = oracle.helstrom(delta)
            bias = np.trace(delta @ (m.plus_projector - m.minus_projector)).real
            assert abs(bias - smallmat.trace_norm(delta)) < 1e-9

    def test_projector_validation(self):
        bad = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="idempotent"):
            Measurement(bad, np.eye(2) - bad, 2)


class TestSimulate:
    def _damping_setup(self):
        ident = QubitChannel.extremal(0, 0)
        damp = QubitChannel.extremal(math.pi / 2, 0)
        probe = PureState2(0, 1)
        meas = oracle.helstrom(oracle.delta_single(ident, damp, probe))
        return ident, damp, probe, meas

    def test_orthogonal_outputs_always_win(self):
        ident, damp, probe, meas = self._damping_setup()
        assert oracle.simulate(ident, damp, probe, meas, 10000, 3) == 1.0

    def test_identical_channels_coin_flip(self):
        c = QubitChannel.extremal(0.5, 0.2)
        probe = PureState2(1, 0)
        meas = Measurement(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 2)
        freq = oracle.simulate(c, c, probe, meas, 100000, 7)
        assert abs(freq - 0.5) <= 4 * 0.5 / math.sqrt(100000)

    def test_damping_pair_success_rate(self):
        c1 = QubitChannel.extremal(math.pi / 3, 0)
        c2 = QubitChannel.extremal(math.pi / 6, 0)
        probe = PureState2(0, 1)
        meas = oracle.helstrom(oracle.delta_single(c1, c2, probe))
        freq = oracle.simulate(c1, c2, probe, meas, 100000, 11)
        assert abs(freq - 0.75) <= 4 * 0.5 / math.sqrt(100000)

    def test_deterministic_given_seed(self):
        ident, damp, _, _ = self._damping_setup()
        c1 = QubitChannel.extremal(0.8, 0.1)
        c2 = QubitChannel.extremal(0.2, 0.6)
        probe = PureState2.from_bloch(1.0, 2.0)
        meas = oracle.helstrom(oracle.delta_single(c1, c2, probe))
        a = oracle.simulate(c1, c2, probe, meas, 5000, 123)
        b = oracle.simulate(c1, c2, probe, meas, 5000, 123)
        assert a == b

    def test_dimension_mismatch(self):
        ident, damp, probe, meas = self._damping_setup()
        probe4 = PureState4.schmidt(1.0, 0.0)
        with pytest.raises(ValueError, match="dimension"):
            oracle.simulate(ident, damp, probe4, meas, 10, 1)

    def test_trials_validated(self):
        ident, damp, probe, meas = self._damping_setup()
        with pytest.raises(ValueError, match="trials"):
            oracle.simulate(ident, damp, probe, meas, 0, 1)


class TestConvergence:
    # criterion 2's search budget; of its pairs, the first two converge
    # and the third stops at the sweep cap with starts still gaining
    CFG = SearchConfig(grid_points=128, multistarts=24, rng_seed=202)

    @staticmethod
    def lemma2_pairs(count):
        rng = checks._rng(202)
        return [
            (checks.sample_extremal(rng), checks.sample_extremal(rng))
            for _ in range(count)
        ]

    def test_full_search_reports_the_cap(self):
        (c1, c2), _, (d1, d2) = self.lemma2_pairs(3)
        assert oracle.brute_max_entangled(c1, c2, self.CFG, mode="full").converged
        capped = oracle.brute_max_entangled(d1, d2, self.CFG, mode="full")
        assert capped.converged is False
        assert capped.value > 0.7

    def test_grid_searches_converge(self):
        c1, c2 = self.lemma2_pairs(1)[0]
        assert oracle.brute_max_single(c1, c2, self.CFG).converged
        assert oracle.brute_max_entangled(c1, c2, self.CFG).converged
        _, res = oracle.optimal_entangled_probe(c1, c2, self.CFG)
        assert res.converged

    def test_ascend_lists_capped_starts(self):
        # an objective that always gains never meets the tolerance
        calls = []

        def values(points):
            calls.append(1)
            return points[:, 0] + len(calls)

        starts = np.array([[0.1], [0.2]])
        _, _, capped = oracle._ascend(values, starts, [(0.0, 1.0)], 1e-10)
        assert capped.tolist() == [0, 1]
        _, _, capped = oracle._ascend(
            lambda p: -((p[:, 0] - 0.3) ** 2), starts, [(0.0, 1.0)], 1e-10
        )
        assert capped.tolist() == []

    def test_lemma2_counts_unconverged_full_searches(self):
        rep = checks.check_lemma2(3, 202, self.CFG)
        assert rep["passed"]
        assert rep["full_unconverged"] == 1
