import math

import numpy as np
import pytest

from entdisc import channels, smallmat
from entdisc.channels import ExtremalChannel, QubitChannel


PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)


def act(c, rho):
    """``c`` on a one-qubit density matrix, or id (x) c on a two-qubit one:
    the Kraus sum sum_k K rho K^dag, with I (x) K on two qubits."""
    ops = channels.kraus_operators(c)
    if len(rho) == 4:
        ops = [np.kron(np.eye(2), op) for op in ops]
    return sum(op @ rho @ op.conj().T for op in ops)


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def kraus_pair(e, w=1.0):
    """w K0 and w K1 of the extremal component ``e``, from the paper's
    formulas K0 = diag(cos theta, cos phi), K1 = antidiag(sin phi, sin theta)."""
    return np.array([
        [[w * math.cos(e.theta), 0.0], [0.0, w * math.cos(e.phi)]],
        [[0.0, w * math.sin(e.phi)], [w * math.sin(e.theta), 0.0]],
    ], dtype=complex)


class TestKrausOf:
    def test_identity_channel(self):
        # K0 = I, and the all-zero K1 is dropped
        ops = channels.kraus_operators(QubitChannel.extremal(0.0, 0.0))
        np.testing.assert_array_equal(ops, [np.eye(2)])

    def test_full_amplitude_damping(self):
        k0, k1 = channels.kraus_operators(QubitChannel.extremal(math.pi / 2, 0.0))
        np.testing.assert_allclose(k0, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(k1, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)

    def test_partial_damping(self):
        k0, k1 = channels.kraus_operators(QubitChannel.extremal(math.pi / 3, 0.0))
        np.testing.assert_allclose(k0, np.diag([1.0, 0.5]), atol=1e-15)
        np.testing.assert_allclose(
            k1, [[0.0, math.sqrt(3) / 2], [0.0, 0.0]], atol=1e-15
        )

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError, match="phi"):
            ExtremalChannel(4.0, 0.0)
        with pytest.raises(ValueError, match="lambda"):
            QubitChannel(1.5, ExtremalChannel(0, 0), ExtremalChannel(0, 0))


class TestKrausOfMixture:
    def test_degenerate_weight_acts_like_component(self):
        c = QubitChannel.extremal(1.0, 0.4)
        rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
        out_mix = act(c, rho)
        expected = sum(k @ rho @ k.conj().T for k in kraus_pair(c.first))
        np.testing.assert_allclose(out_mix, expected, atol=1e-12)

    def test_equal_components_act_like_one(self):
        e = ExtremalChannel(0.9, 0.2)
        c = QubitChannel(0.5, e, e)
        rho = np.diag([0.25, 0.75]).astype(complex)
        one = sum(k @ rho @ k.conj().T for k in kraus_pair(e))
        np.testing.assert_allclose(act(c, rho), one, atol=1e-12)

    def test_pauli_channel_mixture(self):
        # lam * N(theta, theta) + (1-lam) * N(theta2, pi - theta2) has all
        # four Kraus operators proportional to Pauli matrices
        theta, theta2 = 0.6, 1.1
        c = QubitChannel(
            0.3, ExtremalChannel(theta, theta), ExtremalChannel(theta2, math.pi - theta2)
        )
        ops = channels.kraus_operators(c)
        assert len(ops) == 4
        for op in ops:
            scale = np.max(np.abs(op))
            assert scale > 0
            overlaps = [abs(np.trace(p.conj().T @ op)) / (2 * scale) for p in PAULIS]
            assert max(overlaps) == pytest.approx(1.0, abs=1e-12)
        # unital: no translation of the Bloch ball
        np.testing.assert_allclose(affine(c)[1:, 0], 0.0, atol=1e-12)

    def test_completeness(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            c = QubitChannel(
                float(rng.uniform(0, 1)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
            )
            ops = channels.kraus_operators(c)
            total = np.einsum("kba,kbc->ac", ops.conj(), ops)
            assert np.max(np.abs(total - np.eye(2))) < 1e-10


class TestKrausOperators:
    @staticmethod
    def kept(c):
        ops = channels.kraus_operators(c)
        assert ops.dtype == complex and ops.shape[1:] == (2, 2)
        return ops

    def test_identity_drops_its_zero_k1(self):
        ops = self.kept(QubitChannel.extremal(0.0, 0.0))
        np.testing.assert_array_equal(ops, [np.eye(2)])

    def test_rounding_residue_is_dropped(self):
        # cos(pi/2) is about 6e-17: the K0 of the X-flip is all rounding
        flip = ExtremalChannel(math.pi / 2, math.pi / 2)
        k0, k1 = kraus_pair(flip)
        assert 0.0 < np.max(np.abs(k0)) <= 1e-15
        ops = self.kept(QubitChannel.extremal(flip.phi, flip.theta))
        np.testing.assert_array_equal(ops, [k1])

    def test_threshold_is_strict(self):
        # K1 = [[0, 0], [sin(theta), 0]] with theta just above and at the cut
        assert len(self.kept(QubitChannel.extremal(0.0, 2e-15))) == 2
        assert len(self.kept(QubitChannel.extremal(0.0, 1e-15))) == 1

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_zero_weight_half_is_dropped(self, lam):
        first, second = ExtremalChannel(0.7, 0.3), ExtremalChannel(2.1, 1.2)
        ops = self.kept(QubitChannel(lam, first, second))
        kept = first if lam == 1.0 else second
        np.testing.assert_array_equal(ops, kraus_pair(kept))

    def test_generic_mixture_keeps_all_four(self):
        first, second = ExtremalChannel(0.7, 0.3), ExtremalChannel(2.1, 1.2)
        c = QubitChannel(0.4, first, second)
        np.testing.assert_array_equal(
            self.kept(c),
            np.concatenate([
                kraus_pair(first, math.sqrt(0.4)), kraus_pair(second, math.sqrt(0.6))
            ]),
        )

    def test_choi_matrix_matches_kron_reference(self):
        # bit for bit sum_k vec(K_k) vec(K_k)^dag, vec stacking the columns
        # of the paper's Kraus operators, the all-zero ones dropped
        rng = np.random.default_rng(26)
        chans = [QubitChannel.extremal(0.0, 0.0),
                 QubitChannel.extremal(math.pi / 2, math.pi / 2)]
        for _ in range(40):
            e1 = ExtremalChannel(*rng.uniform(0, math.pi, 2))
            e2 = ExtremalChannel(*rng.uniform(0, math.pi, 2))
            chans += [QubitChannel.extremal(e1.phi, e1.theta),
                      QubitChannel(float(rng.uniform(0, 1)), e1, e2),
                      QubitChannel(float(rng.choice([0.0, 1.0])), e1, e2)]
        for c in chans:
            vecs = [
                op.T.reshape(-1)
                for w, e in ((math.sqrt(c.lam), c.first),
                             (math.sqrt(1.0 - c.lam), c.second))
                for op in kraus_pair(e, w)
                if np.max(np.abs(op)) > 1e-15
            ]
            reference = sum(np.outer(v, v.conj()) for v in vecs)
            assert channels.choi_matrix(c).tobytes() == reference.tobytes()


class TestApply:
    def test_identity(self):
        rho = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
        np.testing.assert_allclose(
            act(QubitChannel.extremal(0, 0), rho), rho, atol=1e-14
        )

    def test_full_damping_ground_state(self):
        c = QubitChannel.extremal(math.pi / 2, 0.0)
        out = act(c, np.diag([0.0, 1.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_partial_damping_populations(self):
        c = QubitChannel.extremal(math.pi / 3, 0.0)
        out = act(c, np.diag([0.0, 1.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-14)

    def test_preserves_density_properties(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            c = QubitChannel(
                float(rng.uniform(0, 1)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
            )
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            out = act(c, np.outer(v, v.conj()))
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert smallmat.hermitian_eigensystem(out)[0][0] > -1e-10


class TestApplyExtended:
    def test_identity(self):
        rho = bell_phi_plus()
        out = act(QubitChannel.extremal(0, 0), rho)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_full_damping_on_bell_state(self):
        c = QubitChannel.extremal(math.pi / 2, 0.0)
        out = act(c, bell_phi_plus())
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[2, 2] = 0.5
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_schmidt_probe_splits_into_two_pure_pieces(self):
        phi, theta = 1.1, 0.4
        a0, a1 = math.sqrt(0.3), math.sqrt(0.7)
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = a0, a1
        out = act(
            QubitChannel.extremal(phi, theta), np.outer(psi, psi.conj())
        )
        piece1 = np.zeros(4, dtype=complex)
        piece1[0] = a0 * math.cos(theta)
        piece1[3] = a1 * math.cos(phi)
        piece2 = np.zeros(4, dtype=complex)
        piece2[1] = a0 * math.sin(theta)
        piece2[2] = a1 * math.sin(phi)
        expected = np.outer(piece1, piece1.conj()) + np.outer(piece2, piece2.conj())
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            c = QubitChannel(
                float(rng.uniform(0, 1)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
            )
            va = rng.normal(size=2) + 1j * rng.normal(size=2)
            vb = rng.normal(size=2) + 1j * rng.normal(size=2)
            va /= np.linalg.norm(va)
            vb /= np.linalg.norm(vb)
            ra, rb = np.outer(va, va.conj()), np.outer(vb, vb.conj())
            lhs = act(c, np.kron(ra, rb))
            rhs = np.kron(ra, act(c, rb))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def affine(c):
    """The affine Bloch picture of ``c`` from its Kraus sum: the 4 x 4 real
    matrix taking (1, x, y, z) of rho to (1, x, y, z) of c(rho), with
    entries tr(sigma_k c(sigma_l)) / 2."""
    return np.array(
        [[np.trace(sk @ act(c, sl)).real / 2.0 for sl in PAULIS] for sk in PAULIS]
    )


def paper_affine(c):
    """The same matrix from the paper's formulas: an extremal component
    scales (x, y, z) by (cos(phi - theta), cos(phi + theta), their product)
    and shifts z by sin(phi - theta) sin(phi + theta); a mixture combines
    its components convexly."""
    def component(e):
        l1, l2 = math.cos(e.phi - e.theta), math.cos(e.phi + e.theta)
        m = np.diag([1.0, l1, l2, l1 * l2])
        m[3, 0] = math.sin(e.phi - e.theta) * math.sin(e.phi + e.theta)
        return m

    return c.lam * component(c.first) + (1.0 - c.lam) * component(c.second)


class TestAffineMap:
    def test_identity(self):
        c = QubitChannel.extremal(0, 0)
        np.testing.assert_array_equal(affine(c), np.eye(4))
        np.testing.assert_array_equal(paper_affine(c), np.eye(4))

    def test_full_damping(self):
        c = QubitChannel.extremal(math.pi / 2, 0)
        # every Bloch vector goes to the ground state z = 1
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 0] = 1.0
        np.testing.assert_allclose(affine(c), expected, atol=1e-15)
        np.testing.assert_allclose(paper_affine(c), expected, atol=1e-15)

    @staticmethod
    def _bloch(rho):
        return np.array([np.trace(rho @ s).real for s in PAULIS[1:]])

    def test_matches_reconstruction_from_basis_states(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            c = QubitChannel(
                float(rng.uniform(0, 1)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
            )
            m = affine(c)
            np.testing.assert_allclose(m, paper_affine(c), atol=1e-12)
            t = self._bloch(act(c, 0.5 * np.eye(2, dtype=complex)))
            np.testing.assert_allclose(t, m[1:, 0], atol=1e-10)
            for k, sigma in enumerate(PAULIS[1:]):
                out = act(c, 0.5 * (np.eye(2, dtype=complex) + sigma))
                np.testing.assert_allclose(
                    self._bloch(out) - t, m[1:, k + 1], atol=1e-10
                )

    def test_image_inside_bloch_ball(self):
        rng = np.random.default_rng(25)
        c = QubitChannel.extremal(*rng.uniform(0, math.pi, 2))
        m = affine(c)
        np.testing.assert_allclose(m, paper_affine(c), atol=1e-12)
        for _ in range(2000):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(m[1:] @ np.concatenate([[1.0], v])) <= 1.0 + 1e-12


class TestChoiMatrix:
    def test_extremal_choi_rank_at_most_two(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            c = QubitChannel.extremal(*rng.uniform(0, math.pi, 2))
            choi = channels.choi_matrix(c)
            vals = smallmat.hermitian_eigensystem(choi)[0]
            assert vals[0] > -1e-10
            assert vals[1] < 1e-9

    def test_is_the_channel_on_each_matrix_unit(self):
        # J = sum_ab |a><b| (x) c(|a><b|), each c(|a><b|) a Kraus sum
        rng = np.random.default_rng(29)
        units = np.eye(4).reshape(4, 2, 2)  # |a><b| at row 2a + b
        for k in range(60):
            c = QubitChannel(
                float(rng.uniform(0, 1)) if k % 2 else 1.0,
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
                ExtremalChannel(*rng.uniform(0, math.pi, 2)),
            )
            reference = sum(np.kron(u, act(c, u)) for u in units)
            assert np.max(np.abs(channels.choi_matrix(c) - reference)) <= 1e-15


def quasi_extreme(e):
    return channels.quasi_extreme_sines(math.sin(e.phi), math.sin(e.theta))


class TestQuasiExtreme:
    def test_equal_angles(self):
        assert quasi_extreme(ExtremalChannel(math.pi / 4, math.pi / 4))

    def test_supplementary_angles(self):
        assert quasi_extreme(ExtremalChannel(math.pi / 4, 3 * math.pi / 4))

    def test_generic_pair_not_quasi(self):
        assert not quasi_extreme(ExtremalChannel(math.pi / 3, math.pi / 6))


class TestLiterals:
    @pytest.mark.parametrize(
        "text",
        [
            "identity",
            "ad(0.7)",
            "extremal(1.2,0.4)",
            "mix(0.25;1.2,0.4;0.3,2.0)",
            "pauli(0.5,0.6,1.1)",
        ],
    )
    def test_round_trip(self, text):
        c = channels.parse_channel(text)
        again = channels.parse_channel(channels.format_channel(c))
        assert again == c

    def test_identity_is_extremal_zero(self):
        assert channels.parse_channel("identity") == QubitChannel.extremal(0, 0)

    def test_ad_preset(self):
        assert channels.parse_channel("ad(0.9)") == QubitChannel.extremal(0.9, 0.0)

    def test_pauli_preset_components_quasi_extreme(self):
        c = channels.parse_channel("pauli(0.4,0.5,1.0)")
        assert quasi_extreme(c.first)
        assert quasi_extreme(c.second)

    def test_angle_out_of_range_names_literal(self):
        with pytest.raises(channels.ChannelParseError, match="extremal"):
            channels.parse_channel("extremal(4.0,0)")

    def test_bad_token_named(self):
        with pytest.raises(channels.ChannelParseError, match="spam"):
            channels.parse_channel("extremal(spam,0)")

    def test_unknown_kind(self):
        with pytest.raises(channels.ChannelParseError, match="bogus"):
            channels.parse_channel("bogus(1,2)")
