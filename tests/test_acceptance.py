"""Acceptance suite: oracle equivalence and consistency at desk scale.

Each test prints one PASS/FAIL line so the suite can be skimmed from the
pytest -s output.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

from entdisc import channels, checks, discrim, oracle, smallmat
from entdisc.channels import QubitChannel
from entdisc.discrim import DiscrimParams

LEMMA_TOL = 1e-6
TREE_SLACK = 1e-3
TREE_GAP = 1e-6
PROFILE_TOL = 1e-12
IDENTITY_TOL = 1e-12
HELSTROM_TOL = 1e-9
FIXED_POINT_TOL = 1e-9
CPTP_TOL = 1e-10


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_lemma1_equivalence():
    cfg = oracle.SearchConfig(grid_points=128)
    start = time.time()
    rep = checks.check_lemma1(500, 101, cfg)
    elapsed = time.time() - start
    ok = rep["passed"] and rep["max_deviation"] <= LEMMA_TOL
    _report(
        "criterion 1 (single-qubit closed form vs brute force, 500 pairs)",
        ok,
        f"max deviation {rep['max_deviation']:.3e} (tol {LEMMA_TOL}), {elapsed:.1f}s",
    )
    assert ok, rep["failures"][:3]


def test_criterion_2_lemma2_equivalence():
    # Lemma 2 by certificate: on every pair the bound over all two-qubit
    # probes exceeds the restricted maximum by at most LEMMA_TOL
    cfg = oracle.SearchConfig(grid_points=128)
    start = time.time()
    rep = checks.check_lemma2(200, 202, cfg)
    elapsed = time.time() - start
    ok = (
        rep["passed"]
        and rep["max_deviation"] <= LEMMA_TOL
        and rep["max_certified_excess"] <= LEMMA_TOL
    )
    _report(
        "criterion 2 (entangled closed form vs restricted search, and the "
        "certified bound over all two-qubit probes, 200 pairs)",
        ok,
        f"max deviation {rep['max_deviation']:.3e}, "
        f"max certified excess {rep['max_certified_excess']:.3e} (tol {LEMMA_TOL}), "
        f"{elapsed:.1f}s",
    )
    assert ok, rep["failures"][:3]


def test_criterion_3_quasi_extreme_pairs():
    cfg = oracle.SearchConfig(grid_points=96)
    rep = checks.check_quasi_extreme(100, 303, cfg)
    ok = rep["passed"] and rep["max_gap"] <= LEMMA_TOL
    _report(
        "criterion 3 (quasi-extreme pairs gain nothing, 100 pairs)",
        ok,
        f"max entangled advantage {rep['max_gap']:.3e} (tol {LEMMA_TOL})",
    )
    assert ok, rep["failures"][:3]


def test_criterion_4_tree_soundness():
    cfg = oracle.SearchConfig(grid_points=96)
    start = time.time()
    rep = checks.check_tree(500, 404, cfg)
    elapsed = time.time() - start
    ok = rep["passed"] and rep["retained"] > 0
    _report(
        "criterion 4 (decision tree vs oracle, 500 pairs)",
        ok,
        f"{rep['retained']} retained / {rep['discarded']} discarded, "
        f"{len(rep['failures'])} disagreements, {elapsed:.1f}s",
    )
    assert ok, rep["failures"][:3]


def test_criterion_5_equal_gamma_profiles_coincide():
    rng = np.random.default_rng(505)
    worst = 0.0
    grid = np.linspace(0.0, 1.0, 101)
    for k in range(200):
        if k % 2 == 0:
            # pair of quasi-extreme maps with matching cosine signs
            t1, t2 = rng.uniform(0, math.pi, 2)
            p = discrim.compute_params(
                QubitChannel.extremal(t1, t1), QubitChannel.extremal(t2, t2)
            )
        else:
            a, b, g = rng.uniform(-1, 1, 3)
            p = DiscrimParams(a, b, g, -g if rng.integers(2) else g)
        assert abs(abs(p.gamma1) - abs(p.gamma2)) < 1e-14
        for s in grid:
            worst = max(
                worst, abs(discrim.f_entangled(p, s) - discrim.g_single(p, s))
            )
    ok = worst <= PROFILE_TOL
    _report(
        "criterion 5 (equal gamma magnitudes: profiles identical, 200 samples)",
        ok,
        f"max |f - g| {worst:.3e} on a 101-point grid (tol {PROFILE_TOL})",
    )
    assert ok


def test_criterion_6_algebraic_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10**4):
        a, b = rng.uniform(-2, 2, 2)
        s = float(rng.uniform(0, 1))
        lhs = ((1 - s) * a + s * b) ** 2 - 4 * s * (1 - s) * a * b
        rhs = ((1 - s) * a - s * b) ** 2
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= IDENTITY_TOL
    _report(
        "criterion 6 (mean/difference radicand identity, 1e4 samples)",
        ok,
        f"max deviation {worst:.3e} (tol {IDENTITY_TOL})",
    )
    assert ok


def test_criterion_7_helstrom_optimality():
    rng = np.random.default_rng(707)
    worst = 0.0
    for k in range(200):
        c1 = checks.sample_mixture(rng)
        c2 = checks.sample_mixture(rng)
        if k % 2 == 0:
            polar = float(rng.uniform(0, math.pi))
            azimuth = float(rng.uniform(0, 2 * math.pi))
            amps = (
                complex(math.cos(polar / 2.0)),
                complex(math.cos(azimuth), math.sin(azimuth)) * math.sin(polar / 2.0),
            )
        else:
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            amps = tuple(complex(x) for x in v)
        delta = oracle.delta(c1, c2, oracle.PureState(amps))
        m = oracle.helstrom(delta)
        bias = np.trace(delta @ (m.plus_projector - m.minus_projector)).real
        worst = max(worst, abs(bias - np.abs(np.linalg.eigvalsh(delta)).sum()))
    ok = worst <= HELSTROM_TOL
    _report(
        "criterion 7 (Helstrom bias saturates the trace norm, 200 deltas)",
        ok,
        f"max deviation {worst:.3e} (tol {HELSTROM_TOL})",
    )
    assert ok


def test_criterion_8_montecarlo_consistency():
    rep = checks.check_montecarlo(10**6, 808)
    exact = rep["cases"][0]
    ok = (
        rep["passed"]
        and exact["empirical"] == 1.0
        and abs(exact["distance"] - 2.0) <= 1e-12
    )
    worst_z = max(abs(c["z"]) for c in rep["cases"])
    _report(
        "criterion 8 (seeded Monte-Carlo vs Helstrom value, 3 pairs x 1e6 trials)",
        ok,
        f"worst |z| {worst_z:.2f} (band 4), orthogonal pair exact "
        f"{exact['empirical']:.1f} at distance {exact['distance']:.13f}",
    )
    assert ok, rep["cases"]


def test_criterion_9_worked_fixed_point():
    c1 = QubitChannel.extremal(math.pi / 2, 0.0)
    c2 = QubitChannel.extremal(0.0, 0.0)
    p = discrim.compute_params(c1, c2)
    # beta and both zeros are exact in IEEE; gamma1 picks up one rounding
    # of cos(pi/2) ~ 6.1e-17 from the float pi/2 input
    params_ok = (
        p.alpha == 0.0
        and p.beta == -1.0
        and p.gamma2 == 0.0
        and abs(p.gamma1 + 1.0) <= 1e-15
    )
    single = discrim.max_distance_single(p).value
    ent = discrim.max_distance_entangled(p).value
    cls = discrim.classify_pair(c1, c2)
    ok = (
        params_ok
        and abs(single - 2.0) <= FIXED_POINT_TOL
        and abs(ent - 2.0) <= FIXED_POINT_TOL
        and not cls.useful
    )
    _report(
        "criterion 9 (orthogonalizing fixed point)",
        ok,
        f"params ({p.alpha}, {p.beta}, {p.gamma1:.17g}, {p.gamma2}), "
        f"single {single:.12f}, entangled {ent:.12f}, useful={cls.useful}",
    )
    assert ok


def test_criterion_10_cptp_validity():
    # the Kraus sets and Choi matrices every oracle search builds
    rng = np.random.default_rng(1010)
    worst_eig = 0.0
    worst_comp = 0.0
    for k in range(1000):
        if k % 2 == 0:
            c = QubitChannel.extremal(*rng.uniform(0, math.pi, 2))
        else:
            c = checks.sample_mixture(rng)
        ops = channels.kraus_operators(c)
        total = np.einsum("kba,kbc->ac", ops.conj(), ops)
        comp = float(np.max(np.abs(total - np.eye(2))))
        choi = channels.choi_matrix(c)
        min_eig = float(smallmat.hermitian_eigensystem(choi)[0][0])
        worst_comp = max(worst_comp, comp)
        worst_eig = min(worst_eig, min_eig) if k else min_eig
    ok = worst_comp <= CPTP_TOL and worst_eig >= -CPTP_TOL
    _report(
        "criterion 10 (CPTP validity of 1000 constructed channels)",
        ok,
        f"max completeness deviation {worst_comp:.3e}, "
        f"min Choi eigenvalue {worst_eig:.3e} (tol {CPTP_TOL})",
    )
    assert ok
