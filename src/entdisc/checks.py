"""Seeded verification sweeps: closed forms vs oracle, tree vs oracle.

These are the engines behind ``entdisc verify`` and the acceptance tests.
Each check draws reproducible samples from a PCG64 stream, runs the
relevant comparison, and returns a plain report dict with the worst
deviation and the full inputs of any failing sample.  A check draws all
its pairs first and then runs the Bloch and restricted oracle searches it
needs for them as the rows of a single zoom; its report gives their zoom
levels (``refine_levels``).  Lemma 2 is checked by certificate, not by a
search: on every pair the certified bound over all two-qubit probes
(:func:`oracle._entangled_bounds`) may exceed the restricted maximum by at
most ``LEMMA_TOL``.  The Monte-Carlo check runs :func:`oracle.simulate` on
each case's best probe, the same experiment as ``entdisc simulate``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import channels, discrim, oracle

LEMMA_TOL = 1e-6
TREE_SLACK = 1e-3
TREE_GAP = 1e-6
SIGMA_BAND = 4.0


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(seed))


def sample_extremal(rng) -> channels.QubitChannel:
    phi, theta = rng.uniform(0.0, math.pi, size=2)
    return channels.QubitChannel.extremal(float(phi), float(theta))


def sample_mixture(rng) -> channels.QubitChannel:
    lam = float(rng.uniform(0.0, 1.0))
    p1, t1, p2, t2 = rng.uniform(0.0, math.pi, size=4)
    return channels.QubitChannel(
        lam,
        channels.ExtremalChannel(float(p1), float(t1)),
        channels.ExtremalChannel(float(p2), float(t2)),
    )


def sample_quasi_extreme(rng) -> channels.QubitChannel:
    """A quasi-extreme point map; both cos-sign families are covered."""
    theta = float(rng.uniform(0.0, math.pi))
    if rng.integers(0, 2) == 0:
        phi = theta  # cos(theta) = cos(phi)
    else:
        phi = math.pi - theta  # cos(theta) = -cos(phi)
    return channels.QubitChannel.extremal(phi, theta)


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _draw_pairs(samples: int, rng, sample) -> list:
    return [(sample(rng), sample(rng)) for _ in range(samples)]


def _alternating_pairs(rng, count: int):
    """``count`` seeded pairs: extremal pairs at even k, mixtures at odd k."""
    for k in range(count):
        sample = sample_extremal if k % 2 == 0 else sample_mixture
        yield sample(rng), sample(rng)


def _refine_levels(results) -> dict:
    """Zoom levels of a check's searches, one result each: a batch costs
    its longest row (max), a per-pair loop every row (total)."""
    levels = [r.iterations for r in results]
    return {"rows": len(levels), "max": max(levels, default=0), "total": sum(levels)}


def check_lemma1(
    samples: int, seed: int, cfg: oracle.SearchConfig = oracle.DEFAULT_CONFIG
) -> dict:
    """Closed-form single-qubit maximum vs Bloch-sphere brute force."""
    _require_samples(samples)
    pairs = _draw_pairs(samples, _rng(seed), sample_extremal)
    brutes = oracle._grid_searches(oracle._superops(pairs), cfg, restricted=False)[0]
    max_dev = 0.0
    failures = []
    for (c1, c2), brute in zip(pairs, brutes):
        closed = discrim.compute_params(c1, c2).single.value
        dev = abs(closed - brute.value)
        max_dev = max(max_dev, dev)
        if dev > LEMMA_TOL:
            record = {"closed": closed, "brute": brute.value, "dev": dev}
            failures.append({**channels.format_pair(c1, c2), **record})
    return {
        "mode": "lemma1",
        "samples": samples,
        "seed": seed,
        "tolerance": LEMMA_TOL,
        "max_deviation": max_dev,
        "refine_levels": _refine_levels(brutes),
        "failures": failures,
        "passed": not failures,
    }


def check_lemma2(
    samples: int, seed: int, cfg: oracle.SearchConfig = oracle.DEFAULT_CONFIG
) -> dict:
    """Closed-form entangled maximum vs restricted search, and Lemma 2 by
    certificate: on every pair, the certified bound over all two-qubit
    probes at the restricted maximizer exceeds the restricted maximum by at
    most ``LEMMA_TOL`` (``max_certified_excess``)."""
    _require_samples(samples)
    pairs = _draw_pairs(samples, _rng(seed), sample_extremal)
    lmats = oracle._superops(pairs)
    restricted_all = oracle._grid_searches(lmats, cfg, bloch=False)[0]
    bounds = oracle._entangled_bounds(lmats, np.array([r.arg for r in restricted_all]))
    max_dev = 0.0
    max_excess = -math.inf
    failures = []
    for (c1, c2), restricted, bound in zip(pairs, restricted_all, bounds):
        closed = discrim.compute_params(c1, c2).entangled.value
        dev = abs(closed - restricted.value)
        excess = float(bound) - restricted.value
        max_dev = max(max_dev, dev)
        max_excess = max(max_excess, excess)
        if dev > LEMMA_TOL or excess > LEMMA_TOL:
            failures.append(
                {
                    **channels.format_pair(c1, c2),
                    "closed": closed,
                    "restricted": restricted.value,
                    "bound": float(bound),
                }
            )
    return {
        "mode": "lemma2",
        "samples": samples,
        "seed": seed,
        "tolerance": LEMMA_TOL,
        "max_deviation": max_dev,
        "max_certified_excess": max_excess,
        "refine_levels": _refine_levels(restricted_all),
        "failures": failures,
        "passed": not failures,
    }


def check_quasi_extreme(
    samples: int, seed: int, cfg: oracle.SearchConfig = oracle.DEFAULT_CONFIG
) -> dict:
    """For pairs of quasi-extreme maps the entangled optimum never wins."""
    _require_samples(samples)
    pairs = _draw_pairs(samples, _rng(seed), sample_quasi_extreme)
    brutes = oracle.brute_max_many(pairs, cfg)
    max_gap = -math.inf
    failures = []
    for (c1, c2), (single, ent) in zip(pairs, brutes):
        gap = ent.value - single.value
        max_gap = max(max_gap, gap)
        if gap > LEMMA_TOL:
            record = {"single": single.value, "entangled": ent.value, "gap": gap}
            failures.append({**channels.format_pair(c1, c2), **record})
    return {
        "mode": "quasi-extreme",
        "samples": samples,
        "seed": seed,
        "tolerance": LEMMA_TOL,
        "max_gap": max_gap,
        "refine_levels": _refine_levels(itertools.chain(*brutes)),
        "failures": failures,
        "passed": not failures,
    }


def check_tree(
    samples: int, seed: int, cfg: oracle.SearchConfig = oracle.DEFAULT_CONFIG
) -> dict:
    """Decision-tree verdicts vs the brute-force advantage test.

    Samples alternate between extremal pairs and mixtures.  Samples whose
    classification has any slack below 1e-3 sit too close to a tree
    boundary for floating point and are discarded; the rest must agree
    with (brute entangled - brute single > 1e-6) exactly.  A disagreement
    is a failure; its record carries the certified bound over all
    two-qubit probes (``bound``), so a reader can tell a search that fell
    short from a wrong verdict.  A run that retains no sample checked
    nothing and does not pass.
    """
    _require_samples(samples)
    kept = []
    for c1, c2 in _alternating_pairs(_rng(seed), samples):
        cls = discrim.classify_pair(c1, c2)
        if cls.margins and min(abs(v) for v in cls.margins.values()) < TREE_SLACK:
            continue
        kept.append((c1, c2, cls))
    brutes = oracle.brute_max_many([(c1, c2) for c1, c2, _ in kept], cfg)
    failures = []
    for (c1, c2, cls), (single, ent) in zip(kept, brutes):
        oracle_useful = (ent.value - single.value) > TREE_GAP
        if oracle_useful != cls.useful:
            bound = oracle._entangled_bounds(
                oracle._superops([(c1, c2)]), np.array([ent.arg])
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
        "retained": len(kept),
        "discarded": samples - len(kept),
        "slack_threshold": TREE_SLACK,
        "gap_threshold": TREE_GAP,
        "refine_levels": _refine_levels(itertools.chain(*brutes)),
        "failures": failures,
        "passed": bool(kept) and not failures,
    }


def find_useful_pair(
    seed: int = 2026, min_gap: float = 0.05
) -> tuple[channels.QubitChannel, channels.QubitChannel]:
    """First seeded random pair the classifier marks useful by a clear gap."""
    for c1, c2 in _alternating_pairs(_rng(seed), 10000):
        cls = discrim.classify_pair(c1, c2)
        if cls.useful and cls.margins.get("value_gap", 0.0) > min_gap:
            return c1, c2
    raise RuntimeError("no useful pair found in the seeded stream")


def montecarlo_cases() -> list:
    """The three fixed channel pairs used by the Monte-Carlo consistency check."""
    identity = channels.QubitChannel.extremal(0.0, 0.0)
    full_ad = channels.QubitChannel.extremal(math.pi / 2.0, 0.0)
    pair3 = find_useful_pair()
    return [
        ("identity-vs-full-ad", identity, full_ad),
        ("ad(pi/3)-vs-ad(pi/6)",
         channels.QubitChannel.extremal(math.pi / 3.0, 0.0),
         channels.QubitChannel.extremal(math.pi / 6.0, 0.0)),
        ("useful-pair", pair3[0], pair3[1]),
    ]


def check_montecarlo(
    trials: int, seed: int, cfg: oracle.SearchConfig = oracle.DEFAULT_CONFIG
) -> dict:
    """Empirical Helstrom success frequencies vs the closed-form value."""
    cases = []
    failures = []
    for k, (name, c1, c2) in enumerate(montecarlo_cases()):
        cls = discrim.classify_pair(c1, c2)
        if cls.useful:
            probe, _ = oracle.optimal_entangled_probe(c1, c2, cfg)
        else:
            t = cls.params.single.arg
            probe = oracle.PureState(
                (complex(math.sqrt(1.0 - t)), complex(math.sqrt(t)))
            )
        distance, emp = oracle.simulate(c1, c2, probe, trials, seed + k)
        theo = discrim.success_probability(distance)
        sigma = math.sqrt(max(theo * (1.0 - theo), 0.0) / trials)
        if sigma == 0.0:
            z = 0.0 if emp == theo else math.inf
            ok = emp == theo
        else:
            z = (emp - theo) / sigma
            ok = abs(z) <= SIGMA_BAND
        record = {
            "case": name,
            **channels.format_pair(c1, c2),
            "distance": distance,
            "theoretical": theo,
            "empirical": emp,
            "z": z if math.isfinite(z) else 1e300,
            "trials": trials,
        }
        cases.append(record)
        if not ok:
            failures.append(record)
    return {
        "mode": "montecarlo",
        "trials": trials,
        "seed": seed,
        "sigma_band": SIGMA_BAND,
        "cases": cases,
        "failures": failures,
        "passed": not failures,
    }
