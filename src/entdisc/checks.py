"""Seeded verification sweeps: closed forms vs oracle, tree vs oracle.

These are the engines behind ``entdisc verify`` and the acceptance tests.
Each check draws reproducible samples from a PCG64 stream, runs the
relevant comparison, and returns a plain report dict with the worst
deviation and the full inputs of any failing sample.  A check streams its
pairs in chunks of at most ``_CHUNK`` (:func:`_chunks`): it draws a
chunk, runs the Bloch and restricted oracle searches that chunk needs as
the rows of one zoom, and judges it before it draws the next, so its
memory does not grow with the sample count.  Rows never mix, so no
report depends on the chunk size.  One function makes every report
(:func:`_report`); a sampled check's report gives its searches' zoom
levels (``refine_levels``).  Lemma 2 is checked by certificate, not by a
search: on every pair the certified bound over all two-qubit probes
(:func:`oracle._entangled_bounds`) may exceed the restricted maximum by at
most ``LEMMA_TOL``.  The Monte-Carlo check runs :func:`oracle.simulate` on
each case's best probe, the same experiment as ``entdisc simulate``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from . import channels, discrim, oracle

LEMMA_TOL = 1e-6
TREE_SLACK = 1e-3
TREE_GAP = 1e-6
SIGMA_BAND = 4.0
# the most pairs a check holds, and searches as one zoom, at a time
_CHUNK = 1024


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


def _draw_pairs(samples: int, rng, sample):
    return ((sample(rng), sample(rng)) for _ in range(samples))


def _alternating_pairs(rng, count: int):
    """``count`` seeded pairs: extremal pairs at even k, mixtures at odd k."""
    for k in range(count):
        sample = sample_extremal if k % 2 == 0 else sample_mixture
        yield sample(rng), sample(rng)


def _chunks(pairs):
    """``pairs`` in lists of at most ``_CHUNK``, each drawn when it is needed."""
    pairs = iter(pairs)
    while chunk := list(itertools.islice(pairs, _CHUNK)):
        yield chunk


def _failure(c1, c2, **record) -> dict:
    return {**channels.format_pair(c1, c2), **record}


def _report(mode, failures, levels=None, passed=True, **fields) -> dict:
    """A report: ``mode``, then ``fields`` in order, then, for a check of
    oracle searches, their zoom levels (``levels`` counts the searches at
    each level; a batch costs its longest row, ``max``, a per-pair loop
    every row, ``total``), then ``failures``.  It passes if ``passed`` and
    nothing failed."""
    report = {"mode": mode, **fields}
    if levels is not None:
        report["refine_levels"] = {
            "rows": levels.total(),
            "max": max(levels, default=0),
            "total": sum(level * n for level, n in levels.items()),
        }
    return {**report, "failures": failures, "passed": passed and not failures}


def check_lemma1(
    samples: int, seed: int, cfg: oracle.SearchConfig = oracle.DEFAULT_CONFIG
) -> dict:
    """Closed-form single-qubit maximum vs Bloch-sphere brute force, on
    pairs that alternate between extremal maps and mixtures."""
    _require_samples(samples)
    levels, failures, max_dev = Counter(), [], 0.0
    for chunk in _chunks(_alternating_pairs(_rng(seed), samples)):
        brutes = oracle._grid_searches(oracle._chois(chunk), cfg, restricted=False)[0]
        levels.update(r.iterations for r in brutes)
        for (c1, c2), brute in zip(chunk, brutes):
            closed = discrim.compute_params(c1, c2).single.value
            dev = abs(closed - brute.value)
            max_dev = max(max_dev, dev)
            if dev > LEMMA_TOL:
                failures.append(
                    _failure(c1, c2, closed=closed, brute=brute.value, dev=dev)
                )
    return _report("lemma1", failures, levels, samples=samples, seed=seed,
                   tolerance=LEMMA_TOL, max_deviation=max_dev)


def check_lemma2(
    samples: int, seed: int, cfg: oracle.SearchConfig = oracle.DEFAULT_CONFIG
) -> dict:
    """Closed-form entangled maximum vs restricted search, and Lemma 2 by
    certificate: on every pair, the certified bound over all two-qubit
    probes at the restricted maximizer exceeds the restricted maximum by at
    most ``LEMMA_TOL`` (``max_certified_excess``).  Pairs alternate between
    extremal maps and mixtures."""
    _require_samples(samples)
    levels, failures, max_dev, max_excess = Counter(), [], 0.0, -math.inf
    for chunk in _chunks(_alternating_pairs(_rng(seed), samples)):
        chois = oracle._chois(chunk)
        searches = oracle._grid_searches(chois, cfg, bloch=False)[0]
        bounds = oracle._entangled_bounds(chois, np.array([r.arg for r in searches]))
        levels.update(r.iterations for r in searches)
        for (c1, c2), restricted, bound in zip(chunk, searches, bounds):
            closed = discrim.compute_params(c1, c2).entangled.value
            dev = abs(closed - restricted.value)
            excess = float(bound) - restricted.value
            max_dev = max(max_dev, dev)
            max_excess = max(max_excess, excess)
            if dev > LEMMA_TOL or excess > LEMMA_TOL:
                failures.append(_failure(c1, c2, closed=closed,
                                         restricted=restricted.value,
                                         bound=float(bound)))
    return _report("lemma2", failures, levels, samples=samples, seed=seed,
                   tolerance=LEMMA_TOL, max_deviation=max_dev,
                   max_certified_excess=max_excess)


def check_quasi_extreme(
    samples: int, seed: int, cfg: oracle.SearchConfig = oracle.DEFAULT_CONFIG
) -> dict:
    """For pairs of quasi-extreme maps the entangled optimum never wins."""
    _require_samples(samples)
    levels, failures, max_gap = Counter(), [], -math.inf
    for chunk in _chunks(_draw_pairs(samples, _rng(seed), sample_quasi_extreme)):
        brutes = oracle.brute_max_many(chunk, cfg)
        levels.update(r.iterations for pair in brutes for r in pair)
        for (c1, c2), (single, ent) in zip(chunk, brutes):
            gap = ent.value - single.value
            max_gap = max(max_gap, gap)
            if gap > LEMMA_TOL:
                failures.append(_failure(c1, c2, single=single.value,
                                         entangled=ent.value, gap=gap))
    return _report("quasi-extreme", failures, levels, samples=samples, seed=seed,
                   tolerance=LEMMA_TOL, max_gap=max_gap)


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
    levels, failures, retained = Counter(), [], 0
    for chunk in _chunks(_alternating_pairs(_rng(seed), samples)):
        kept = []
        for c1, c2 in chunk:
            cls = discrim.classify_pair(c1, c2)
            if cls.margins and min(abs(v) for v in cls.margins.values()) < TREE_SLACK:
                continue
            kept.append((c1, c2, cls))
        retained += len(kept)
        brutes = oracle.brute_max_many([(c1, c2) for c1, c2, _ in kept], cfg)
        levels.update(r.iterations for pair in brutes for r in pair)
        for (c1, c2, cls), (single, ent) in zip(kept, brutes):
            if (ent.value - single.value > TREE_GAP) != cls.useful:
                bound = oracle._entangled_bounds(
                    oracle._chois([(c1, c2)]), np.array([ent.arg])
                )[0]
                failures.append(_failure(c1, c2, node=cls.node,
                                         classified_useful=cls.useful,
                                         single=single.value, entangled=ent.value,
                                         bound=float(bound)))
    return _report("tree", failures, levels, retained > 0, samples=samples,
                   seed=seed, retained=retained, discarded=samples - retained,
                   slack_threshold=TREE_SLACK, gap_threshold=TREE_GAP)


# Sample 11 of _alternating_pairs(_rng(2026)): the first pair of that stream
# that the tree marks useful with a value gap above 0.05.
_USEFUL_PAIR = (
    "mix(0.88839542631667667;1.9507262958258362,0.50351660323716163;"
    "2.9752832834253642,0.074243464301736464)",
    "mix(0.29770945642086144;0.88471488107659169,2.1106035686707996;"
    "1.5310962280043989,0.29181798237901352)",
)


def montecarlo_cases() -> list:
    """The three fixed channel pairs used by the Monte-Carlo consistency check."""
    return [
        ("identity-vs-full-ad",
         channels.QubitChannel.extremal(0.0, 0.0),
         channels.QubitChannel.extremal(math.pi / 2.0, 0.0)),
        ("ad(pi/3)-vs-ad(pi/6)",
         channels.QubitChannel.extremal(math.pi / 3.0, 0.0),
         channels.QubitChannel.extremal(math.pi / 6.0, 0.0)),
        ("useful-pair", *map(channels.parse_channel, _USEFUL_PAIR)),
    ]


def check_montecarlo(
    trials: int, seed: int, cfg: oracle.SearchConfig = oracle.DEFAULT_CONFIG
) -> dict:
    """Empirical Helstrom success frequencies vs the closed-form value."""
    cases = []
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
        else:
            z = (emp - theo) / sigma
        cases.append({
            "case": name,
            **channels.format_pair(c1, c2),
            "distance": distance,
            "theoretical": theo,
            "empirical": emp,
            "z": z if math.isfinite(z) else 1e300,
            "trials": trials,
        })
    failures = [case for case in cases if abs(case["z"]) > SIGMA_BAND]
    return _report("montecarlo", failures, trials=trials, seed=seed,
                   sigma_band=SIGMA_BAND, cases=cases)
