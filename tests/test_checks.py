"""The checks stream their pairs in chunks: the same reports, bounded memory."""

import tracemalloc

import pytest

from entdisc import checks, cli, oracle

CFG = oracle.SearchConfig(grid_points=96)

SAMPLED = [
    checks.check_lemma1,
    checks.check_lemma2,
    checks.check_quasi_extreme,
    checks.check_tree,
]


@pytest.mark.parametrize("check", SAMPLED, ids=lambda c: c.__name__)
def test_chunked_report_is_the_one_chunk_report(check, monkeypatch):
    zooms = []
    zoom = oracle._zoom

    def counting(coef, *args):
        zooms.append(len(coef))
        return zoom(coef, *args)

    monkeypatch.setattr(oracle, "_zoom", counting)
    chunk = 4
    samples = 2 * chunk + 3
    monkeypatch.setattr(checks, "_CHUNK", chunk)
    chunked = cli._emit_json(check(samples, 5, CFG))
    assert len(zooms) == 3  # one zoom a chunk: 4 + 4 + 3 pairs
    monkeypatch.setattr(checks, "_CHUNK", samples)
    zooms.clear()
    whole = cli._emit_json(check(samples, 5, CFG))
    assert len(zooms) == 1
    assert chunked == whole


@pytest.mark.parametrize(
    "check",
    [checks.check_lemma1, checks.check_lemma2, checks.check_tree],
    ids=lambda c: c.__name__,
)
def test_memory_does_not_grow_with_samples(check, monkeypatch):
    # with every pair drawn and searched at once the peak grew about 9x
    # from 24 to 240 samples; in chunks of 8 it grows by about a quarter
    monkeypatch.setattr(checks, "_CHUNK", 8)
    check(8, 0, CFG)  # numpy's first-call allocations stay out of the peaks
    peaks = []
    for samples in (24, 240):
        tracemalloc.start()
        try:
            check(samples, 1, CFG)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]
