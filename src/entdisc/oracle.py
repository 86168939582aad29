"""Brute-force verification: probe search, Helstrom measurements, sampling.

Nothing in this module uses the closed-form distance formulas.  Trace
distances are maximized directly over probe states from the channels'
Choi matrices (:func:`channels.choi_matrix`), so the results serve as an
independent check on the closed forms and on the decision tree.

The Choi matrix is the one picture of a channel here.  A probe with
amplitude matrix M (reference index first) has the output
(M (x) I) J (M (x) I)^dag, and the family is Z-covariant, so J is zero off
its two Z (x) Z blocks and every output the searches need is read off 2x2
blocks of J.  Both searches are one-dimensional and share one maximizer:
a uniform grid, then a zoom inside the grid cells next to its best point
(:func:`_zoom`).

* Bloch (qubit probes): a grid over the polar angle, the azimuth taken at
  its exact best for each polar angle (:func:`_bloch_rows`).
* restricted (pair probes sqrt(1 - t)|00> + sqrt(t)|11>): a grid over the
  Schmidt weight t (:func:`_restricted_rows`).

In the weight t on |1> (Bloch, t = sin^2 of half the polar angle) or on
|11> (restricted) the two are one formula, with no eigensolver: a row's
value is the sum of the trace norms of two Hermitian 2x2 blocks whose
Pauli coordinates are linear in (1 - t, t, sqrt(t (1 - t)))
(:func:`_block_values`, :func:`_tracenorm2`).  A check runs every search
of a chunk of its pairs as the rows of one zoom (:func:`brute_max_many`);
a one-pair search is a one-row call.  Grids and zoom levels are uniform,
ties go to the lowest index and rows never mix, so every search is
deterministic.

No search runs over all of C^4.  Lemma 2 (no two-qubit probe beats the
restricted family) is proved pair by pair instead: by the
Helstrom/diamond-norm duality (Watrous, arXiv:1207.5726), a dual feasible
point at the restricted maximizer bounds ||(id (x) Delta)(psi psi^dag)||_1
over every two-qubit probe psi, and the bound is tight there
(:func:`_entangled_bounds`).

:func:`delta` and :func:`simulate` take a :class:`PureState`, a qubit
probe or a pair probe (on which the channels act as id (x) N), through
:func:`_outputs`.  :func:`simulate` is the whole Helstrom experiment: it
builds each channel's Choi matrix once, takes the output difference and
both outputs as the rows of one stack, measures the difference's
:func:`helstrom` projectors and draws the trials.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import channels, smallmat
from .discrim import DistanceResult

RNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search budget for the brute-force maximizers.

    ``grid_points`` is the number of grid points per axis.  ``refine_tol``
    ends a row's zoom: the first level whose values spread (max - min) by
    less than it is the row's last.  ``multistarts`` and ``rng_seed`` are
    validated but read by no search; they budgeted the seeded search over
    all of C^4 that the certified bound of :func:`_entangled_bounds`
    replaced.
    """

    grid_points: int = 256
    multistarts: int = 64
    refine_tol: float = 1e-15
    rng_seed: int = 42

    def __post_init__(self):
        for name, least in (("grid_points", 64), ("multistarts", 16), ("rng_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        tol = self.refine_tol
        if (
            isinstance(tol, bool)
            or not isinstance(tol, numbers.Real)
            or not (math.isfinite(tol) and tol > 0.0)
        ):
            raise ValueError(f"refine_tol must be finite and positive, got {tol!r}")


DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class PureState:
    """A pure probe state: amplitudes over |0>, |1> (a qubit probe) or over
    |00>, |01>, |10>, |11> (a pair probe, the left qubit the reference)."""

    a: tuple

    def __post_init__(self):
        if len(self.a) not in (2, 4):
            raise ValueError(f"a probe needs 2 or 4 amplitudes, got {len(self.a)}")
        norm = sum(abs(x) ** 2 for x in self.a)
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")

    @classmethod
    def schmidt(cls, a0: complex, a1: complex) -> "PureState":
        return cls((complex(a0), 0j, 0j, complex(a1)))

    @property
    def is_pair(self) -> bool:
        return len(self.a) == 4

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.a, dtype=complex)


@dataclass(frozen=True)
class Measurement:
    """Two-outcome projective measurement (plus/minus eigenspaces)."""

    plus_projector: np.ndarray
    minus_projector: np.ndarray

    def __post_init__(self):
        for proj in (self.plus_projector, self.minus_projector):
            if not np.max(np.abs(proj @ proj - proj)) <= 1e-10:  # NaN fails too
                raise ValueError("projector is not idempotent")
        s = self.plus_projector + self.minus_projector
        if not np.max(np.abs(s - np.eye(len(s)))) <= 1e-10:  # NaN fails too
            raise ValueError("projectors do not sum to the identity")


def _chois(pairs) -> np.ndarray:
    """The Choi matrices J1 - J2 of channel pairs' differences, stacked one
    per row."""
    choi = channels.choi_matrix
    return np.stack([choi(c1) - choi(c2) for c1, c2 in pairs])


def _outputs(c1, c2, probe: PureState) -> np.ndarray:
    """The output difference and the two channel outputs on ``probe``, each
    made Hermitian: (M (x) I) J (M (x) I)^dag for the Choi matrices
    J1 - J2, J1 and J2, built once per channel.  M holds the probe's
    amplitudes, reference index first: a 1x2 matrix for a qubit probe, a
    2x2 one for a pair probe, on which the channels act as id (x) N."""
    j1, j2 = channels.choi_matrix(c1), channels.choi_matrix(c2)
    # M (x) I, entries M[r, a] at row (r i) and column (a i)
    m = (probe.vector.reshape(-1, 1, 2, 1) * np.eye(2)[:, None, :]).reshape(-1, 4)
    d = m @ np.stack([j1 - j2, j1, j2]) @ m.conj().T
    return 0.5 * (d + np.swapaxes(d.conj(), 1, 2))


def delta(c1, c2, probe: PureState) -> np.ndarray:
    """Difference of the two channel outputs on ``probe``; on a pair probe
    the channels act as id (x) N."""
    return _outputs(c1, c2, probe)[0]


# Grid values are trace norms of at most 2, computed from entries of at most
# 1, so their rounding is absolute: points that tie in exact arithmetic (a
# flat restricted row, a profile symmetric in t <-> 1 - t) were measured up
# to 8 eps apart, on 12 000 seeded quasi-extreme pairs at six grid sizes.
# Points within twice that of a row's best count as tied.
_TIE_TOL = 16.0 * np.finfo(float).eps


def _first_best(values: np.ndarray) -> np.ndarray:
    """The lowest index along the last axis of ``values`` whose value is
    within _TIE_TOL of the largest there, so that a pick among tied grid
    points is a property of the grid, not of its rounding."""
    top = np.max(values, axis=-1, keepdims=True)
    return np.argmax(values >= top - _TIE_TOL, axis=-1)


def _tracenorm2(c0, x, y, z):
    """||D||_1 of the Hermitian 2x2 D = c0 I + x X + y Y + z Z, elementwise:
    its eigenvalues are c0 +- |c|, so ||D||_1 = 2 max(|c0|, |c|)."""
    return 2.0 * np.maximum(np.abs(c0), np.sqrt(x * x + y * y + z * z))


def _block_values(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row i's value at each weight of ``t[i]`` (rows x K, or 1 x K shared
    by every row): the sum over its two blocks of ||D||_1 for the Hermitian
    2x2 D whose Pauli coordinates are linear in the products (w00, w11,
    w01) = (1 - t, t, sqrt(t (1 - t))) of the probe's amplitudes
    sqrt(1 - t) and sqrt(t): c0 = u0 w00 + v0 w11, x = p w01, y = q w01
    and z = u3 w00 + v3 w11, with ``coef[i, b]`` = (u0, v0, u3, v3, p, q)
    for block b (``coef`` is rows x 2 x 6).  The products are summed
    elementwise, so a row's values do not depend on the other rows."""
    s0, s1 = np.sqrt(1.0 - t)[:, None, :], np.sqrt(t)[:, None, :]
    w00, w11, w01 = s0 * s0, s1 * s1, s0 * s1
    u0, v0, u3, v3, p, q = np.moveaxis(coef[..., None], 2, 0)
    norms = _tracenorm2(u0 * w00 + v0 * w11, p * w01, q * w01, u3 * w00 + v3 * w11)
    return norms[:, 0] + norms[:, 1]


# the Z (x) Z eigenspaces {|00>, |11>} and {|01>, |10>} (the diagonal of
# Z (x) Z is _ZZ), and the entries of a 4x4 matrix that join the two
_BLOCKS = ((0, 3), (1, 2))
_ZZ = np.array([1, -1, -1, 1])
_OFF_BLOCKS = _ZZ[:, None] != _ZZ[None, :]


def _bloch_rows(chois: np.ndarray, n: int):
    """The Bloch rows of a zoom, one per Choi matrix of ``chois``: each
    row's block coefficients (:func:`_block_values`), and the weights
    t = sin^2(p/2) on |1> of the uniform grid of n polar angles p in
    [0, pi].

    The probe sqrt(1 - t)|0> + e^{ia} sqrt(t)|1> at azimuth a has the
    output with entries sum_ab psi_a conj(psi_b) J[(a i), (b j)].  J is
    zero off the Z (x) Z blocks, so its diagonal is
    (w00 J00 + w11 J22, w00 J11 + w11 J33) and its off-diagonal entry
    w01 (e^{-ia} J03 + e^{ia} J21), with (w00, w11, w01) the products of
    the amplitudes' moduli.  The trace norm grows with that entry's modulus,
    whose largest value over a is w01 (|J03| + |J21|): a row is the maximum
    over the azimuth, exactly, as one block, the other zero.
    """
    d = np.real(chois[:, range(4), range(4)])
    coef = np.zeros((len(chois), 2, 6))
    coef[:, 0, 0], coef[:, 0, 1] = 0.5 * (d[:, 0] + d[:, 1]), 0.5 * (d[:, 2] + d[:, 3])
    coef[:, 0, 2], coef[:, 0, 3] = 0.5 * (d[:, 0] - d[:, 1]), 0.5 * (d[:, 2] - d[:, 3])
    coef[:, 0, 4] = np.abs(chois[:, 0, 3]) + np.abs(chois[:, 2, 1])
    return coef, np.sin(np.linspace(0.0, math.pi, n) / 2.0) ** 2


def _restricted_rows(chois: np.ndarray, n: int):
    """The restricted rows of a zoom, one per Choi matrix of ``chois``:
    each row's block coefficients (:func:`_block_values`), and the uniform
    grid of n Schmidt weights t in [0, 1].

    The probe sqrt(1 - t)|00> + sqrt(t)|11> is sum_ab w_ab |aa><bb|, with
    w_ab the products of its two amplitudes, and id (x) Delta maps it to
    the matrix with entries w_ab J[(a i), (b j)].  J is zero off the two
    Z (x) Z blocks, so the output's trace norm is the sum of those of its
    2x2 blocks [[w00 Jpp, w01 Jpq], [., w11 Jqq]] for (p, q) = (0, 3) and
    (1, 2), with Pauli coordinates c0 = (w00 Jpp + w11 Jqq) / 2,
    x + i y = w01 Jpq and z = (w00 Jpp - w11 Jqq) / 2.
    """
    blocks = []
    for p, q in _BLOCKS:
        jpp, jqq, jpq = chois[:, p, p].real, chois[:, q, q].real, chois[:, p, q]
        blocks.append([0.5 * jpp, 0.5 * jqq, 0.5 * jpp, -0.5 * jqq, jpq.real, jpq.imag])
    return np.array(blocks).transpose(2, 0, 1), np.linspace(0.0, 1.0, n)


# the points a zoom level evaluates across its row's bracket; an odd count,
# so that the bracket's centre is one of them
_ZOOM_POINTS = 33
_ZOOM_STEPS = np.linspace(0.0, 1.0, _ZOOM_POINTS)


def _zoom(coef, lo, hi, best, arg, refine_tol):
    """Refine each row's best grid point inside its bracket.

    Row i maximizes ``_block_values(coef[i], t)`` over t in
    [lo[i], hi[i]], the weights of the grid neighbours of its best grid
    point, whose value best[i] it holds at t = arg[i].  Each level
    evaluates _ZOOM_POINTS evenly spaced weights of the bracket and shrinks
    it 16-fold, to the two neighbours of the level's best point: the first
    largest value, with no tie tolerance, which would steer every bracket
    to the low end of a flat top.  A point replaces the row's best only
    when strictly higher, so no row ends below its grid best.  A row stops
    after the first level whose values spread (max - min) by less than
    ``refine_tol``, or whose bracket did not narrow, a few ulps wide.  Rows
    never mix.  Returns the best values, their weights and the levels each
    row ran.
    """
    out_best, out_arg = best.copy(), arg.copy()
    levels = np.zeros(len(best), dtype=int)
    rows = np.arange(len(best))
    level = 0
    while rows.size:
        level += 1
        t = np.minimum(lo[:, None] + (hi - lo)[:, None] * _ZOOM_STEPS, hi[:, None])
        values = _block_values(coef, t)
        k = np.arange(len(rows))
        j = np.argmax(values, axis=1)
        top = values[k, j]
        up = top > best
        best, arg = np.where(up, top, best), np.where(up, t[k, j], arg)
        spread = top - np.min(values, axis=1)
        width = hi - lo
        lo = t[k, np.maximum(j - 1, 0)]
        hi = t[k, np.minimum(j + 1, _ZOOM_POINTS - 1)]
        go = (spread >= refine_tol) & (hi - lo < width)
        if not go.all():
            done = rows[~go]
            out_best[done], out_arg[done], levels[done] = best[~go], arg[~go], level
            rows, coef, best, arg = rows[go], coef[go], best[go], arg[go]
            lo, hi = lo[go], hi[go]
    return out_best, out_arg, levels


def _grid_searches(
    chois: np.ndarray, cfg: SearchConfig, bloch: bool = True, restricted: bool = True
) -> list[list[DistanceResult]]:
    """The Bloch and/or restricted search for each row of ``chois`` (the
    Choi matrices of qubit channel differences), all as the rows of one
    zoom.

    Both searches read the 2x2 blocks of J that the Z (x) Z eigenspaces cut
    out.  The family is Z-covariant (K0 is diagonal and K1 anti-diagonal,
    and mixtures keep this), so J is zero off those blocks; raises
    ``ValueError`` when a J has an entry off them.  Each search's grid is
    read for all rows at once.  A row's best grid point is the lowest index
    within _TIE_TOL of its largest value (:func:`_first_best`), and its
    bracket the weights of that point's grid neighbours.  Rows never mix,
    so a result does not depend on the other rows or searches.  Returns
    one list of results per search run, the Bloch one first.  The Bloch arg
    is the weight on |1> of the best probe, the restricted arg the Schmidt
    weight t; iterations are the zoom's levels.
    """
    if np.any(chois[:, _OFF_BLOCKS]):
        raise ValueError("a difference is not Z-covariant: its Choi matrix "
                         "has entries off the Z (x) Z blocks")
    n = cfg.grid_points
    searches = []
    if bloch:
        searches.append((*_bloch_rows(chois, n), "bloch-grid"))
    if restricted:
        searches.append((*_restricted_rows(chois, n), "restricted"))
    parts = []
    for coef, w, _ in searches:
        values = _block_values(coef, w[None, :])
        i = _first_best(values)
        top = values[np.arange(len(i)), i]
        lo, hi = w[np.maximum(i - 1, 0)], w[np.minimum(i + 1, n - 1)]
        parts.append((coef, top, lo, hi, w[i]))
    coef, best, lo, hi, arg = (np.concatenate(part) for part in zip(*parts))
    best, arg, levels = _zoom(coef, lo, hi, best, arg, cfg.refine_tol)
    results = []
    for j, (*_, branch) in enumerate(searches):
        part = slice(j * len(chois), (j + 1) * len(chois))
        results.append([
            DistanceResult(float(b), float(t), branch, int(k))
            for b, t, k in zip(best[part], arg[part], levels[part])
        ])
    return results


# the Schmidt weight of a bound keeps this far from 0 and 1, where the
# congruence C that certifies it would be singular
_BOUND_CLAMP = 1e-5


def _entangled_bounds(chois: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Upper bounds on ||(id (x) Delta)(psi psi^dag)||_1 over every
    two-qubit probe psi, one per Choi matrix J of a qubit channel
    difference Delta in ``chois``, each certified at its Schmidt weight in
    ``t`` (Watrous's SDP dual, arXiv:1207.5726).

    A probe is (A (x) I) sum_a |aa> for a 2x2 A with tr(A^dag A) = 1, so
    id (x) Delta maps it to (A (x) I) J (A (x) I)^dag.  Take
    C = diag(sqrt(1 - t), sqrt(t)) (x) I, t clamped to [1e-5, 1 - 1e-5],
    and Y = C^-1 |C J C| C^-1.  Y >= +-J by congruence, so the probe's
    trace norm is at most
    tr((A (x) I) Y (A (x) I)^dag) = tr(A^dag A Tr_2 Y) <= lambda_max(Tr_2 Y).
    The computed Y falls short of Y >= +-J by the rounding delta, the most
    negative eigenvalue of Y - J and Y + J, so the bound is
    lambda_max(Tr_2 Y) + 2 delta (Tr_2 of delta I is 2 delta I), plus
    _TIE_TOL max(lambda_max, 2) for the rounding of lambda_max and of the
    trace norms compared with it.  It holds at any t, and is tight at the
    restricted maximizer: exactly so on a quasi-extreme pair, where without
    the allowance it came out 2 ulps below the restricted value.
    """
    t = np.clip(t, _BOUND_CLAMP, 1.0 - _BOUND_CLAMP)
    c = np.sqrt(np.stack([1.0 - t, 1.0 - t, t, t], axis=1))
    scale = c[:, :, None] * c[:, None, :]
    w, v = np.linalg.eigh(scale * chois)
    y = (v * np.abs(w)[:, None, :]) @ np.swapaxes(v.conj(), 1, 2) / scale
    y = 0.5 * (y + np.swapaxes(y.conj(), 1, 2))
    lowest = np.minimum(
        np.linalg.eigvalsh(y - chois)[:, 0], np.linalg.eigvalsh(y + chois)[:, 0]
    )
    marginal = np.trace(y.reshape(-1, 2, 2, 2, 2), axis1=2, axis2=4)
    top = np.linalg.eigvalsh(marginal)[:, -1]
    return top + 2.0 * np.maximum(-lowest, 0.0) + _TIE_TOL * np.maximum(top, 2.0)


def brute_max_single(c1, c2, cfg: SearchConfig = DEFAULT_CONFIG) -> DistanceResult:
    """Maximize the output trace distance over the Bloch sphere.

    Uniform grid of cfg.grid_points polar angles, each at its best azimuth
    (:func:`_bloch_rows`), then the zoom along the polar angle next to its
    best point.  arg is the weight on |1> of the winning probe.
    """
    return _grid_searches(_chois([(c1, c2)]), cfg, restricted=False)[0][0]


def brute_max_entangled(
    c1, c2, cfg: SearchConfig = DEFAULT_CONFIG, mode: str = "restricted"
) -> DistanceResult:
    """Maximize the extended-output trace distance over two-qubit probes.

    Searches the family sqrt(1 - t)|00> + sqrt(t)|11> (up to a unitary on
    the reference qubit, which commutes with id (x) N and leaves the trace
    distance unchanged): a grid over t, then the zoom next to its best
    point.  arg is t.  No two-qubit probe does better by more than the
    certified gap of :func:`_entangled_bounds` at arg.  ``mode`` must be
    ``"restricted"``, the one search there is.
    """
    if mode != "restricted":
        raise ValueError(f"mode must be 'restricted', got {mode!r}")
    return _grid_searches(_chois([(c1, c2)]), cfg, bloch=False)[0][0]


def brute_max_many(
    pairs, cfg: SearchConfig = DEFAULT_CONFIG
) -> list[tuple[DistanceResult, DistanceResult]]:
    """``(brute_max_single, brute_max_entangled)`` for every pair.

    Each search is one row of a single zoom over all the pairs: the first
    n rows are the Bloch searches, the last n the restricted ones.  Rows
    never mix, so every result equals its one-pair call.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    return list(zip(*_grid_searches(_chois(pairs), cfg)))


def optimal_entangled_probe(
    c1, c2, cfg: SearchConfig = DEFAULT_CONFIG
) -> tuple[PureState, DistanceResult]:
    """Best probe from the restricted search, with its achieved distance."""
    result = brute_max_entangled(c1, c2, cfg)
    t = result.arg
    return PureState.schmidt(math.sqrt(1.0 - t), math.sqrt(t)), result


def _helstrom_eigen(delta) -> tuple[Measurement, float]:
    """The :func:`helstrom` measurement of ``delta`` and its trace norm,
    both from one eigensystem: the plus projector is V V^dag over the
    eigenvectors V of the strictly positive eigenvalues."""
    vals, vecs = smallmat.hermitian_eigensystem(delta)
    v = vecs[:, vals > 0.0]
    plus = v @ v.conj().T
    plus = 0.5 * (plus + plus.conj().T)
    minus = np.eye(len(vals)) - plus
    measurement = Measurement(plus, 0.5 * (minus + minus.conj().T))
    return measurement, float(np.sum(np.abs(vals)))


def helstrom(delta) -> Measurement:
    """Minimum-error measurement for a Hermitian output difference.

    ``delta`` is a 2x2 or 4x4 matrix; one that departs from Hermiticity
    by more than smallmat.HERMITICITY_TOL (1e-12) in any entry raises
    ValueError.  The plus projector spans the strictly positive
    eigenspace; null directions go to the minus projector so results are
    deterministic.
    """
    return _helstrom_eigen(delta)[0]


def simulate(
    c1, c2, probe: PureState, trials: int, rng_seed: int
) -> tuple[float, float]:
    """The Helstrom experiment on ``probe``: the trace norm of its output
    difference, and the empirical success frequency of the guess-on-plus
    strategy with the difference's :func:`helstrom` measurement.  The
    distance and the measurement come from one eigensystem.

    Each trial draws one of the two channels uniformly, samples the
    measurement outcome on that channel's output, and guesses channel 1 on
    the plus outcome.  Deterministic given rng_seed (PCG64 counter stream).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    diff, *outs = _outputs(c1, c2, probe)
    m, distance = _helstrom_eigen(diff)
    p_plus = np.array(
        [min(max(float(np.real(np.trace(out @ m.plus_projector))), 0.0), 1.0)
         for out in outs]
    )
    rng = np.random.default_rng(np.random.PCG64(rng_seed))
    which = rng.integers(0, 2, size=trials)
    clicks_plus = rng.random(trials) < p_plus[which]
    guesses = np.where(clicks_plus, 0, 1)
    return distance, float(np.mean(guesses == which))
