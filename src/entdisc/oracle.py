"""Brute-force verification: probe search, Helstrom measurements, sampling.

Nothing in this module uses the closed-form distance formulas.  Trace
distances are maximized directly over probe states from the channels'
superoperators (:func:`channels.superoperator`), so the results serve as
an independent check on the closed forms and on the decision tree.

Both searches are one-dimensional and share one maximizer: a uniform grid,
then a zoom inside the grid cells next to its best point (:func:`_zoom`).

* Bloch (qubit probes): the (polar, azimuth) grid, read off the affine
  Bloch picture of the qubit superoperator, at the extreme-cos^2 azimuths
  of each polar row only (:func:`_bloch_rows`); the zoom runs along the
  polar angle at azimuth 0 or pi/2.
* restricted (pair probes sqrt(1 - t)|00> + sqrt(t)|11>): a grid over the
  Schmidt weight t, read off the two Z (x) Z blocks of the Choi matrix
  (:func:`_restricted_rows`).

In the weight t on |1> (Bloch, t = sin^2 of half the polar angle) or on
|11> (restricted) the two are one formula, with no eigensolver: a row's
value is the sum of the trace norms of two Hermitian 2x2 blocks whose
Pauli coordinates are linear in (1 - t, t, sqrt(t (1 - t)))
(:func:`_block_values`, :func:`_tracenorm2`).  A check runs every search
of its pairs as the rows of one zoom (:func:`brute_max_many`); a one-pair
search is a one-row call.  Grids and zoom levels are uniform, ties go to
the lowest index and rows never mix, so every search is deterministic.

No search runs over all of C^4.  Lemma 2 (no two-qubit probe beats the
restricted family) is proved pair by pair instead: by the
Helstrom/diamond-norm duality (Watrous, arXiv:1207.5726), a dual feasible
point at the restricted maximizer bounds ||(id (x) Delta)(psi psi^dag)||_1
over every two-qubit probe psi, and the bound is tight there
(:func:`_entangled_bounds`).

Every probe meets a channel one way: as a row of :func:`_delta_batch`,
which takes pure states through a stack of superoperators.  :func:`delta`
and :func:`simulate` run a :class:`PureState`, a qubit probe or a pair
probe (on which the channels act as id (x) N), through it.
:func:`simulate` is the whole Helstrom experiment: it builds each
channel's superoperator once, takes the output difference and both
outputs as the rows of one stack, measures the difference's
:func:`helstrom` projectors and draws the trials.
"""

from __future__ import annotations

import functools
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


def _superops(pairs) -> np.ndarray:
    """The difference superoperators of channel pairs, stacked one per row."""
    sop = channels.superoperator
    return np.stack([sop(c1) - sop(c2) for c1, c2 in pairs])


def _delta_batch(lmats: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Output differences for a batch of pure probe states: row i of
    ``states`` through ``lmats[i]``, a stack of d^2 x d^2 superoperators."""
    k = states.shape[1]
    rhos = states[:, :, None] * states.conj()[:, None, :]
    dim = math.isqrt(lmats.shape[-2])
    return (lmats @ rhos.reshape(-1, k * k, 1)).reshape(-1, dim, dim)


def _outputs(c1, c2, probe: PureState) -> np.ndarray:
    """The output difference and the two channel outputs on ``probe``, each
    made Hermitian: the rows of one :func:`_delta_batch` over the
    superoperators N1 - N2, N1 and N2, built once per channel and extended
    for a pair probe."""
    s1, s2 = channels.superoperator(c1), channels.superoperator(c2)
    lmats = np.stack([s1 - s2, s1, s2])
    if probe.is_pair:
        lmats = channels.extend_superoperator(lmats)
    d = _delta_batch(lmats, np.repeat(probe.vector[None, :], 3, axis=0))
    return 0.5 * (d + np.swapaxes(d.conj(), 1, 2))


def delta(c1, c2, probe: PureState) -> np.ndarray:
    """Difference of the two channel outputs on ``probe``; on a pair probe
    the channels act as id (x) N."""
    return _outputs(c1, c2, probe)[0]


_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)
# columns vec(sigma_j / 2); rows reading tr(sigma_k A) / 2 off vec(A)
_PAULI_HALVES = _PAULI.reshape(4, 4).T / 2.0
_PAULI_COORDS = _PAULI.conj().reshape(4, 4) / 2.0


# Grid values are trace norms of at most 2, computed from entries of at most
# 1, so their rounding is absolute: points that tie in exact arithmetic (a
# flat restricted row, a profile symmetric in t <-> 1 - t, mirror azimuths)
# were measured up to 8 eps apart, on 12 000 seeded quasi-extreme pairs at six
# grid sizes.  Points within twice that of a row's best count as tied.
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


# the entries of the real affine Bloch matrix of a qubit superoperator,
# real(_PAULI_COORDS @ L @ _PAULI_HALVES), that are zero for a difference of
# two family channels: all but the diagonal and the z shifts (0, 3), (3, 0)
_OFF_AXES = ~np.eye(4, dtype=bool)
_OFF_AXES[[0, 3], [3, 0]] = False


@functools.lru_cache(maxsize=4)
def _bloch_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of the uniform (polar, azimuth) grid with n points per
    axis that the Bloch rows evaluate, and their affine Bloch coordinates
    r = (1, x, y, z), read-only.

    At each of the n polar angles only the azimuths whose cos^2 is within
    1e-12 of the grid's largest or smallest value are kept, mirror images
    included: 0, n/4, n/2 and 3n/4 when n % 4 == 0.  The points keep the
    flat (polar-major) order of the full grid, so the lowest index among
    them is the lowest flat index.  r is stored as four rows, one per Pauli
    component, so each Pauli coordinate of the outputs is one contiguous
    row.
    """
    polar = np.linspace(0.0, math.pi, n)
    azim = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    cos2 = np.cos(azim) ** 2
    kept = azim[(cos2 >= cos2.max() - 1e-12) | (cos2 <= cos2.min() + 1e-12)]
    mesh = np.meshgrid(polar, kept, indexing="ij")
    params = np.stack([g.ravel() for g in mesh], axis=1)
    p, a = params[:, 0], params[:, 1]
    x, y = np.sin(p) * np.cos(a), np.sin(p) * np.sin(a)
    r = np.stack([np.ones_like(p), x, y, np.cos(p)])
    params.setflags(write=False)
    r.setflags(write=False)
    return params, r


def _bloch_rows(lmats: np.ndarray, cfg: SearchConfig):
    """The Bloch rows of a zoom, one per qubit superoperator of ``lmats``:
    each row's block coefficients (:func:`_block_values`), its best value on
    the grid of :func:`_bloch_grid` with cfg.grid_points per axis, and that
    point's flat index; the lowest flat index wins ties
    (:func:`_first_best`).

    The values are read off the affine Bloch picture: rho = sum_j r_j
    sigma_j / 2, so Delta(rho) = c0 I + c.sigma with (c0, c) = A r, A the
    real part of _PAULI_COORDS @ L @ _PAULI_HALVES.  K0 is diagonal and K1
    anti-diagonal, so for a difference of two family channels A is zero
    but for its diagonal (d, a1, a2, a3) and its z shifts (_OFF_AXES; the
    paper's Lambda and t): c0 and c3 depend on z = cos p alone.  At polar
    angle p, |c|^2 = sin^2 p (a1^2 cos^2 a + a2^2 sin^2 a) + c3^2 is
    monotone in cos^2 of the azimuth a, so each polar row is evaluated only
    where the grid's cos^2 is largest or smallest (:func:`_bloch_grid`):
    4 n points instead of n^2 when n % 4 == 0.  Raises ``ValueError`` when
    an A has an entry off that pattern.

    The zoom runs along the polar angle at azimuth 0 when the best point's
    cos^2 is at least 1/2, else at pi/2.  In the weight t = sin^2(p/2) on
    |1>, with the products (w00, w11, w01) of :func:`_block_values`,
    r = (w00 + w11, 2 w01, 0, w00 - w11) there, or (w00 + w11, 0, 2 w01,
    w00 - w11): a row is one block of :func:`_block_values`, the other
    zero.

    The grid is evaluated one row at a time, so the peak memory here does
    not grow with the number of rows.
    """
    params, r = _bloch_grid(cfg.grid_points)
    affine = np.zeros((len(lmats), 4, 4))
    tops, top_values = [], []
    for a, lmat in zip(affine, lmats):
        a[:] = np.real(_PAULI_COORDS @ lmat @ _PAULI_HALVES)
        if np.any(a[_OFF_AXES]):
            raise ValueError("a difference is not axis-aligned: its affine Bloch "
                             "matrix has entries off its diagonal and z shifts")
        values = _tracenorm2(*(a @ r))
        tops.append(int(_first_best(values)))
        top_values.append(values[tops[-1]])
    tops = np.array(tops, dtype=int)
    coef = np.zeros((len(lmats), 2, 6))
    # c0 and c3 are shift + slope cos p, and cos p = w00 - w11
    shift, slope = affine[:, [0, 3], 0], affine[:, [0, 3], 3]
    coef[:, 0, [0, 2]], coef[:, 0, [1, 3]] = shift + slope, shift - slope
    along_x = np.cos(params[tops, 1]) ** 2 >= 0.5
    coef[:, 0, 4] = np.where(along_x, 2.0 * affine[:, 1, 1], 0.0)
    coef[:, 0, 5] = np.where(along_x, 0.0, 2.0 * affine[:, 2, 2])
    return coef, np.array(top_values), tops


# the Z (x) Z eigenspaces {|00>, |11>} and {|01>, |10>} (the diagonal of
# Z (x) Z is _ZZ), and the entries of a 4x4 matrix that join the two
_BLOCKS = ((0, 3), (1, 2))
_ZZ = np.array([1, -1, -1, 1])
_OFF_BLOCKS = _ZZ[:, None] != _ZZ[None, :]


def _choi(lmats: np.ndarray) -> np.ndarray:
    """The Choi matrices J = sum_ab |a><b| (x) Delta(|a><b|) of a stack of
    qubit superoperators, by copying entries: J[(a i), (b j)] is the entry
    Delta(|a><b|)_ij = L[(i j), (a b)]."""
    return lmats.reshape(-1, 2, 2, 2, 2).transpose(0, 3, 1, 4, 2).reshape(-1, 4, 4)


def _restricted_rows(lmats: np.ndarray, cfg: SearchConfig):
    """The restricted rows of a zoom, one per qubit superoperator of
    ``lmats``: each row's block coefficients (:func:`_block_values`), its
    best value on the uniform grid of cfg.grid_points Schmidt weights t in
    [0, 1], and that point's index; the lowest index wins ties
    (:func:`_first_best`).

    The probe sqrt(1 - t)|00> + sqrt(t)|11> is sum_ab w_ab |aa><bb|, with
    w_ab the products of its two amplitudes, and id (x) Delta maps it to
    the matrix with entries w_ab J[(a i), (b j)], J the Choi matrix.  The
    family is Z-covariant (K0 is diagonal and K1 anti-diagonal, and
    mixtures keep this), so J is zero off the two Z (x) Z blocks, and the
    output's trace norm is the sum of those of its 2x2 blocks
    [[w00 Jpp, w01 Jpq], [., w11 Jqq]] for (p, q) = (0, 3) and (1, 2), with
    Pauli coordinates c0 = (w00 Jpp + w11 Jqq) / 2, x + i y = w01 Jpq and
    z = (w00 Jpp - w11 Jqq) / 2.  The grid is read for all rows at once.
    Raises ``ValueError`` when a J has an entry off those blocks.
    """
    choi = _choi(lmats)
    if np.any(choi[:, _OFF_BLOCKS]):
        raise ValueError("a difference is not Z-covariant: its Choi matrix "
                         "has entries off the Z (x) Z blocks")
    blocks = []
    for p, q in _BLOCKS:
        jpp, jqq, jpq = choi[:, p, p].real, choi[:, q, q].real, choi[:, p, q]
        blocks.append([0.5 * jpp, 0.5 * jqq, 0.5 * jpp, -0.5 * jqq, jpq.real, jpq.imag])
    coef = np.array(blocks).transpose(2, 0, 1)  # rows x 2 x 6
    values = _block_values(coef, np.linspace(0.0, 1.0, cfg.grid_points)[None, :])
    tops = _first_best(values)
    return coef, values[np.arange(len(tops)), tops], tops


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
    lmats: np.ndarray, cfg: SearchConfig, bloch: bool = True, restricted: bool = True
) -> list[list[DistanceResult]]:
    """The Bloch and/or restricted search for each row of ``lmats`` (qubit
    difference superoperators), all as the rows of one zoom.

    A row's bracket is the weights of the grid neighbours of its best grid
    point: of its polar neighbours for a Bloch row.  Rows never mix, so a
    result does not depend on the other rows or searches.  Returns one list
    of results per search run, the Bloch one first.  The Bloch arg is the
    weight on |1> of the best probe, the restricted arg the Schmidt weight
    t; iterations are the zoom's levels.
    """
    n = cfg.grid_points
    searches = []
    if bloch:
        coef, top_values, tops = _bloch_rows(lmats, cfg)
        per_polar = len(_bloch_grid(n)[0]) // n
        weights = np.sin(np.linspace(0.0, math.pi, n) / 2.0) ** 2
        searches.append((coef, top_values, weights, tops // per_polar, "bloch-grid"))
    if restricted:
        coef, top_values, tops = _restricted_rows(lmats, cfg)
        searches.append((coef, top_values, np.linspace(0.0, 1.0, n), tops, "restricted"))
    coef, best, lo, hi, arg = (
        np.concatenate(part)
        for part in zip(*(
            (c, v, w[np.maximum(i - 1, 0)], w[np.minimum(i + 1, n - 1)], w[i])
            for c, v, w, i, _ in searches
        ))
    )
    best, arg, levels = _zoom(coef, lo, hi, best, arg, cfg.refine_tol)
    results = []
    for j, (*_, branch) in enumerate(searches):
        part = slice(j * len(lmats), (j + 1) * len(lmats))
        results.append([
            DistanceResult(float(b), float(t), branch, int(k))
            for b, t, k in zip(best[part], arg[part], levels[part])
        ])
    return results


# the Schmidt weight of a bound keeps this far from 0 and 1, where the
# congruence C that certifies it would be singular
_BOUND_CLAMP = 1e-5


def _entangled_bounds(lmats: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Upper bounds on ||(id (x) Delta)(psi psi^dag)||_1 over every
    two-qubit probe psi, one per qubit difference superoperator of
    ``lmats``, each certified at its Schmidt weight in ``t`` (Watrous's SDP
    dual, arXiv:1207.5726).

    A probe is (A (x) I) sum_a |aa> for a 2x2 A with tr(A^dag A) = 1, so
    id (x) Delta maps it to (A (x) I) J (A (x) I)^dag, J the Choi matrix of
    Delta.  Take C = diag(sqrt(1 - t), sqrt(t)) (x) I, t clamped to
    [1e-5, 1 - 1e-5], and Y = C^-1 |C J C| C^-1.  Y >= +-J by congruence,
    so the probe's trace norm is at most
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
    choi = _choi(lmats)
    w, v = np.linalg.eigh(scale * choi)
    y = (v * np.abs(w)[:, None, :]) @ np.swapaxes(v.conj(), 1, 2) / scale
    y = 0.5 * (y + np.swapaxes(y.conj(), 1, 2))
    lowest = np.minimum(
        np.linalg.eigvalsh(y - choi)[:, 0], np.linalg.eigvalsh(y + choi)[:, 0]
    )
    marginal = np.trace(y.reshape(-1, 2, 2, 2, 2), axis1=2, axis2=4)
    top = np.linalg.eigvalsh(marginal)[:, -1]
    return top + 2.0 * np.maximum(-lowest, 0.0) + _TIE_TOL * np.maximum(top, 2.0)


def brute_max_single(c1, c2, cfg: SearchConfig = DEFAULT_CONFIG) -> DistanceResult:
    """Maximize the output trace distance over the Bloch sphere.

    Uniform (polar, azimuth) grid with cfg.grid_points per axis, then the
    zoom along the polar angle next to its best point.  arg is the weight
    on |1> of the winning probe.
    """
    return _grid_searches(_superops([(c1, c2)]), cfg, restricted=False)[0][0]


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
    return _grid_searches(_superops([(c1, c2)]), cfg, bloch=False)[0][0]


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
    return list(zip(*_grid_searches(_superops(pairs), cfg)))


def optimal_entangled_probe(
    c1, c2, cfg: SearchConfig = DEFAULT_CONFIG
) -> tuple[PureState, DistanceResult]:
    """Best probe from the restricted search, with its achieved distance."""
    result = brute_max_entangled(c1, c2, cfg)
    t = result.arg
    return PureState.schmidt(math.sqrt(1.0 - t), math.sqrt(t)), result


def _helstrom_eigen(delta) -> tuple[Measurement, float]:
    """The :func:`helstrom` measurement of ``delta`` and its trace norm,
    both from one eigensystem."""
    vals, vecs = smallmat.hermitian_eigensystem(delta)
    dim = len(vals)
    plus = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if vals[i] > 0.0:
            v = vecs[:, i : i + 1]
            plus += v @ v.conj().T
    plus = 0.5 * (plus + plus.conj().T)
    minus = np.eye(dim) - plus
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
