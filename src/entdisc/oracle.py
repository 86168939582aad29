"""Brute-force verification: probe search, Helstrom measurements, sampling.

Nothing in this module uses the closed-form distance formulas.  Trace
distances are maximized directly over probe states by applying the
channels' superoperators (:func:`channels.superoperator`), so the results
serve as an independent check on the closed forms and on the decision
tree.  The grids call no eigensolver: each grid output is made of
Hermitian 2x2 blocks, and a block's trace norm is a closed form in its
Pauli coordinates (:func:`_tracenorm2`).  The Bloch grid is 4 n of its n^2
points a pair: along a polar row of the (polar, azimuth) grid a family
difference's value is monotone in cos^2 of the azimuth, so each row is
evaluated only at its extreme-cos^2 azimuths.  It runs one pair at a time,
so a check's memory does not grow with its number of pairs, and keeps its
points as four rows of coordinates (1, x, y, z), so each Pauli coordinate
of a pair's outputs is one contiguous row.  The restricted grid is n points
a pair, and runs for all the pairs of a check as one (pairs x n) array.
Both grids take the lowest index among the points tied, within 16 eps,
for their best value (:func:`_first_best`).

The three searches share one maximizer, :func:`_seesaw`, whose rows each
carry their own superoperator and their own probe basis.  A check runs the
Bloch and restricted searches of all its pairs as the rows of one see-saw
(:func:`brute_max_many`), and a one-pair search is a one-row call.  Both
grid searches run on the pair's extended superoperator id (x) Delta,
expanded from its qubit one (:func:`channels.extend_superoperator`), so
every row of that see-saw has a 4x4 D-step and a 2x2 M-step.  By the
Helstrom/diamond-norm duality (Watrous, arXiv:1207.5726) the largest
||Delta(psi psi^dag)||_1 is the largest <psi| Delta^dag(O) |psi> over
probes psi and observables -1 <= O <= 1, and for a fixed psi the best O is
sign(Delta(psi psi^dag)).  The see-saw alternates the two maximizations,
both eigen-steps, for a batch of starts in lockstep.  The iterates often
converge only linearly, so each row also tries the vector Aitken
(Delta^2) extrapolation of its last three iterates and moves there only
when that strictly raises its value; a see-saw step from any state never
lowers the value, so every row stays monotone and fixed points stay
fixed.  The searches differ only in the probe subspace and the starts:

* Bloch: all of C^2, from the best point of a (polar, azimuth) grid, its
  trace norms read off the affine Bloch picture of the qubit
  superoperator (:func:`_bloch_rows`).  Its see-saw runs on the product
  probes |0> (x) psi in the basis {|00>, |01>}: (id (x) Delta)(|0><0| (x)
  psi psi^dag) = |0><0| (x) Delta(psi psi^dag), with the same trace norm;
* restricted: span{|00>, |11>}, from the best interior point of a grid
  over the Schmidt weight t of sqrt(1 - t)|00> + sqrt(t)|11>.  A relative
  phase on |11> is undone exactly by diag(1, e^{-i eta}) on the reference
  qubit, a unitary that commutes with id (x) N and leaves the trace norm
  unchanged, so the grid is real.  Every channel of the family is
  Z-covariant, N(Z rho Z) = Z N(rho) Z (K0 is diagonal and K1
  anti-diagonal, and mixtures keep this), so on such a probe the output of
  id (x) Delta commutes with Z (x) Z.  It splits into 2x2 blocks on
  {|00>, |11>} and {|01>, |10>}, whose entries are entries of the Choi
  matrix of Delta times products of the chart amplitudes
  (:func:`_restricted_rows`);
* full: all of C^4, from seeded starts on the pair chart
  sqrt(1 - t)|0>|v0> + sqrt(t)|1>|v1> (v0 a Bloch state of the system
  qubit, v1 orthogonal to it).  By the SVD every pure two-qubit state is a
  chart point moved by a unitary on the reference qubit.

All searches are deterministic given a :class:`SearchConfig`: grids are
uniform, the full-space search uses a seeded generator for its
multistarts, and ties are broken toward the lowest index.

Every probe meets a channel one way: as a row of :func:`_delta_batch`,
which takes pure states through a superoperator or a stack of them.  The
searches run their rows through it, and so do :func:`delta` and
:func:`simulate` on a :class:`PureState`, a qubit probe or a pair probe
(on which the channels act as id (x) N).  :func:`simulate` is the whole
Helstrom experiment: it builds each channel's superoperator once, takes
the output difference and both outputs as the rows of one stack, measures
the difference's :func:`helstrom` projectors and draws the trials.
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

_MAX_STEPS = 3000


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search budget for the brute-force maximizers.

    ``refine_tol`` is the smallest gain of one see-saw step that keeps a
    start running; the first step that gains less stops it.
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


def _delta_superop(c1, c2) -> np.ndarray:
    return channels.superoperator(c1) - channels.superoperator(c2)


def _superops(pairs) -> np.ndarray:
    """The difference superoperators of channel pairs, stacked one per row."""
    return np.stack([_delta_superop(c1, c2) for c1, c2 in pairs])


def _apply(lmats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Each row of ``vecs`` through its superoperator: ``lmats`` is one
    d^2 x d^2 matrix shared by every row, or a stack with one per row."""
    if lmats.ndim == 2:
        return vecs @ lmats.T
    return (lmats @ vecs[:, :, None])[:, :, 0]


def _delta_batch(lmats: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Output differences for a batch of pure probe states."""
    k = states.shape[1]
    rhos = states[:, :, None] * states.conj()[:, None, :]
    dim = math.isqrt(lmats.shape[-2])
    return _apply(lmats, rhos.reshape(-1, k * k)).reshape(-1, dim, dim)


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


def _aligned(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Each row of ``x`` times the phase that makes <ref|x> real and >= 0."""
    overlap = np.sum(ref.conj() * x, axis=1)
    size = np.abs(overlap)
    phase = np.ones_like(overlap)
    np.divide(overlap.conj(), size, out=phase, where=size > 0.0)
    return x * phase[:, None]


def _extrapolated(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """One vector Aitken (Delta^2) step per row from three iterates.

    With d = x2 - x1 and Delta^2 x = d - (x1 - x0), the step is
    y = x2 - lambda d for lambda = Re<Delta^2 x, d> / ||Delta^2 x||^2 (0 when
    Delta^2 x = 0): the limit of iterates that converge geometrically along
    one direction.  y is normalized; a row with y = 0 keeps x2.
    """
    d = x2 - x1
    dd = d - (x1 - x0)
    den = np.sum(np.abs(dd) ** 2, axis=1)
    lam = np.zeros(len(d))
    np.divide(np.real(np.sum(dd.conj() * d, axis=1)), den, out=lam, where=den > 0.0)
    y = x2 - lam[:, None] * d
    norm = np.linalg.norm(y, axis=1, keepdims=True)
    np.divide(y, norm, out=y, where=norm > 0.0)
    return np.where(norm > 0.0, y, x2)


def _seesaw(lmats: np.ndarray, states: np.ndarray, basis: np.ndarray, refine_tol):
    """Lockstep Helstrom see-saw from every row of ``states``.

    Row i runs on the superoperator ``lmats[i]`` (rows x d^2 x d^2) and
    searches the span of the columns of ``basis[i]`` (rows x d x k); a
    single d^2 x d^2 ``lmats`` or d x k ``basis`` is shared by every row.
    Every row of a call has the same d and k, so the rows of different
    searches run as one batch.  A step takes the Helstrom observable
    O = sign(D) of D = Delta(psi psi^dag) from an ``eigh`` and moves psi to
    the top eigenvector of M = Delta^dag(O) compressed to the row's basis;
    as ||D||_1 = <psi|M|psi>, no step lowers it.

    Near a maximum the steps often shrink only geometrically: on a
    restricted row whose maximum is a product probe, 1 - t falls by about 5%
    a step.  So once a row holds three iterates, each step also evaluates
    their Delta^2 extrapolation (:func:`_extrapolated`; ``eigh`` fixes an
    eigenvector only up to a phase, so each new one is first aligned to the
    row's previous iterate).  The row moves there only when that strictly
    raises its value, and its window of iterates then restarts.  A see-saw
    step from any state never lowers its value, so no row's value ever
    falls; a fixed point's iterates do not move, so it stays fixed.

    A row keeps its best state and stops after its first step that gains
    less than ``refine_tol``, or at ``_MAX_STEPS``; rows never mix, so a
    row's result does not depend on the others.  Returns the best values,
    their states, the steps each row ran and the indices of the rows
    stopped at the cap.
    """
    dim, k = basis.shape[-2:]
    # probes in the basis: vec(B X B^T) = (B (x) B) vec(X), and
    # vec(B^T M B) = forward^dag vec(O) for vec(M) = L^dag vec(O)
    kron = basis[..., :, None, :, None] * basis[..., None, :, None, :]
    forward = lmats @ kron.reshape(*basis.shape[:-2], dim * dim, k * k)
    adjoint = np.swapaxes(forward, -1, -2).conj()
    w, v = np.linalg.eigh(_delta_batch(lmats, states))
    start = np.sum(np.abs(w), axis=1)
    best = start.copy()
    coords = (states[:, None, :] @ basis)[:, 0]
    # the running rows' last two iterates; a row is ``fresh`` while its
    # window, restarted at its start or at an extrapolation, holds fewer
    # than three
    before = last = coords.copy()
    fresh = np.ones(len(states), dtype=bool)
    steps = np.full(len(states), _MAX_STEPS)
    running = np.arange(len(states))
    for step in range(1, _MAX_STEPS + 1):
        if running.size == 0:
            break
        obs = (v * np.sign(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        m = _apply(adjoint, obs.reshape(-1, dim * dim)).reshape(-1, k, k)
        trial = _aligned(np.linalg.eigh(m)[1][:, :, -1], last)
        w, v = np.linalg.eigh(_delta_batch(forward, trial))
        value = np.abs(w).sum(axis=1)
        take = np.zeros_like(fresh)
        if not fresh.all():
            jump = np.where(fresh[:, None], trial, _extrapolated(before, last, trial))
            wj, vj = np.linalg.eigh(_delta_batch(forward, jump))
            jumped = np.abs(wj).sum(axis=1)
            take = jumped > value
            trial[take], w[take], v[take], value[take] = (
                jump[take], wj[take], vj[take], jumped[take]
            )
        before, last, fresh = np.where(take[:, None], trial, last), trial, take
        gain = value - best[running]
        up = gain > 0.0
        coords[running[up]], best[running[up]] = trial[up], value[up]
        keep = gain >= refine_tol
        if not keep.all():
            steps[running[~keep]] = step
            running, w, v = running[keep], w[keep], v[keep]
            before, last, fresh = before[keep], last[keep], fresh[keep]
            if forward.ndim == 3:
                forward, adjoint = forward[keep], adjoint[keep]
    found = (basis @ coords[:, :, None])[:, :, 0]
    psi = np.where((best > start)[:, None], found, states)
    return best, psi, steps, running


def _bloch_states(params: np.ndarray) -> np.ndarray:
    """Bloch chart: polar angle in [0, pi], azimuth in [0, 2 pi)."""
    polar, azim = params[:, 0], params[:, 1]
    return np.stack(
        [np.cos(polar / 2.0), np.exp(1j * azim) * np.sin(polar / 2.0)], axis=1
    )


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


def _tracenorm2(c0, x, y, z):
    """||D||_1 of the Hermitian 2x2 D = c0 I + x X + y Y + z Z, elementwise:
    its eigenvalues are c0 +- |c|, so ||D||_1 = 2 max(|c0|, |c|)."""
    return 2.0 * np.maximum(np.abs(c0), np.sqrt(x * x + y * y + z * z))


def _bloch_rows(lmats: np.ndarray, cfg: SearchConfig):
    """The Bloch rows of a see-saw, one per qubit superoperator of ``lmats``.

    Each row starts at the best point of the uniform (polar, azimuth) grid
    with cfg.grid_points per axis, as the product probe |0> (x) psi, which
    the see-saw moves in the basis {|00>, |01>}; the lowest flat index wins
    ties (:func:`_first_best`).  Returns the starts, the best grid values
    and their states (the starts).

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

    The rows are evaluated one at a time, so the peak memory here does not
    grow with the number of rows.
    """
    params, r = _bloch_grid(cfg.grid_points)
    tops, top_values = [], []
    for lmat in lmats:
        affine = np.real(_PAULI_COORDS @ lmat @ _PAULI_HALVES)
        if np.any(affine[_OFF_AXES]):
            raise ValueError("a difference is not axis-aligned: its affine Bloch "
                             "matrix has entries off its diagonal and z shifts")
        values = _tracenorm2(*(affine @ r))
        tops.append(int(_first_best(values)))
        top_values.append(values[tops[-1]])
    starts = np.zeros((len(tops), 4), dtype=complex)
    starts[:, :2] = _bloch_states(params[tops])
    return starts, np.array(top_values), starts


def _schmidt_states(params: np.ndarray) -> np.ndarray:
    """Schmidt chart: sqrt(1 - t) |00> + sqrt(t) |11>, t in [0, 1]."""
    t = params[:, 0]
    states = np.zeros((params.shape[0], 4), dtype=complex)
    states[:, 0] = np.sqrt(1.0 - t)
    states[:, 3] = np.sqrt(t)
    return states


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
    """The restricted rows of a see-saw, one per qubit superoperator of
    ``lmats``: each searches span{|00>, |11>} from the best interior point
    of a grid over the Schmidt weight t.  A product probe (t = 0 or 1) is a
    fixed point of the see-saw, so each row starts inside and keeps its
    best grid value when that is higher; the lowest index wins ties
    (:func:`_first_best`).  Returns the starts, the best grid values and
    their states.

    The grid is read off each pair's Choi matrix J, for all rows at once.
    The probe sqrt(1 - t)|00> + sqrt(t)|11> is sum_ab w_ab |aa><bb|, with
    w_ab the products of its two amplitudes, and id (x) Delta maps it to
    the matrix with entries w_ab J[(a i), (b j)].  The family is
    Z-covariant, so J is zero off the two Z (x) Z blocks, and the output's
    trace norm is the sum of those of its 2x2 blocks
    [[w00 J00, w01 J03], [., w11 J33]] and [[w00 J11, w01 J12], [., w11 J22]].
    Raises ``ValueError`` when a J has an entry off those blocks.
    """
    choi = _choi(lmats)
    if np.any(choi[:, _OFF_BLOCKS]):
        raise ValueError("a difference is not Z-covariant: its Choi matrix "
                         "has entries off the Z (x) Z blocks")
    states = _schmidt_states(np.linspace(0.0, 1.0, cfg.grid_points)[:, None])
    s0, s1 = states[:, 0].real, states[:, 3].real
    w00, w11, w01 = s0 * s0, s1 * s1, s0 * s1
    values = 0.0
    for p, q in _BLOCKS:
        a = choi[:, p, p, None].real * w00
        b = choi[:, q, q, None].real * w11
        c = choi[:, p, q, None] * w01
        values = values + _tracenorm2(0.5 * (a + b), c.real, c.imag, 0.5 * (a - b))
    starts = 1 + _first_best(values[:, 1:-1])
    tops = _first_best(values)
    return states[starts], values[np.arange(len(tops)), tops], states[tops]


_BLOCH_BASIS = np.eye(4)[:, [0, 1]]  # |00>, |01>: the probes |0> (x) psi
_SCHMIDT_BASIS = np.eye(4)[:, [0, 3]]  # |00>, |11>


def _grid_searches(
    lmats: np.ndarray, cfg: SearchConfig, bloch: bool = True, restricted: bool = True
) -> list[list[DistanceResult]]:
    """The Bloch and/or restricted search for each row of ``lmats`` (qubit
    difference superoperators), all as the rows of one see-saw.

    Both grids read the qubit superoperators.  Every see-saw row runs on
    its pair's extended superoperator, expanded from the qubit one
    (:func:`channels.extend_superoperator`), in its search's basis, so each
    has a 4x4 D-step and a 2x2 M-step.  A row's best grid point wins when
    it is higher than the see-saw's value.  Rows never mix, so a result
    does not depend on the other rows or searches.  Returns one list of
    results per search run, the Bloch one first.  The Bloch arg is
    the weight on |1> of psi, the restricted arg the Schmidt weight t.
    """
    ext = channels.extend_superoperator(lmats)
    searches = []
    if bloch:
        searches.append((_bloch_rows(lmats, cfg), _BLOCH_BASIS, 1, "bloch-grid"))
    if restricted:
        searches.append((_restricted_rows(lmats, cfg), _SCHMIDT_BASIS, 3, "restricted"))
    starts, top_values, top_states = (
        np.concatenate(part) for part in zip(*(rows for rows, *_ in searches))
    )
    n = len(lmats)
    basis = np.concatenate([np.broadcast_to(b, (n, 4, 2)) for _, b, *_ in searches])
    best, psi, steps, capped = _seesaw(
        np.concatenate([ext] * len(searches)), starts, basis, cfg.refine_tol
    )
    grid_wins = top_values > best
    best[grid_wins], psi[grid_wins] = top_values[grid_wins], top_states[grid_wins]
    converged = np.ones(len(best), dtype=bool)
    converged[capped] = False
    results = []
    for j, (_, _, amp, branch) in enumerate(searches):
        part = slice(j * n, (j + 1) * n)
        results.append([
            DistanceResult(float(b), min(float(abs(p[amp]) ** 2), 1.0), branch,
                           bool(c), int(s))
            for b, p, c, s in zip(best[part], psi[part], converged[part], steps[part])
        ])
    return results


def _pair_states(params: np.ndarray) -> np.ndarray:
    """Pair chart: sqrt(1 - t)|0>|v0> + sqrt(t)|1>|v1>, t in [0, 1], where
    v0 is the Bloch state at (polar, azimuth) and v1 = (-conj v0[1], conj v0[0])
    is orthogonal to it.  By the SVD of its 2x2 amplitude matrix, every pure
    two-qubit state is a chart point up to a unitary on the reference
    (left) qubit."""
    t = params[:, 0:1]
    v0 = _bloch_states(params[:, 1:3])
    v1 = np.stack([-v0[:, 1].conj(), v0[:, 0].conj()], axis=1)
    return np.concatenate([np.sqrt(1.0 - t) * v0, np.sqrt(t) * v1], axis=1)


def _full_engine(c1, c2, cfg: SearchConfig) -> DistanceResult:
    """Lockstep see-saw over all of C^4 from seeded pair-chart starts, t,
    polar and azimuth drawn uniformly in turn, every start on the pair's one
    superoperator; the lowest start index wins ties.  arg is the weight on
    |11> of the winning probe."""
    lmat = channels.extend_superoperator(_delta_superop(c1, c2))
    rng = np.random.default_rng(np.random.PCG64(cfg.rng_seed))
    k = cfg.multistarts
    ranges = ((0.0, 1.0), (0.0, math.pi), (0.0, 2.0 * math.pi))
    starts = np.stack([rng.uniform(lo, hi, size=k) for lo, hi in ranges], axis=1)
    best, psi, steps, capped = _seesaw(
        lmat, _pair_states(starts), np.eye(4), cfg.refine_tol
    )
    i = int(np.argmax(best))
    weight = float(abs(psi[i, 3]) ** 2)
    return DistanceResult(
        float(best[i]), weight, "full", capped.size == 0, int(steps[i])
    )


def brute_max_single(c1, c2, cfg: SearchConfig = DEFAULT_CONFIG) -> DistanceResult:
    """Maximize the output trace distance over the Bloch sphere.

    Uniform (polar, azimuth) grid with cfg.grid_points per axis, then the
    see-saw over all of C^2 from the best grid point.  arg is the weight
    on |1> of the winning probe.
    """
    return _grid_searches(_superops([(c1, c2)]), cfg, restricted=False)[0][0]


def brute_max_entangled(
    c1, c2, cfg: SearchConfig = DEFAULT_CONFIG, mode: str = "restricted"
) -> DistanceResult:
    """Maximize the extended-output trace distance over two-qubit probes.

    Both modes search states up to a unitary on the reference qubit, which
    commutes with id (x) N and leaves the trace distance unchanged.
    restricted mode searches the family sqrt(1 - t)|00> + sqrt(t)|11> with
    a1 real (a phase on |11> is such a unitary).  full mode reaches every
    pure two-qubit state by seeded multistart ascent over the pair chart.
    """
    if mode == "restricted":
        return _grid_searches(_superops([(c1, c2)]), cfg, bloch=False)[0][0]
    if mode == "full":
        return _full_engine(c1, c2, cfg)
    raise ValueError(f"mode must be 'restricted' or 'full', got {mode!r}")


def brute_max_many(
    pairs, cfg: SearchConfig = DEFAULT_CONFIG
) -> list[tuple[DistanceResult, DistanceResult]]:
    """``(brute_max_single, restricted brute_max_entangled)`` for every pair.

    Each search is one row of a single see-saw over all the pairs: the
    first n rows are the Bloch searches, the last n the restricted ones,
    all on the pairs' extended superoperators.  Rows never mix, so every
    result equals its one-pair call.
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
