"""Brute-force verification: probe search, Helstrom measurements, sampling.

Nothing in this module uses the closed-form distance formulas.  Trace
distances are maximized directly over probe states by applying the
channels' superoperators (:func:`channels.superoperator`), so the results
serve as an independent check on the closed forms and on the decision
tree.  Grid evaluations are batched through numpy (including LAPACK's
batched Hermitian eigensolver for the 4x4 case), which keeps the
acceptance sweeps fast.

The three searches share one maximizer, :func:`_seesaw`.  By the
Helstrom/diamond-norm duality (Watrous, arXiv:1207.5726) the largest
||Delta(psi psi^dag)||_1 is the largest <psi| Delta^dag(O) |psi> over
probes psi and observables -1 <= O <= 1, and for a fixed psi the best O is
sign(Delta(psi psi^dag)).  The see-saw alternates the two maximizations,
both eigen-steps, for a batch of starts in lockstep.  The searches differ
only in the probe subspace and the starts:

* Bloch: all of C^2, from the best point of a (polar, azimuth) grid;
* restricted: span{|00>, |11>}, from the best interior point of a grid
  over the Schmidt weight t of sqrt(1 - t)|00> + sqrt(t)|11>.  A relative
  phase on |11> is undone exactly by diag(1, e^{-i eta}) on the reference
  qubit, a unitary that commutes with id (x) N and leaves the trace norm
  unchanged, so the grid is real;
* full: all of C^4, from seeded starts on the pair chart
  sqrt(1 - t)|0>|v0> + sqrt(t)|1>|v1> (v0 a Bloch state of the system
  qubit, v1 orthogonal to it).  By the SVD every pure two-qubit state is a
  chart point moved by a unitary on the reference qubit.

All searches are deterministic given a :class:`SearchConfig`: grids are
uniform, the full-space search uses a seeded generator for its
multistarts, and ties are broken toward the lowest index.
"""

from __future__ import annotations

import math
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
        if self.grid_points < 64:
            raise ValueError("grid_points must be >= 64")
        if self.multistarts < 16:
            raise ValueError("multistarts must be >= 16")
        if not self.refine_tol > 0.0:
            raise ValueError("refine_tol must be positive")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")


DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class PureState2:
    """A qubit pure state |psi> = a0 |0> + a1 |1>."""

    a0: complex
    a1: complex

    def __post_init__(self):
        norm = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")

    @classmethod
    def from_bloch(cls, polar: float, azimuth: float) -> "PureState2":
        return cls(
            complex(math.cos(polar / 2.0)),
            complex(math.cos(azimuth), math.sin(azimuth)) * math.sin(polar / 2.0),
        )

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.a0, self.a1], dtype=complex)

    def density(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class PureState4:
    """A two-qubit pure state over |00>, |01>, |10>, |11>."""

    a: tuple

    def __post_init__(self):
        if len(self.a) != 4:
            raise ValueError("PureState4 needs 4 amplitudes")
        norm = sum(abs(x) ** 2 for x in self.a)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")

    @classmethod
    def schmidt(cls, a0: complex, a1: complex) -> "PureState4":
        return cls((complex(a0), 0j, 0j, complex(a1)))

    @classmethod
    def product(cls, left: PureState2, right: PureState2) -> "PureState4":
        amps = np.kron(left.vector, right.vector)
        return cls(tuple(complex(x) for x in amps))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.a, dtype=complex)

    def density(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class Measurement:
    """Two-outcome projective measurement (plus/minus eigenspaces)."""

    plus_projector: np.ndarray
    minus_projector: np.ndarray
    dim: int

    def __post_init__(self):
        for proj in (self.plus_projector, self.minus_projector):
            if np.max(np.abs(proj @ proj - proj)) > 1e-10:
                raise ValueError("projector is not idempotent")
        s = self.plus_projector + self.minus_projector
        if np.max(np.abs(s - np.eye(self.dim))) > 1e-10:
            raise ValueError("projectors do not sum to the identity")


def _delta_superop(c1, c2, extended: bool) -> np.ndarray:
    return channels.superoperator(c1, extended) - channels.superoperator(c2, extended)


def _delta_batch(lmat: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Output differences for a batch of pure probe states."""
    dim = states.shape[1]
    rhos = states[:, :, None] * states.conj()[:, None, :]
    d = rhos.reshape(-1, dim * dim) @ lmat.T
    return d.reshape(-1, dim, dim)


def _delta(c1, c2, psi, extended: bool) -> np.ndarray:
    d = _delta_batch(_delta_superop(c1, c2, extended), psi.vector[None, :])[0]
    return 0.5 * (d + d.conj().T)


def delta_single(c1, c2, psi: PureState2) -> np.ndarray:
    """Difference of the two channel outputs on a single-qubit probe."""
    return _delta(c1, c2, psi, extended=False)


def delta_entangled(c1, c2, psi: PureState4) -> np.ndarray:
    """Difference of the two extended-channel outputs on a two-qubit probe."""
    return _delta(c1, c2, psi, extended=True)


def _tracenorm2_batch(d: np.ndarray) -> np.ndarray:
    mean = 0.5 * np.real(d[:, 0, 0] + d[:, 1, 1])
    disc = np.sqrt(
        (0.5 * np.real(d[:, 0, 0] - d[:, 1, 1])) ** 2 + np.abs(d[:, 0, 1]) ** 2
    )
    return np.abs(mean + disc) + np.abs(mean - disc)


def _tracenorm4_batch(d: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(np.linalg.eigvalsh(d)), axis=1)


def _seesaw(lmat: np.ndarray, states: np.ndarray, basis: np.ndarray, refine_tol: float):
    """Lockstep Helstrom see-saw from every row of ``states``.

    A step takes the Helstrom observable O = sign(D) of D = Delta(psi psi^dag)
    from an ``eigh`` and moves psi to the top eigenvector of M = Delta^dag(O)
    compressed to the columns of ``basis``; as ||D||_1 = <psi|M|psi>, no step
    lowers it.  A row keeps its best state and stops after its first step
    that gains less than ``refine_tol``, or at ``_MAX_STEPS``.  Returns the
    best values, their states and the indices of the rows stopped at the cap.
    """
    dim = states.shape[1]
    psi = np.array(states, dtype=complex)
    w, v = np.linalg.eigh(_delta_batch(lmat, psi))
    best = np.sum(np.abs(w), axis=1)
    running = np.arange(len(psi))
    for _ in range(_MAX_STEPS):
        if running.size == 0:
            break
        obs = (v * np.sign(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        # Tr(O Delta(rho)) = Tr(M rho) for Hermitian O gives vec(M) = L^dag vec(O)
        m = (obs.reshape(-1, dim * dim) @ lmat.conj()).reshape(-1, dim, dim)
        _, u = np.linalg.eigh(basis.T @ m @ basis)
        trial = u[:, :, -1] @ basis.T
        w, v = np.linalg.eigh(_delta_batch(lmat, trial))
        value = np.sum(np.abs(w), axis=1)
        gain = value - best[running]
        up = gain > 0.0
        psi[running[up]], best[running[up]] = trial[up], value[up]
        keep = gain >= refine_tol
        running, w, v = running[keep], w[keep], v[keep]
    return best, psi, running


def _grid_seesaw(lmat, grid_states, values, start: int, basis, refine_tol: float):
    """See-saw from grid row ``start``; the best grid point wins if higher.
    Returns the value, its state and whether the see-saw converged."""
    best, psi, capped = _seesaw(lmat, grid_states[start : start + 1], basis, refine_tol)
    i = int(np.argmax(values))
    if values[i] > best[0]:
        return float(values[i]), grid_states[i], capped.size == 0
    return float(best[0]), psi[0], capped.size == 0


def _bloch_states(params: np.ndarray) -> np.ndarray:
    """Bloch chart: polar angle in [0, pi], azimuth in [0, 2 pi)."""
    polar, azim = params[:, 0], params[:, 1]
    return np.stack(
        [np.cos(polar / 2.0), np.exp(1j * azim) * np.sin(polar / 2.0)], axis=1
    )


def brute_max_single(c1, c2, cfg: SearchConfig = DEFAULT_CONFIG) -> DistanceResult:
    """Maximize the output trace distance over the Bloch sphere.

    Uniform (polar, azimuth) grid with cfg.grid_points per axis, then the
    see-saw over all of C^2 from the best grid point.  arg is the weight
    on |1> of the winning probe.
    """
    lmat = _delta_superop(c1, c2, extended=False)
    n = cfg.grid_points
    polar = np.linspace(0.0, math.pi, n)
    azim = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    grid = np.stack([g.ravel() for g in np.meshgrid(polar, azim, indexing="ij")], axis=1)
    states = _bloch_states(grid)
    values = _tracenorm2_batch(_delta_batch(lmat, states))
    best, psi, converged = _grid_seesaw(
        lmat, states, values, int(np.argmax(values)), np.eye(2), cfg.refine_tol
    )
    return DistanceResult(best, float(abs(psi[1]) ** 2), "bloch-grid", n, converged)


def _schmidt_states(params: np.ndarray) -> np.ndarray:
    """Schmidt chart: sqrt(1 - t) |00> + sqrt(t) |11>, t in [0, 1]."""
    t = params[:, 0]
    states = np.zeros((params.shape[0], 4), dtype=complex)
    states[:, 0] = np.sqrt(1.0 - t)
    states[:, 3] = np.sqrt(t)
    return states


def _restricted_engine(c1, c2, cfg: SearchConfig):
    """Grid over the Schmidt weight t, then the see-saw on span{|00>, |11>}
    from the best interior grid point; returns the result and its probe.

    A product probe (t = 0 or 1) is a fixed point of the see-saw, so the
    search starts inside and keeps the best grid value when it is higher.
    arg is the weight t on |11>.
    """
    lmat = _delta_superop(c1, c2, extended=True)
    states = _schmidt_states(np.linspace(0.0, 1.0, cfg.grid_points)[:, None])
    values = _tracenorm4_batch(_delta_batch(lmat, states))
    start = 1 + int(np.argmax(values[1:-1]))
    best, psi, converged = _grid_seesaw(
        lmat, states, values, start, np.eye(4)[:, [0, 3]], cfg.refine_tol
    )
    t = min(float(abs(psi[3]) ** 2), 1.0)
    result = DistanceResult(best, t, "restricted", cfg.grid_points, converged)
    return result, PureState4.schmidt(math.sqrt(1.0 - t), math.sqrt(t))


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
    polar and azimuth drawn uniformly in turn; the lowest start index wins
    ties.  arg is the weight on |11> of the winning probe."""
    lmat = _delta_superop(c1, c2, extended=True)
    rng = np.random.default_rng(np.random.PCG64(cfg.rng_seed))
    k = cfg.multistarts
    ranges = ((0.0, 1.0), (0.0, math.pi), (0.0, 2.0 * math.pi))
    starts = np.stack([rng.uniform(lo, hi, size=k) for lo, hi in ranges], axis=1)
    best, psi, capped = _seesaw(lmat, _pair_states(starts), np.eye(4), cfg.refine_tol)
    i = int(np.argmax(best))
    weight = float(abs(psi[i, 3]) ** 2)
    return DistanceResult(float(best[i]), weight, "full", k, capped.size == 0)


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
        return _restricted_engine(c1, c2, cfg)[0]
    if mode == "full":
        return _full_engine(c1, c2, cfg)
    raise ValueError(f"mode must be 'restricted' or 'full', got {mode!r}")


def optimal_entangled_probe(
    c1, c2, cfg: SearchConfig = DEFAULT_CONFIG
) -> tuple[PureState4, DistanceResult]:
    """Best probe from the restricted search, with its achieved distance."""
    result, state = _restricted_engine(c1, c2, cfg)
    return state, result


def helstrom(delta) -> Measurement:
    """Minimum-error measurement for a Hermitian output difference.

    The plus projector spans the strictly positive eigenspace; null
    directions go to the minus projector so results are deterministic.
    """
    delta = smallmat.check_hermitian(delta, tol=1e-10)
    vals, vecs = smallmat.hermitian_eigensystem(delta)
    dim = delta.shape[0]
    plus = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if vals[i] > 0.0:
            v = vecs[:, i : i + 1]
            plus += v @ v.conj().T
    plus = 0.5 * (plus + plus.conj().T)
    minus = np.eye(dim) - plus
    return Measurement(plus, 0.5 * (minus + minus.conj().T), dim)


def simulate(
    c1,
    c2,
    probe,
    m: Measurement,
    trials: int,
    rng_seed: int,
) -> float:
    """Empirical success frequency of the guess-on-plus strategy.

    Each trial draws one of the two channels uniformly, applies it to the
    probe (extended when the probe is two-qubit), samples the measurement
    outcome, and guesses channel 1 on the plus outcome.  Deterministic
    given rng_seed (PCG64 counter stream).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(probe, PureState2):
        if m.dim != 2:
            raise ValueError("measurement dimension does not match probe")
        rho = probe.density()
        outs = [channels.apply(c1, rho), channels.apply(c2, rho)]
    elif isinstance(probe, PureState4):
        if m.dim != 4:
            raise ValueError("measurement dimension does not match probe")
        rho = probe.density()
        outs = [channels.apply_extended(c1, rho), channels.apply_extended(c2, rho)]
    else:
        raise ValueError("probe must be a PureState2 or a PureState4")
    p_plus = np.array(
        [min(max(float(np.real(np.trace(out @ m.plus_projector))), 0.0), 1.0)
         for out in outs]
    )
    rng = np.random.default_rng(np.random.PCG64(rng_seed))
    which = rng.integers(0, 2, size=trials)
    clicks_plus = rng.random(trials) < p_plus[which]
    guesses = np.where(clicks_plus, 0, 1)
    return float(np.mean(guesses == which))
