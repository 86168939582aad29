"""Brute-force verification: probe search, Helstrom measurements, sampling.

Nothing in this module uses the closed-form distance formulas.  Trace
distances are maximized directly over probe states by applying the
channels' superoperators (:func:`channels.superoperator`), so the results
serve as an independent check on the closed forms and on the decision
tree.  Grid evaluations are batched through numpy (including LAPACK's
batched Hermitian eigensolver for the 4x4 case), which keeps the
acceptance sweeps fast.

The three searches are charts over one maximizer, :func:`_ascend`, a
lockstep coordinate-golden ascent from a batch of starts:

* Bloch: (polar, azimuth), one start at the best grid point;
* restricted: the Schmidt weight t of sqrt(1 - t)|00> + sqrt(t)|11>, one
  start at the best grid point.  A relative phase on |11> is not searched:
  it is undone exactly by diag(1, e^{-i eta}) on the reference qubit, a
  unitary that commutes with id (x) N and leaves the trace norm unchanged;
* full: the pair chart sqrt(1 - t)|0>|v0> + sqrt(t)|1>|v1> (v0 a Bloch
  state of the system qubit, v1 orthogonal to it), seeded multistarts.  By
  the SVD every pure two-qubit state is a chart point moved by a unitary on
  the reference qubit, which, as above, leaves the trace norm unchanged.

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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 60
_MAX_SWEEPS = 60


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search budget for the brute-force maximizers."""

    grid_points: int = 256
    multistarts: int = 64
    refine_tol: float = 1e-10
    rng_seed: int = 42

    def __post_init__(self):
        if self.grid_points < 64:
            raise ValueError("grid_points must be >= 64")
        if self.multistarts < 16:
            raise ValueError("multistarts must be >= 16")
        if not self.refine_tol > 0.0:
            raise ValueError("refine_tol must be positive")


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


def _ascend(values, starts: np.ndarray, ranges: list, refine_tol: float):
    """Lockstep coordinate-golden ascent from every row of ``starts``.

    ``values`` maps a (k, d) array of chart points to their k objective
    values.  A sweep runs a golden-section search along each coordinate in
    turn; all running starts advance together, one batched ``values`` call
    per golden step.  A coordinate moves to the final bracket midpoint only
    when that improves the start's best value.  Each start stops after its
    first sweep that gains less than ``refine_tol``, or at the sweep cap.
    Returns the best values, the points reaching them, and the indices of
    the starts that stopped at the cap.
    """
    points = np.array(starts, dtype=float)
    best = values(points)
    running = np.arange(len(points))
    for _ in range(_MAX_SWEEPS):
        pts, top = points[running], best[running]
        gained = np.zeros(len(running))
        for j, (lo_j, hi_j) in enumerate(ranges):

            def value_at(x, j=j):
                trial = pts.copy()
                trial[:, j] = x
                return values(trial)

            lo = np.full(len(running), float(lo_j))
            hi = np.full(len(running), float(hi_j))
            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            f1, f2 = value_at(x1), value_at(x2)
            for _ in range(_GOLDEN_ITERS):
                # keep the bracket side of the better probe, probe once more
                right = f1 < f2
                lo = np.where(right, x1, lo)
                hi = np.where(right, hi, x2)
                width = hi - lo
                x = np.where(right, lo + _GOLDEN * width, hi - _GOLDEN * width)
                f = value_at(x)
                x1, x2 = np.where(right, x2, x), np.where(right, x, x1)
                f1, f2 = np.where(right, f2, f), np.where(right, f, f1)
            xmid = 0.5 * (lo + hi)
            vmid = value_at(xmid)
            improve = vmid > top
            pts[improve, j] = xmid[improve]
            gained = np.where(improve, gained + vmid - top, gained)
            top = np.maximum(top, vmid)
        points[running], best[running] = pts, top
        running = running[gained >= refine_tol]
        if running.size == 0:
            break
    return best, points, running


def _grid_ascend(values, grid: np.ndarray, ranges: list, refine_tol: float):
    """Best point of ``grid``, refined by :func:`_ascend` from there."""
    vals = values(grid)
    i = int(np.argmax(vals))
    best, points, capped = _ascend(values, grid[i : i + 1], ranges, refine_tol)
    return max(float(best[0]), float(vals[i])), points[0], capped.size == 0


def _bloch_states(params: np.ndarray) -> np.ndarray:
    """Bloch chart: polar angle in [0, pi], azimuth in [0, 2 pi)."""
    polar, azim = params[:, 0], params[:, 1]
    return np.stack(
        [np.cos(polar / 2.0), np.exp(1j * azim) * np.sin(polar / 2.0)], axis=1
    )


def brute_max_single(c1, c2, cfg: SearchConfig = DEFAULT_CONFIG) -> DistanceResult:
    """Maximize the output trace distance over the Bloch sphere.

    Uniform (polar, azimuth) grid with cfg.grid_points per axis, then
    golden-section coordinate refinement from the best grid point.
    """
    lmat = _delta_superop(c1, c2, extended=False)

    def values(params: np.ndarray) -> np.ndarray:
        return _tracenorm2_batch(_delta_batch(lmat, _bloch_states(params)))

    n = cfg.grid_points
    polar = np.linspace(0.0, math.pi, n)
    azim = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    grid = np.stack([g.ravel() for g in np.meshgrid(polar, azim, indexing="ij")], axis=1)
    best, (bp, _), converged = _grid_ascend(
        values, grid, [(0.0, math.pi), (0.0, 2.0 * math.pi)], cfg.refine_tol
    )
    return DistanceResult(best, math.sin(bp / 2.0) ** 2, "bloch-grid", n, converged)


def _schmidt_states(params: np.ndarray) -> np.ndarray:
    """Schmidt chart: sqrt(1 - t) |00> + sqrt(t) |11>, t in [0, 1]."""
    t = params[:, 0]
    states = np.zeros((params.shape[0], 4), dtype=complex)
    states[:, 0] = np.sqrt(1.0 - t)
    states[:, 3] = np.sqrt(t)
    return states


def _restricted_engine(c1, c2, cfg: SearchConfig):
    """Grid over t, then golden refinement, on the real Schmidt family;
    returns the result and its probe state."""
    lmat = _delta_superop(c1, c2, extended=True)

    def values(params: np.ndarray) -> np.ndarray:
        return _tracenorm4_batch(_delta_batch(lmat, _schmidt_states(params)))

    grid = np.linspace(0.0, 1.0, cfg.grid_points)[:, None]
    best, (bt,), converged = _grid_ascend(values, grid, [(0.0, 1.0)], cfg.refine_tol)
    result = DistanceResult(best, float(bt), "restricted", cfg.grid_points, converged)
    return result, PureState4.schmidt(math.sqrt(1.0 - bt), math.sqrt(bt))


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


_PAIR_RANGES = [(0.0, 1.0), (0.0, math.pi), (0.0, 2.0 * math.pi)]


def _full_engine(c1, c2, cfg: SearchConfig) -> DistanceResult:
    """Seeded multistart ascent on the pair chart; the lowest start index
    wins ties.  arg is the weight on |11> at the winning point."""
    lmat = _delta_superop(c1, c2, extended=True)

    def values(params: np.ndarray) -> np.ndarray:
        return _tracenorm4_batch(_delta_batch(lmat, _pair_states(params)))

    rng = np.random.default_rng(np.random.PCG64(cfg.rng_seed))
    k = cfg.multistarts
    starts = np.empty((k, len(_PAIR_RANGES)))
    for j, (lo, hi) in enumerate(_PAIR_RANGES):
        starts[:, j] = rng.uniform(lo, hi, size=k)
    best, params, capped = _ascend(values, starts, _PAIR_RANGES, cfg.refine_tol)
    i = int(np.argmax(best))
    weight = float(abs(_pair_states(params[i : i + 1])[0, 3]) ** 2)
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
