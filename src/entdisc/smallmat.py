"""Validated Hermitian spectral routines for dimensions 2 and 4.

Every operator in this package is either a single-qubit matrix (2x2) or a
two-qubit matrix (4x4), so this module accepts exactly those two shapes.
It checks Hermiticity within a fixed tolerance and takes eigenvalues and
eigenvectors from LAPACK (``numpy.linalg.eigh``) at both sizes, the same
solver the oracle's batched searches use.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12

_SUPPORTED_DIMS = (2, 4)


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex array of dimension 2 or 4."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in _SUPPORTED_DIMS:
        raise ValueError(
            f"supported dimensions are {_SUPPORTED_DIMS}, got {m.shape[0]}"
        )
    return m


def check_hermitian(h, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity within ``tol`` and return the coerced matrix."""
    h = as_matrix(h)
    dev = float(np.max(np.abs(h - h.conj().T)))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    return h


def hermitian_eigenvalues(h) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, with multiplicity, ascending."""
    vals, _ = hermitian_eigensystem(h)
    return vals


def hermitian_eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns).

    Eigenvector phases are an implementation detail; callers may only rely
    on the spanned eigenspaces.
    """
    h = check_hermitian(h)
    return np.linalg.eigh(0.5 * (h + h.conj().T))


def trace_norm(h) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eigenvalues(h))))
