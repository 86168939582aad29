"""A validated Hermitian eigensystem for dimensions 2 and 4.

Every operator in this package is either a single-qubit matrix (2x2) or a
two-qubit matrix (4x4), so this module accepts exactly those two shapes.
It checks Hermiticity within a fixed tolerance and takes eigenvalues and
eigenvectors from LAPACK (``numpy.linalg.eigh``) at both sizes, the same
solver the oracle's batched Lemma 2 bound uses.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12

_SUPPORTED_DIMS = (2, 4)


def hermitian_eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns) of
    a square 2x2 or 4x4 matrix that is Hermitian within HERMITICITY_TOL.

    Eigenvector phases are an implementation detail; callers may only rely
    on the spanned eigenspaces.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] not in _SUPPORTED_DIMS:
        raise ValueError(
            f"supported dimensions are {_SUPPORTED_DIMS}, got {h.shape[0]}"
        )
    dev = float(np.max(np.abs(h - h.conj().T)))
    if not dev <= HERMITICITY_TOL:  # NaN fails too
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    return np.linalg.eigh(0.5 * (h + h.conj().T))
