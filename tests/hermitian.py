"""A checked eigendecomposition for the tests.

The library takes spectra with ``np.linalg.eigvalsh`` and ``eigh``
directly.  The tests use this form, which rejects a non-Hermitian input
instead of silently reading one triangle of it.
"""

import numpy as np

from witgeo.linalg import TOL_HERM


def hermitian_eigen(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  Rejects
    non-Hermitian input instead of silently symmetrizing.
    """
    a = np.asarray(a, dtype=complex)
    dev = np.abs(a - a.conj().T).max()
    if dev > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e}")
    w, v = np.linalg.eigh(a)
    return w, v
