"""Dense matrices of product projections, for the tests.

The see-saw's ``argmin`` is a tuple of unit vectors, one per party, which
is all the library needs; the tests compare it with operators through its
full N x N matrix.
"""

import numpy as np

from witgeo.linalg import tensor


def product_matrix(factors) -> np.ndarray:
    """|v><v| for v the Kronecker product of the factors, one vector per party."""
    v = tensor(*(f[:, None] for f in factors))
    return np.outer(v, v.conj())
