"""Dense matrices of product projections, for the tests.

The library keeps a ``ProductProjection`` as its unit factors, which is
all the see-saw's ``argmin`` needs; the tests compare it with operators
through its full N x N matrix.
"""

import numpy as np

from witgeo.linalg import ProductProjection, tensor


def product_matrix(p: ProductProjection) -> np.ndarray:
    """|v><v| for v the Kronecker product of the factors."""
    v = tensor(*p.factors)
    return np.outer(v, v.conj())
