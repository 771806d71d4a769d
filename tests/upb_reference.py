"""The UPB uniform mixture member by member, kept as a reference.

``upb.uniform_mixture`` forms all m product vectors with one stacked
``linalg.tensor`` call.  This is the per-member form it replaces: each
vector is np.kron of its party factors, and the projectors are summed
in member order,

    mu0 = (1/m) sum_k |phi_k><phi_k|;

the tests require the two routes to agree bit for bit.
"""

from functools import reduce

import numpy as np


def member_projector(upb, k: int) -> np.ndarray:
    """|phi_k><phi_k| for phi_k the np.kron of member k's factors."""
    v = reduce(np.kron, upb.vectors[k])
    return np.outer(v, v.conj())


def uniform_mixture(upb) -> np.ndarray:
    """The sum of the member projectors over m, as a matrix."""
    return sum(member_projector(upb, k) for k in range(upb.m)) / upb.m
