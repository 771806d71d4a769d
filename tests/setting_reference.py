"""A measurement setting's two kernels through the joint isometry, kept as a reference.

``MeasurementSetting.weighted_sum`` and ``joint_probabilities`` contract
one party at a time and never form the N x N isometry A, the Kronecker
product of the party bases whose column o is the joint outcome vector.
These are the dense forms they replace,

    M = A diag(weights) A^dagger,    p[o] = (A^dagger rho A)[o, o],

at O(N^3) each; the tests require the two routes to agree.
"""

import numpy as np

from witgeo.linalg import tensor


def joint_isometry(setting) -> np.ndarray:
    """Kron of the party bases; column o is the joint outcome vector."""
    return tensor(*setting.party_bases)


def weighted_sum(setting) -> np.ndarray:
    """M = sum_o weights[o] * |o><o| in the joint measurement basis."""
    a = joint_isometry(setting)
    return (a * setting.weights.ravel()) @ a.conj().T


def joint_probabilities(setting, rho: np.ndarray) -> np.ndarray:
    """Exact outcome distribution Tr[(tensor of projectors) rho]."""
    a = joint_isometry(setting)
    return (a.conj() * (np.asarray(rho) @ a)).sum(axis=0).real.reshape(setting.dims)
