"""The paper's route to W0 through the segment point tau~0, kept as a reference.

With tau~0 = (1-s0) I/N + s0 rho0, the last separable point on the segment
from I/N to rho0 when s0 is chosen so, the paper writes the witness as

    I*(c0 + (1-s0)/(N*s0)) + tau0 - tau~0/s0,

which is algebraically witness.nearest_witness(rho0, tau0) for every s0 in
(0, 1).  The tests compare the two.  The form cancels two terms of size
1/(N*s0), so it loses digits as s0 goes to 0 (about 1e-8 at s0 = 1e-9).
"""

import numpy as np

from witgeo.linalg import DensityState, hs_inner
from witgeo.witness import Witness


def segment_state(rho0: DensityState, s0: float) -> DensityState:
    """tau~0 = (1-s0) I/N + s0 rho0."""
    if not 0.0 < s0 < 1.0:
        raise ValueError(f"s0 must lie in (0, 1), got {s0}")
    return DensityState((1 - s0) * np.eye(rho0.n) / rho0.n + s0 * rho0.mat, rho0.dims)


def segment_witness(rho0: DensityState, tau0: DensityState, s0: float) -> Witness:
    """The witness assembled through tau~0, with s0 recorded."""
    n = rho0.n
    tau_tilde = segment_state(rho0, s0)
    c0 = hs_inner(tau0.mat, rho0.mat - tau0.mat).real
    w = np.eye(n) * (c0 + (1 - s0) / (n * s0)) + tau0.mat - tau_tilde.mat / s0
    return Witness(matrix=w, c0=c0, rho0=rho0, tau0=tau0, s0=s0)
