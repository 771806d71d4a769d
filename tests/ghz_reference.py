"""The GHZ family's separable reference points, built densely.

The program forms every GHZ matrix from its X entries (``states.x_matrix``).
These are the paper's definitions written out on full matrices, without
that helper, so that the tests compare two independent routes:

* Delta, the GHZ state without coherences;
* Q, the corner state I/N plus corner coherences 1/N;
* s0 = 1/(2^(n-1) + 1), the weight of the last separable point
  tau~0 = (1-s0) I/N + s0 rho0 on the segment from I/N to the GHZ state
  (``segment_reference.segment_state(ghz(n), s0)``), which equals
  s0 Delta + (1-s0) Q.
"""

import numpy as np


def dephased(n: int) -> np.ndarray:
    """Delta = (|0...0><0...0| + |1...1><1...1|)/2."""
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[0, 0] = mat[-1, -1] = 0.5
    return mat


def corner_mix(n: int) -> np.ndarray:
    """Q = I/N + (|0...0><1...1| + |1...1><0...0|)/N."""
    size = 2**n
    mat = np.eye(size, dtype=complex) / size
    mat[0, -1] = mat[-1, 0] = 1 / size
    return mat


def segment_weight(n: int) -> float:
    """s0 = 1/(2^(n-1) + 1)."""
    return 1.0 / (2 ** (n - 1) + 1)
