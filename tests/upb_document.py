"""UPB documents as ``io.load_upb`` reads them.

The program reads UPB files (``witgeo ... upb FILE``) and writes none;
the tests write them with this.
"""

import numpy as np


def pairs(vec) -> list[list[float]]:
    """[re, im] pairs of a complex vector."""
    return np.asarray(vec, dtype=complex).view(float).reshape(-1, 2).tolist()


def upb_doc(upb) -> dict:
    return {
        "shape": list(upb.dims),
        "vectors": [[pairs(factor) for factor in vec] for vec in upb.vectors],
    }
