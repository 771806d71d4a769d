"""Unextendible product bases beyond ``tiles``, in closed form.

Both are from Bennett, DiVincenzo, Mor, Shor, Smolin and Terhal,
PRL 82, 5385 (1999).  The program ships only ``tiles``; the tests write
these with ``upb_document.upb_doc`` and run them through ``upb FILE``.

* shifts: 2 x 2 x 2, |0,1,+>, |1,+,0>, |+,0,1>, |-,-,->;
* pyramid: 3 x 3, |v_j>|v_{2j mod 5}> for j = 0..4, with
  v_j proportional to (cos 2 pi j/5, sin 2 pi j/5, h), h = sqrt(1 + sqrt 5)/2.

``UpbSet`` normalizes the factors and checks orthonormality.
"""

import numpy as np

from witgeo.linalg import SystemShape
from witgeo.upb import UpbSet


def shifts() -> UpbSet:
    zero, one = np.eye(2)
    plus, minus = zero + one, zero - one
    return UpbSet(
        SystemShape((2, 2, 2)),
        ((zero, one, plus), (one, plus, zero), (plus, zero, one), (minus, minus, minus)),
    )


def pyramid() -> UpbSet:
    h = np.sqrt(1 + np.sqrt(5)) / 2
    v = [np.array([np.cos(2 * np.pi * j / 5), np.sin(2 * np.pi * j / 5), h]) for j in range(5)]
    return UpbSet(SystemShape((3, 3)), tuple((v[j], v[2 * j % 5]) for j in range(5)))
