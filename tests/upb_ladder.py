"""Unextendible product bases beyond ``tiles``, in closed form.

Shifts and pyramid are from Bennett, DiVincenzo, Mor, Shor, Smolin and Terhal,
PRL 82, 5385 (1999).  The program ships only ``tiles``; the tests write
these with ``upb_document.upb_doc`` and run them through ``upb FILE``.

* shifts: 2 x 2 x 2, |0,1,+>, |1,+,0>, |+,0,1>, |-,-,->;
* pyramid: 3 x 3, |v_j>|v_{2j mod 5}> for j = 0..4, with
  v_j proportional to (cos 2 pi j/5, sin 2 pi j/5, h), h = sqrt(1 + sqrt 5)/2;
* rotated shifts: shifts with |+>, |-> replaced by e = cos t|0> + sin t|1>
  and e' = -sin t|0> + cos t|1>.  For 0 < t < pi/2 every party's four
  factors are pairwise non-parallel, so a product vector is orthogonal to
  at most three members: a UPB.  At t = pi/4 it is shifts up to a phase;
  as t goes to 0 it tends to an extendible family (|000> completes it), so
  its eps, and with it the far-face witness's detection value, goes to 0.

``UpbSet`` normalizes the factors and checks orthonormality.
"""

import numpy as np

from witgeo.upb import UpbSet


def shifts() -> UpbSet:
    zero, one = np.eye(2)
    plus, minus = zero + one, zero - one
    return UpbSet(
        (2, 2, 2),
        ((zero, one, plus), (one, plus, zero), (plus, zero, one), (minus, minus, minus)),
    )


def pyramid() -> UpbSet:
    h = np.sqrt(1 + np.sqrt(5)) / 2
    v = [np.array([np.cos(2 * np.pi * j / 5), np.sin(2 * np.pi * j / 5), h]) for j in range(5)]
    return UpbSet((3, 3), tuple((v[j], v[2 * j % 5]) for j in range(5)))


def rotated_shifts(theta: float) -> UpbSet:
    zero, one = np.eye(2)
    e = np.cos(theta) * zero + np.sin(theta) * one
    e_perp = -np.sin(theta) * zero + np.cos(theta) * one
    return UpbSet(
        (2, 2, 2),
        ((zero, one, e), (one, e, zero), (e, zero, one), (e_perp, e_perp, e_perp)),
    )
