"""Every basis the program builds is unitary over the parameters the CLI admits.

``MeasurementSetting`` checks only its weight-table shape, so this is
where each closed-form party basis is proven, as ``test_positivity.py``
proves the closed-form states.  A basis read from a decomposition file is
checked where it enters, by ``io`` (``test_cli.py``,
``test_stored_basis_is_checked_by_the_reader``).
"""

import math

import numpy as np
import pytest

from witgeo.linalg import MAX_SIZE
from witgeo.measurements import (
    _xy_axis_basis,
    complete_basis,
    ghz_settings,
    ghz_witness,
    qudit_decomposition,
    three_qubit_decomposition,
)
from witgeo.spin import is_prime
from witgeo.upb import tiles

from upb_ladder import pyramid, shifts

TOL_UNITARY = 1e-12
# every prime d with d^2 <= MAX_SIZE; d = 2 measures the GHZ bases of n = 2
QUDIT_DIMS = [d for d in range(3, math.isqrt(MAX_SIZE) + 1) if is_prime(d)]
GHZ_PARTIES = range(2, MAX_SIZE.bit_length())  # up to 2^n = MAX_SIZE


def _qudit(d):
    # the spin.eigenbasis pairs of the d+1 settings: indices (1,0), (d-1,0), (j,1), (d-j,1)
    return [u for _, s in qudit_decomposition(d).settings for u in s.party_bases]


def _ghz(n):
    # the computational basis of Delta and the equatorial axes at pi*j/n of Q
    return [np.eye(2, dtype=complex), *(_xy_axis_basis(np.pi * j / n) for j in range(n))]


def _three_qubit(_):
    # the x and y bases; the settings do not depend on t
    return [u for _, s in three_qubit_decomposition(0.125).settings for u in s.party_bases]


def _far_face(family):
    # far_face_decomposition completes every factor of every member
    return [complete_basis(f) for vec in family().vectors for f in vec]


CASES = {
    "qudit": [(d, _qudit) for d in QUDIT_DIMS],
    "ghz": [(n, _ghz) for n in GHZ_PARTIES],
    "three_qubit": [("xy", _three_qubit)],
    "complete_basis": [(family.__name__, lambda name, f=family: _far_face(f))
                       for family in (tiles, shifts, pyramid)],
}


@pytest.mark.parametrize(
    "build,param",
    [
        pytest.param(build, param, id=f"{name}-{param}")
        for name, cases in CASES.items()
        for param, build in cases
    ],
)
def test_closed_form_basis_is_unitary(build, param):
    bases = build(param)
    assert bases
    for u in bases:
        d = len(u)
        assert u.shape == (d, d)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() <= TOL_UNITARY


@pytest.mark.parametrize("n", range(2, 7))
def test_ghz_settings_measure_the_proven_bases(n):
    # the bases proven above are exactly the ones ghz_settings builds
    proven = _ghz(n)
    dec = ghz_settings(ghz_witness(n))
    for k, (_, setting) in enumerate(dec.settings):
        assert all(np.array_equal(u, proven[k]) for u in setting.party_bases), k
