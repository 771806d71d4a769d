"""Every closed-form state is positive semidefinite over the parameters the CLI admits.

``DensityState`` takes no spectrum, so this is where each constructor's
form is proven.  Up to N = 1024 the test takes the spectrum.  Above
that, it checks the matrix entrywise against its convex form:
nonnegative weights on terms that are positive semidefinite by their
form, a nonnegative diagonal or a rank-1 ``|v><v|``.
"""

import math

import numpy as np
import pytest

from witgeo.linalg import MAX_SIZE
from witgeo.measurements import ghz_witness
from witgeo.spin import is_prime
from witgeo.states import (
    closest_separable,
    completely_random,
    ghz,
    ghz_dephased,
    max_entangled,
    three_qubit_family,
    three_qubit_nearest,
)
from witgeo.upb import bound_entangled, far_face_witness, tiles, uniform_mixture

from ghz_reference import segment_weight
from segment_reference import segment_state

TOL_PSD = 1e-9
SPECTRUM_MAX_N = 1024
QUDIT_DIMS = [d for d in range(2, math.isqrt(MAX_SIZE) + 1) if is_prime(d)]
GHZ_PARTIES = range(2, MAX_SIZE.bit_length())  # up to 2^n = MAX_SIZE
# far-face eps from just above the edge where Tr(W rho0) = -eps^2 N/(m(N-m))
# reaches -DETECTION_TOL, eps = sqrt(1e-10 * 20/9) ~ 1.49e-5, to just below m/N
TILES_EPS = [1.5e-5, 0.028416, 5 / 9 * (1 - 1e-9)]
THREEQ_ADMITTED = [
    (0.0, 0.125), (0.0, 0.125 + 1e-12), (0.0, 1e-12), (0.0, 0.0625),
    (0.0625, 0.0625), (-0.0625, 0.0625), (0.03125, 0.0625),
    (0.125 - 1e-9, 1e-9), (-0.125 + 1e-9, 1e-9), (0.1 + 1e-12, 0.025),
]


# Terms positive semidefinite by their form: ("diag", d) is diag(d) with d >= 0,
# ("pure", idx, v) is |v><v| for a vector supported on the indices idx.


def _mixed(n):
    return ("diag", np.full(n, 1 / n))


def _ghz_terms(n):
    return [(1.0, ("pure", [0, 2**n - 1], np.full(2, 1 / np.sqrt(2))))]


def _dephased_terms(n):
    return [(0.5, ("pure", [0], [1.0])), (0.5, ("pure", [2**n - 1], [1.0]))]


def _corner_terms(n):
    # I/N + (|0><N-1| + |N-1><0|)/N: the inner diagonal plus (|0> + |N-1>)(<0| + <N-1|)/N
    size = 2**n
    inner = np.full(size, 1 / size)
    inner[[0, -1]] = 0
    return [(1.0, ("diag", inner)), (1 / size, ("pure", [0, size - 1], [1.0, 1.0]))]


def _scaled(w, terms):
    return [(w * tw, term) for tw, term in terms]


def _max_entangled_terms(d):
    return [(1.0, ("pure", [k * (d + 1) for k in range(d)], np.full(d, 1 / np.sqrt(d))))]


def _segment_terms(s, n, rho_terms):
    """(1-s) I/N + s rho: the segment from the maximally mixed state."""
    return [(1 - s, _mixed(n)), *_scaled(s, rho_terms)]


def _ghz_tau0(n):
    g = ghz_witness(n)
    x = g.mixing
    return g.witness.tau0, [*_scaled(x, _dephased_terms(n)), *_scaled(1 - x, _corner_terms(n))]


def _tiles():
    upb = tiles()
    return upb, uniform_mixture(upb)


def _tau_tilde(ds):
    d, s0 = ds
    terms = _segment_terms(s0, d * d, _max_entangled_terms(d))
    return segment_state(max_entangled(d), s0), terms


CASES = {
    "completely_random": [
        (dims, lambda dims: (completely_random(dims), [(1.0, _mixed(math.prod(dims)))]))
        for dims in [*((d, d) for d in QUDIT_DIMS), *((2,) * n for n in GHZ_PARTIES)]
    ],
    "max_entangled": [(d, lambda d: (max_entangled(d), _max_entangled_terms(d)))
                      for d in QUDIT_DIMS],
    "closest_separable": [
        (d, lambda d: (closest_separable(max_entangled(d)),
                       _segment_terms(1 / (d + 1), d * d, _max_entangled_terms(d))))
        for d in QUDIT_DIMS
    ],
    # tau~0 = (1-s0) I/N + s0 rho0, s0 in (0, 1): the segment form closest_separable covers
    "tau_tilde": [((d, s0), _tau_tilde) for d in (2, 3, 5, 31, 37)
                  for s0 in (1e-6, 1 / (d + 1), 1 - 1e-9)],
    "ghz": [(n, lambda n: (ghz(n), _ghz_terms(n))) for n in GHZ_PARTIES],
    "ghz_dephased": [(n, lambda n: (ghz_dephased(n), _dephased_terms(n))) for n in GHZ_PARTIES],
    "ghz_tau0": [(n, _ghz_tau0) for n in GHZ_PARTIES],
    # the paper's GHZ segment point tau~0, built by the tests' reference route
    "ghz_segment_state": [
        (n, lambda n: (segment_state(ghz(n), segment_weight(n)),
                       _segment_terms(segment_weight(n), 2**n, _ghz_terms(n))))
        for n in GHZ_PARTIES
    ],
    # N = 8 and N = 9 below: the spectrum decides, no convex form is needed
    "three_qubit_family": [
        ((c, d), lambda cd: (three_qubit_family((cd[0] + cd[1]) / 2, (cd[0] - cd[1]) / 2), None))
        for c in (-0.125 - 1e-12, -0.125, -0.0625, 0.0, 0.0625, 0.125, 0.125 + 1e-12)
        for d in (-0.125 - 1e-12, -0.125, 0.0, 0.03125, 0.125, 0.125 + 1e-12)
    ],
    # the CLI admits t > 0 with |m| + t <= 1/8 (up to the 1e-12 range tolerance); the
    # segment point tau~0 at s = 1/(1+8t) is built by the tests' reference route
    **{
        f"three_qubit_{part}": [((m, t), build) for m, t in THREEQ_ADMITTED]
        for part, build in [
            ("nearest", lambda mt: (three_qubit_nearest(*mt), None)),
            ("segment", lambda mt: (segment_state(three_qubit_family(*mt), 1 / (1 + 8 * mt[1])),
                                    None)),
        ]
    },
    "uniform_mixture": [("tiles", lambda _: (uniform_mixture(tiles()), None))],
    "bound_entangled": [("tiles", lambda _: (bound_entangled(*_tiles()), None))],
    "far_face_tau0": [(eps, lambda eps: (far_face_witness(*_tiles(), eps).tau0, None))
                      for eps in TILES_EPS],
}


def _assert_convex_form(mat, terms):
    rest = np.array(mat)
    for weight, term in terms:
        assert weight >= 0
        if term[0] == "diag":
            assert (term[1] >= 0).all()
            rest[np.diag_indices_from(rest)] -= weight * term[1]
        else:
            _, idx, v = term
            v = np.asarray(v, dtype=complex)
            rest[np.ix_(idx, idx)] -= weight * np.outer(v, v.conj())
    assert np.abs(rest).max() <= 1e-12


@pytest.mark.parametrize(
    "build,param",
    [
        pytest.param(build, param, id=f"{name}-{param}")
        for name, cases in CASES.items()
        for param, build in cases
    ],
)
def test_closed_form_is_positive_semidefinite(build, param):
    state, terms = build(param)
    if state.n <= SPECTRUM_MAX_N:
        assert np.linalg.eigvalsh(state.mat).min() >= -TOL_PSD
    else:
        _assert_convex_form(state.mat, terms)
