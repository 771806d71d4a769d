"""The bucket-table shot sampler: exact against the per-shot binary search.

``measurements.shot_estimate`` draws outcomes through ``_inverse_cdf``.
These checks hold it to the search it replaced:

* every ``ShotEstimate`` equals the per-shot search loop kept in
  ``tests/shot_reference.py``, over the in-repo targets, states and shot
  counts;
* on adversarial CDFs (Hypothesis, derandomized) every draw equals
  ``np.searchsorted(cdf, u, side="right")``;
* the per-shot fallback search sees only a small share of the draws,
  and a small sample builds a table of no more than twice its size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shot_reference
from witgeo import measurements
from witgeo.measurements import (
    _inverse_cdf,
    far_face_decomposition,
    ghz_decomposition,
    qudit_decomposition,
    shot_estimate,
    standard_witness,
    three_qubit_decomposition,
    three_qubit_witness,
    two_qubit_decomposition,
)
from witgeo.states import completely_random
from witgeo.upb import estimate_epsilon, far_face_witness, tiles


def _ghz(n):
    g = ghz_decomposition(n)
    return g.witness, g.decomposition


def _far_face():
    upb = tiles()
    eps = estimate_epsilon(upb, restarts=24, seed=3).epsilon
    return far_face_witness(upb, eps), far_face_decomposition(upb, eps)


TARGETS = {
    "bell2": lambda: (standard_witness(2), two_qubit_decomposition()),
    **{
        f"qudit{d}": lambda d=d: (standard_witness(d), qudit_decomposition(d))
        for d in (3, 5, 7, 11, 13)
    },
    **{f"ghz{n}": lambda n=n: _ghz(n) for n in range(2, 9)},
    "threeq_0_0.125": lambda: (three_qubit_witness(0.0, 0.125), three_qubit_decomposition(0.125)),
    "threeq_0.02_0.05": lambda: (three_qubit_witness(0.02, 0.05), three_qubit_decomposition(0.05)),
    "tiles": _far_face,
}


@pytest.mark.parametrize("target", TARGETS)
def test_equals_per_shot_search(target):
    w, dec = TARGETS[target]()
    for state in (w.rho0, w.tau0, completely_random(w.dims)):
        for shots in (1, 7, 1000, 100_000):
            expected = shot_reference.shot_estimate(dec, state, shots, seed=11)
            assert shot_estimate(dec, state, shots, seed=11) == expected


# every bucket edge j / m for m <= 2**15, the library's bucket count up to 512 outcomes
EDGES = np.arange(2**15) / 2**15
TINY = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 2.0**-60, 1e-17]
PROB = st.one_of(st.just(0.0), st.sampled_from(TINY), st.floats(0.0, 1.0))


@st.composite
def library_cdfs(draw):
    """The library's CDF of probabilities built from runs, with zero runs and tiny values."""
    runs = draw(st.lists(st.tuples(PROB, st.integers(1, 40)), min_size=1, max_size=12))
    probs = np.repeat([p for p, _ in runs], [k for _, k in runs])
    if draw(st.booleans()):
        probs = np.append(probs, 0.0)  # the forced cdf[-1] = 1 can select it
    if not probs.sum() > 0:
        probs[draw(st.integers(0, len(probs) - 1))] = 1.0
    cdf = np.cumsum(probs / probs.sum())
    cdf[-1] = 1.0
    return cdf


@st.composite
def overshooting_cdfs(draw):
    """A sorted body whose last entries round above 1, then the forced 1.0."""
    body = draw(st.lists(st.floats(0.0, 1.0), max_size=60))
    above = [np.nextafter(1.0, 2.0), 1.0 + 2 * np.finfo(float).eps]
    tail = draw(st.lists(st.sampled_from(above), min_size=1, max_size=3))
    return np.append(np.sort(np.concatenate([body, tail])), 1.0)


@st.composite
def one_bucket_cdfs(draw):
    """Every step below the last inside one 2**-15 wide bucket: one bucket for every m here."""
    j = draw(st.integers(0, 2**15 - 1))
    offsets = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=60))
    return np.append(np.sort((j + np.array(offsets)) / 2**15), 1.0)


def _keys(cdf: np.ndarray, seed: int) -> np.ndarray:
    """0, 1 - 2**-53, every bucket edge, every CDF value and their neighbours, and random draws."""
    pts = np.concatenate([EDGES, cdf, [0.0, 1.0 - 2.0**-53]])
    near = np.concatenate([pts, np.nextafter(pts, 0.0), np.nextafter(pts, 1.0)])
    near = near[(near >= 0.0) & (near < 1.0)]
    return np.concatenate([near, np.random.default_rng(seed).random(500)])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    cdf=st.one_of(st.just(np.array([1.0])), library_cdfs(), overshooting_cdfs(), one_bucket_cdfs()),
    seed=st.integers(0, 2**32 - 1),
    few=st.integers(1, 3000),
)
def test_draws_equal_searchsorted(cdf, seed, few):
    u = _keys(cdf, seed)
    # fewer draws than 64 per outcome give a table of fewer buckets
    for keys in (u, np.random.default_rng(seed).choice(u, few)):
        assert np.array_equal(_inverse_cdf(cdf, keys), np.searchsorted(cdf, keys, side="right"))


def _searches(monkeypatch, dec, shots):
    """Keys of every np.searchsorted call: (bucket-edge searches, per-shot searches)."""
    calls = []
    search = np.searchsorted

    def record(a, v, *args, **kwargs):
        calls.append(np.asarray(v))
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(measurements.np, "searchsorted", record)
    shot_estimate(dec, completely_random(dec.dims), shots, seed=4)
    # the bucket-edge search ends at the key 1.0; shot keys lie in [0, 1)
    edges = [v for v in calls if v.size and v[-1] == 1.0]
    return edges, [v for v in calls if not (v.size and v[-1] == 1.0)]


@pytest.mark.parametrize("target", ["ghz8", "qudit13"])
def test_fallback_search_sees_few_draws(target, monkeypatch):
    _, dec = TARGETS[target]()
    shots = 100_000
    _, per_shot = _searches(monkeypatch, dec, shots)
    assert len(per_shot) <= len(dec.settings)
    assert sum(v.size for v in per_shot) <= len(dec.settings) * shots / 16


@pytest.mark.parametrize("shots", [1, 7, 1000])
def test_table_never_outgrows_the_sample(shots, monkeypatch):
    _, dec = TARGETS["ghz8"]()
    edges, _ = _searches(monkeypatch, dec, shots)
    assert len(edges) == len(dec.settings)
    assert all(len(v) - 1 <= 2 * shots for v in edges)
