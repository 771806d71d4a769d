"""The multinomial shot sampler of ``measurements.shot_estimate``.

Each setting's outcome counts are one multinomial draw, so no single
shot can be compared with a per-shot search; these checks hold the
estimator to its law instead:

* on adversarial probability vectors (Hypothesis, derandomized) the
  counts are a sample of the shots: non-negative, summing to the shot
  count, and none on an outcome of probability 0 other than the last;
* over the in-repo targets and states the estimate lies within five
  standard errors of the exact value, or equals it at zero variance,
  and a repeat gives the same ``ShotEstimate``;
* over fixed seeds the mean estimate and mean squared standard error
  equal those of the per-shot search loop kept in
  ``tests/shot_reference.py``, within four standard errors;
* 10**15 shots per setting, past any per-shot array, give an estimate
  within five standard errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shot_reference
from witgeo.measurements import (
    WitnessDecomposition,
    far_face_decomposition,
    ghz_decomposition,
    qudit_decomposition,
    shot_estimate,
    standard_witness,
    three_qubit_decomposition,
    three_qubit_witness,
)
from witgeo.states import completely_random
from witgeo.oracle import SeeSawConfig
from witgeo.upb import estimate_epsilon, far_face_witness, tiles, uniform_mixture
from witgeo.witness import evaluate


def _ghz(n):
    g = ghz_decomposition(n)
    return g.witness, g.decomposition


def _far_face():
    upb = tiles()
    mu0 = uniform_mixture(upb)
    eps, _ = estimate_epsilon(upb, mu0, SeeSawConfig(restarts=24, seed=3))
    return far_face_witness(upb, mu0, eps), far_face_decomposition(upb, eps)


TARGETS = {
    "bell2": lambda: (standard_witness(2), qudit_decomposition(2)),
    **{
        f"qudit{d}": lambda d=d: (standard_witness(d), qudit_decomposition(d))
        for d in (3, 5, 7, 11, 13)
    },
    **{f"ghz{n}": lambda n=n: _ghz(n) for n in range(2, 9)},
    "threeq_0_0.125": lambda: (three_qubit_witness(0.0, 0.125), three_qubit_decomposition(0.125)),
    "threeq_0.02_0.05": lambda: (three_qubit_witness(0.02, 0.05), three_qubit_decomposition(0.05)),
    "tiles": _far_face,
}


def _states(w):
    return {"rho0": w.rho0, "tau0": w.tau0, "d0": completely_random(w.dims)}


class _FixedSetting:
    """A setting stand-in whose outcome distribution is given, not computed."""

    def __init__(self, probs):
        self.probs = probs
        self.weights = np.arange(len(probs), dtype=float)

    def joint_probabilities(self, rho):
        return self.probs


def _drawn_counts(probs, shots, seed):
    """The counts shot_estimate draws for one setting with outcome distribution probs."""
    drawn = []
    make = np.random.default_rng

    class Recording:
        def __init__(self, key):
            self.rng = make(key)

        def multinomial(self, n, pvals):
            drawn.append(self.rng.multinomial(n, pvals))
            return drawn[-1]

    dec = WitnessDecomposition(0.0, ((1.0, _FixedSetting(probs)),))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", Recording)
        est = shot_estimate(dec, None, shots, seed)
    (counts,) = drawn
    return counts, est


TINY = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 2.0**-60, 1e-17]
PROB = st.one_of(st.just(0.0), st.sampled_from(TINY), st.floats(0.0, 1.0))


@st.composite
def probability_vectors(draw):
    """Runs of equal probabilities, with zero runs, subnormals and an optional exactly-zero last."""
    runs = draw(st.lists(st.tuples(PROB, st.integers(1, 40)), min_size=1, max_size=12))
    raw = np.repeat([p for p, _ in runs], [k for _, k in runs])
    if not raw.sum() > 0:
        raw[draw(st.integers(0, len(raw) - 1))] = 1.0
    probs = raw / raw.sum()
    # joint_probabilities can round a zero probability to a tiny negative one
    probs[probs == 0] = draw(st.sampled_from([0.0, -1e-17, -5e-324]))
    if draw(st.booleans()):
        probs = np.append(probs, 0.0)
    return probs


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    probs=st.one_of(st.just(np.array([1.0])), probability_vectors()),
    shots=st.one_of(st.sampled_from([1, 2, 7, 10**15, 2**63 - 1]), st.integers(1, 10**6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_are_a_sample_of_the_shots(probs, shots, seed):
    counts, est = _drawn_counts(probs, shots, seed)
    assert counts.shape == probs.shape
    assert (counts >= 0).all()
    assert int(counts.sum()) == shots
    assert not counts[:-1][probs[:-1] <= 0].any()
    assert est.estimate == float(counts @ np.arange(len(probs), dtype=float)) / shots


@pytest.mark.parametrize("target", TARGETS)
def test_within_five_standard_errors(target):
    w, dec = TARGETS[target]()
    for name, state in _states(w).items():
        exact = evaluate(w, state)
        for shots in (1000, 100_000):
            est = shot_estimate(dec, state, shots, seed=11)
            assert est == shot_estimate(dec, state, shots, seed=11)
            assert abs(est.expectation - exact) <= 1e-12, (name, est, exact)
            if est.stderr == 0.0:
                assert abs(est.estimate - exact) <= 1e-12, (name, shots, est, exact)
            else:
                z = (est.estimate - exact) / est.stderr
                assert abs(z) <= 5, (name, shots, est, exact)


def _means_agree(a, b, tol=1e-12):
    """Equal sample means within four standard errors, or to tol where neither sample varies."""
    a, b = np.asarray(a), np.asarray(b)
    se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    return abs(a.mean() - b.mean()) <= max(4 * se, tol)


@pytest.mark.parametrize("target", TARGETS)
def test_equals_per_shot_search(target):
    # equal in law: the two estimators draw on disjoint seeds
    w, dec = TARGETS[target]()
    shots, seeds = 1000, range(40)
    for name, state in _states(w).items():
        lib = [shot_estimate(dec, state, shots, seed=s) for s in seeds]
        ref = [shot_reference.shot_estimate(dec, state, shots, seed=1000 + s) for s in seeds]
        assert _means_agree([e.estimate for e in lib], [e.estimate for e in ref]), name
        assert _means_agree([e.stderr**2 for e in lib], [e.stderr**2 for e in ref]), name


def test_quadrillion_shots_per_setting():
    # counts are drawn at once, so memory does not grow with the shot count
    w, dec = TARGETS["qudit3"]()
    d0 = completely_random(w.dims)
    est = shot_estimate(dec, d0, 10**15, seed=5)
    assert est.stderr > 0
    assert abs(est.estimate - evaluate(w, d0)) <= 5 * est.stderr
