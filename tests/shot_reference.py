"""The shot estimator with one binary search per shot, as the library ran it before.

``measurements.shot_estimate`` draws each setting's outcome counts at
once from their multinomial law.  This loop draws every shot on its own
by binary search of the CDF, with the same rng substreams and
statistics, so it draws from the same law through a different route;
``tests/test_shot_sampler.py`` requires the two estimators to agree in
law.
"""

import numpy as np

from witgeo.measurements import ShotEstimate


def shot_estimate(dec, rho, shots_per_setting: int, seed: int) -> ShotEstimate:
    """Plug-in estimate of Tr(W rho) from simulated local measurements.

    For each setting, joint outcomes are drawn from the exact outcome
    distribution by inverse CDF; the per-setting statistic is the sample
    mean of the outcome weights.  Substreams are derived from (seed,
    setting index), so results are bit-reproducible and independent of
    evaluation order.  The estimator is unbiased with standard error
    assembled from per-setting sample variances.
    """
    if shots_per_setting < 1:
        raise ValueError("need at least one shot per setting")
    estimate = expectation = dec.identity_coeff
    variance = 0.0
    for idx, (sw, setting) in enumerate(dec.settings):
        probs = setting.joint_probabilities(rho).ravel()
        total = probs.sum()
        if abs(total - 1.0) > 1e-8:
            raise ValueError(
                f"setting {idx} outcome probabilities sum to {total}, not 1"
            )
        expectation += sw * float(probs @ setting.weights.ravel())
        probs = np.clip(probs, 0.0, None)
        cdf = np.cumsum(probs / probs.sum())
        cdf[-1] = 1.0  # guard the top bin against cumsum rounding
        rng = np.random.default_rng([seed, idx])
        draws = np.searchsorted(cdf, rng.random(shots_per_setting), side="right")
        values = setting.weights.ravel()[draws]
        mean = float(values.mean())
        # a constant sample has variance exactly 0; var() would leave rounding
        var = float(values.var(ddof=1)) if values.min() != values.max() else 0.0
        estimate += sw * mean
        variance += sw * sw * var / shots_per_setting
    return ShotEstimate(estimate, float(np.sqrt(variance)), shots_per_setting, expectation)
