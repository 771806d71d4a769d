"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Every
tolerance is fixed here, not configurable.  Criterion 6 asserts the
proven product-state geometry of the three-qubit plane: the trigonometric
bound is 2*sqrt(2), not the published 2, so the plane built through the
claimed nearest state cuts into the product states with floor
(t/4)(1 - sqrt(2)), and that state is not the closest separable one (see
the README section "Three-qubit family: the published bound is 2*sqrt(2)").
"""

import numpy as np
import pytest

from witgeo.linalg import (
    DensityState,
    SystemShape,
    hs_inner,
    partial_transpose,
    tensor,
)
from witgeo.measurements import (
    ghz_decomposition,
    qudit_decomposition,
    shot_estimate,
    standard_witness,
    three_qubit_witness,
    two_qubit_decomposition,
)
from witgeo.oracle import SeeSawConfig, min_over_products, ppt_report
from witgeo.spin import projection_family
from witgeo.states import (
    closest_separable,
    completely_random,
    ghz,
    ghz_corner_mix,
    ghz_dephased,
    ghz_segment_weight,
    max_entangled,
    schmidt_state,
    three_qubit_family,
    three_qubit_family_mt,
    three_qubit_separable_candidates,
)
from witgeo.upb import bound_entangled, estimate_epsilon, far_face_witness, tiles, uniform_mixture
from witgeo.witness import (
    DETECTION_TOL,
    evaluate,
    qudit_detection_predicate,
    two_qubit_noise_threshold,
)

from paper_states import noise_ball
from product_bound import bell_bound_three_qubit, product_bound_objective, product_from_angles
from product_projection import product_matrix
from random_states import random_density
from spin_reference import spin_matrix, spin_relations

W2Q = np.zeros((4, 4))
W2Q[1, 1] = W2Q[2, 2] = 1 / 3
W2Q[0, 3] = W2Q[3, 0] = -1 / 3


class Criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.checks = []

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def conclude(self):
        failed = [name for name, ok, _ in self.checks if not ok]
        status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
        print(f"criterion {self.number:02d} [{self.label}]: {status}")
        for name, ok, detail in self.checks:
            if not ok:
                print(f"    failed sub-check {name}: {detail}")
        assert not failed, f"criterion {self.number} failed: {failed}"


def test_criterion_01_two_qubit_closed_forms():
    crit = Criterion(1, "two-qubit closed forms")
    w = standard_witness(2)
    crit.check("c0", abs(w.c0 - 1 / 6) <= 1e-12, f"c0 = {w.c0}")
    dev = np.abs(w.matrix - W2Q).max()
    crit.check("witness matrix", dev <= 1e-12, f"max deviation {dev:.3e}")
    val = evaluate(w, w.rho0)
    crit.check("detection value", abs(val + 1 / 3) <= 1e-12, f"Tr(W rho0) = {val}")
    crit.conclude()


def test_criterion_02_two_qubit_decomposition():
    crit = Criterion(2, "three-setting decomposition")
    dec = two_qubit_decomposition()
    crit.check("setting count", len(dec.settings) == 3, f"{len(dec.settings)} settings")
    tau = sum(s.weighted_sum() for _, s in dec.settings) / 3
    dev = np.abs(tau - closest_separable(2).mat).max()
    crit.check("reassembled separable state", dev <= 1e-12, f"max deviation {dev:.3e}")
    w = standard_witness(2)
    tau0 = closest_separable(2)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        rho = DensityState(random_density(4, rng), SystemShape((2, 2)))
        lhs = evaluate(w, rho)
        rhs = 2 / 3 - 2 * hs_inner(tau0.mat, rho.mat).real
        worst = max(worst, abs(lhs - rhs))
    crit.check("identity on random states", worst <= 1e-10, f"worst {worst:.3e}")
    crit.conclude()


def test_criterion_03_qudit_case():
    crit = Criterion(3, "qudit closed forms and settings")
    for d in (3, 5, 7):
        w = standard_witness(d)
        want_c0 = (d - 1) / (d * (d + 1))
        crit.check(f"c0 d={d}", abs(w.c0 - want_c0) <= 1e-12, f"c0 = {w.c0}")

        # independent spin-basis double sum for the closest separable state
        n = d * d
        via_spin = np.zeros((n, n), dtype=complex)
        for k in range(d):
            via_spin += tensor(spin_matrix(d, k, 0), spin_matrix(d, (d - k) % d, 0))
        for j in range(d):
            for k in range(d):
                via_spin += tensor(
                    spin_matrix(d, (k * j) % d, k), spin_matrix(d, (k * d - k * j) % d, k)
                )
        via_spin /= d * d * (d + 1)
        dev = np.abs(via_spin - closest_separable(d).mat).max()
        crit.check(f"spin expansion d={d}", dev <= 1e-10, f"max deviation {dev:.3e}")

        dec = qudit_decomposition(d)
        crit.check(
            f"setting count d={d}", len(dec.settings) == d + 1, f"{len(dec.settings)}"
        )
        resid = dec.residual(w)
        crit.check(f"reconstruction d={d}", resid <= 1e-10, f"residual {resid:.3e}")

        # per-setting equality against the corresponding single sums
        worst = 0.0
        for j, (_, setting) in enumerate(dec.settings[1:]):
            want = sum(
                tensor(
                    spin_matrix(d, (k * j) % d, k), spin_matrix(d, (k * d - k * j) % d, k)
                )
                for k in range(d)
            ) / (d * d)
            worst = max(worst, np.abs(setting.weighted_sum() - want).max())
        first = sum(
            tensor(spin_matrix(d, k, 0), spin_matrix(d, (d - k) % d, 0)) for k in range(d)
        ) / (d * d)
        worst = max(worst, np.abs(dec.settings[0][1].weighted_sum() - first).max())
        crit.check(f"per-setting sums d={d}", worst <= 1e-10, f"worst {worst:.3e}")
    crit.conclude()


def test_criterion_04_projection_families_and_relations():
    crit = Criterion(4, "projection families and spin relations")
    for d in (3, 5, 7):
        worst = 0.0
        for j in range(d):
            for k in range(d):
                if (j, k) == (0, 0):
                    continue
                fam = projection_family(d, j, k)
                total = np.zeros((d, d), dtype=complex)
                for r, p in enumerate(fam):
                    worst = max(worst, np.abs(p - p.conj().T).max())
                    worst = max(worst, np.abs(p @ p - p).max())
                    worst = max(worst, abs(np.trace(p) - 1))
                    for s in range(r):
                        worst = max(worst, np.abs(p @ fam[s]).max())
                    total += p
                worst = max(worst, np.abs(total - np.eye(d)).max())
        crit.check(f"projection family d={d}", worst <= 1e-10, f"worst {worst:.3e}")
    for d in (2, 3, 5, 7):
        worst = max(spin_relations(d).values())
        crit.check(f"spin relations d={d}", worst <= 1e-10, f"max deviation {worst:.3e}")
    crit.conclude()


def test_criterion_05_noise_thresholds():
    crit = Criterion(5, "noise thresholds and guarantee")
    s = 1 / np.sqrt(2)
    thr = two_qubit_noise_threshold(s, s, 0.0)
    # exact up to the one-ulp rounding of (1/sqrt 2)^2
    crit.check(
        "symmetric noiseless threshold", abs(thr - 1 / 3) <= 1e-15, f"threshold = {thr}"
    )

    w = standard_witness(2)
    total = detected = 0
    for a in (0.35, 0.5, s, 0.85):
        b = np.sqrt(1 - a * a)
        target = schmidt_state([a, b])
        for delta in (0.01, 0.05, 0.12):
            p = two_qubit_noise_threshold(a, b, delta) + 0.02
            for seed in range(50):
                sigma = noise_ball((2, 2), delta, seed)
                rho = p * target.mat + (1 - p) * sigma.mat
                total += 1
                detected += evaluate(w, rho) < -DETECTION_TOL
    crit.check(
        "detection guarantee", detected == total, f"{detected}/{total} detected"
    )

    rng = np.random.default_rng(5150)
    agree = True
    for _ in range(100):
        a = rng.uniform(0.05, 0.95)
        amps = np.array([a, np.sqrt(1 - a * a)])
        p = rng.uniform(0.01, 0.99)
        delta = rng.uniform(0.0, 0.5)
        lhs = qudit_detection_predicate(2, amps, p, delta)
        rhs = p > two_qubit_noise_threshold(amps[0], amps[1], delta)
        agree = agree and (lhs == rhs)
    crit.check("qubit reduction of the qudit rule", agree, "boolean mismatch")
    crit.conclude()


def test_criterion_06_three_qubit_family():
    crit = Criterion(6, "three-qubit bound entangled family")
    worst = np.inf
    for c in np.linspace(-0.125, 0.125, 9):
        for d in np.linspace(-0.125, 0.125, 9):
            worst = min(worst, ppt_report(three_qubit_family(c, d)).minimum)
    crit.check("ppt grid", worst >= -1e-10, f"grid minimum {worst:.3e}")

    for t in (1 / 32, 1 / 16, 1 / 8):
        w = three_qubit_witness(0.0, t)
        crit.check(f"c0 at t={t}", abs(w.c0 - t / 4) <= 1e-12, f"c0 = {w.c0}")

    # the m-sweep needs |m| <= 1/8 - t for the family member to exist
    t = 1 / 16
    w = three_qubit_witness(0.0, t)
    worst_dev = 0.0
    for m in np.linspace(-0.0625, 0.0625, 5):
        val = evaluate(w, three_qubit_family_mt(m, t))
        worst_dev = max(worst_dev, abs(val + 2 * t * t))
    crit.check("m-independent detection", worst_dev <= 1e-10, f"worst {worst_dev:.3e}")

    t = 1 / 8
    w = three_qubit_witness(0.0, t)
    wn = w.matrix / (t / 4)
    rng = np.random.default_rng(606)
    worst_id = 0.0
    for _ in range(100):
        thetas = rng.uniform(0, np.pi / 2, size=3)
        phis = rng.uniform(-np.pi, np.pi, size=3)
        pi_mat = product_matrix(product_from_angles(thetas, phis))
        lhs = 2 * np.trace(wn @ pi_mat).real
        rhs = 2 - product_bound_objective(thetas, phis)
        worst_id = max(worst_id, abs(lhs - rhs))
    crit.check("product identity", worst_id <= 1e-10, f"worst {worst_id:.3e}")

    # Trigonometric maximum.  C = 2[cos p1 cos(p2-p3) - sin p1 sin(p2+p3)]
    # <= 2 sqrt(cos^2(p2-p3) + sin^2(p2+p3)) <= 2 sqrt(2) by Cauchy-Schwarz,
    # and |sin 2 theta_k| <= 1; equality at theta_k = pi/4,
    # phi = (pi/4, -pi/4, -pi/4).  The value 2 only bounds phi_k in {0, pi}.
    root8 = 2 * np.sqrt(2)
    worst_c = 0.0
    for _ in range(100):
        p1, p2, p3 = rng.uniform(-np.pi, np.pi, size=3)
        closed = 2 * (np.cos(p1) * np.cos(p2 - p3) - np.sin(p1) * np.sin(p2 + p3))
        objective = product_bound_objective([np.pi / 4] * 3, (p1, p2, p3))
        worst_c = max(worst_c, abs(objective - closed))
    crit.check("trig closed form", worst_c <= 1e-12, f"worst {worst_c:.3e}")
    peak = product_bound_objective([np.pi / 4] * 3, [np.pi / 4, -np.pi / 4, -np.pi / 4])
    crit.check(
        "trig maximum attained", abs(peak - root8) <= 1e-12, f"objective {peak:.15f}"
    )
    bound = bell_bound_three_qubit(restarts=120, seed=606)
    crit.check(
        "trig bound equals 2*sqrt(2)",
        abs(bound - root8) <= 1e-6 and bound <= root8 + 1e-9,
        f"maximum found {bound:.12f}, analytic {root8:.12f}",
    )

    # Product-state floor: with c0 = t/4 and the product identity above,
    # the maximum 2*sqrt(2) forces min Tr(W pi) = (t/4)(1 - sqrt(2)) < 0.
    floor = (t / 4) * (1 - np.sqrt(2))
    res = min_over_products(w.matrix, (2, 2, 2), SeeSawConfig(restarts=32, seed=606))
    crit.check(
        "product-state floor",
        abs(res.value - floor) <= 1e-9 and res.consensus >= 8,
        f"min {res.value:.3e} vs (t/4)(1-sqrt(2)) = {floor:.3e}, "
        f"consensus {res.consensus}/32",
    )

    # Tr[(rho - tau)(pi* - tau)] = -Tr(W pi*) > 0, so mixing the attaining
    # product into the claimed nearest state moves it closer to rho.
    rho = three_qubit_family_mt(0.0, t).mat
    tau = three_qubit_separable_candidates(0.0, t).nearest.mat
    pi_star = product_matrix(res.argmin)
    eps = hs_inner(rho - tau, pi_star - tau).real / np.linalg.norm(pi_star - tau) ** 2
    before = np.linalg.norm(rho - tau)
    after = np.linalg.norm(rho - ((1 - eps) * tau + eps * pi_star))
    crit.check(
        "claimed nearest state is not closest",
        eps > 0 and after < before,
        f"distance {before:.6f} -> {after:.6f} at eps = {eps:.4f}",
    )
    crit.conclude()


def test_criterion_07_ghz_family():
    crit = Criterion(7, "GHZ family")
    for n in range(2, 7):
        s0 = ghz_segment_weight(n)
        crit.check(
            f"segment weight n={n}", s0 == 1 / (2 ** (n - 1) + 1), f"s0 = {s0}"
        )
        via_segment = (1 - s0) * completely_random((2,) * n).mat + s0 * ghz(n).mat
        via_parts = s0 * ghz_dephased(n).mat + (1 - s0) * ghz_corner_mix(n).mat
        dev = np.abs(via_segment - via_parts).max()
        crit.check(f"segment forms n={n}", dev <= 1e-12, f"max deviation {dev:.3e}")

    g2 = ghz_decomposition(2)
    ok = (
        abs(g2.a - 2 / 3) <= 1e-10
        and abs(g2.b - 2 / 3) <= 1e-10
        and abs(g2.c - 4 / 3) <= 1e-10
    )
    crit.check("two-party coefficients", ok, f"(a,b,c) = {(g2.a, g2.b, g2.c)}")
    dev = np.abs(g2.witness.matrix - W2Q).max()
    crit.check("two-party witness matrix", dev <= 1e-10, f"max deviation {dev:.3e}")

    for n in (3, 4):
        g = ghz_decomposition(n)
        crit.check(
            f"positive coefficients n={n}", min(g.a, g.b, g.c) > 0, f"{(g.a, g.b, g.c)}"
        )
        val = evaluate(g.witness, ghz(n))
        crit.check(f"detection n={n}", val < -1e-6, f"Tr(W rho0) = {val}")
        res = min_over_products(
            g.witness.matrix, (2,) * n, SeeSawConfig(restarts=32, seed=707)
        )
        crit.check(f"product floor n={n}", res.value >= -1e-8, f"min {res.value:.3e}")
    crit.conclude()


def test_criterion_08_far_face():
    crit = Criterion(8, "far face of the tiles family")
    upb = tiles()
    n, m = 9, 5
    dev = np.abs(upb.gram() - np.eye(5)).max()
    crit.check("gram identity", dev <= 1e-12, f"max deviation {dev:.3e}")

    rho0 = bound_entangled(upb)
    eigs = np.linalg.eigvalsh(rho0.mat)
    crit.check(
        "complement spectrum",
        eigs.min() >= -1e-12 and int(np.sum(eigs > 1e-10)) == 4,
        f"eigs {np.round(eigs, 6)}",
    )
    worst_pt = min(
        np.linalg.eigvalsh(partial_transpose(rho0.mat, [p], rho0.dims)).min() for p in (0, 1)
    )
    crit.check("ppt both cuts", worst_pt >= -1e-10, f"min {worst_pt:.3e}")
    mu0 = uniform_mixture(upb)
    overlap = abs(hs_inner(mu0.mat, rho0.mat))
    crit.check("orthogonality to mixture", overlap <= 1e-10, f"overlap {overlap:.3e}")

    est = estimate_epsilon(upb, restarts=64, seed=808)
    crit.check(
        "positive overlap floor",
        est.epsilon > 1e-3 and est.consensus >= 8,
        f"eps {est.epsilon:.6f}, consensus {est.consensus}/64",
    )
    drift = max(
        abs(estimate_epsilon(upb, restarts=64, seed=s).epsilon - est.epsilon)
        for s in (809, 810)
    )
    crit.check("seed stability", drift <= 1e-8, f"drift {drift:.3e}")

    eps = est.epsilon
    w = far_face_witness(upb, eps)
    val = evaluate(w, rho0)
    want = -eps * eps * n / (m * (n - m))
    crit.check("detection value", abs(val - want) <= 1e-9, f"{val} vs {want}")

    s0 = 1 - eps * n / m
    tau_mat = (1 - s0) * np.eye(n) / n + s0 * rho0.mat
    c0 = hs_inner(tau_mat, rho0.mat - tau_mat).real
    dev = np.abs(w.matrix - (tau_mat + c0 * np.eye(n) - rho0.mat)).max()
    crit.check("construction coincidence", dev <= 1e-10, f"max deviation {dev:.3e}")

    rng = np.random.default_rng(811)
    worst = np.inf
    for _ in range(10000):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        f = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        worst = min(worst, (f.conj() @ w.matrix @ f).real)
    crit.check("positivity on sampled products", worst >= -1e-8, f"min {worst:.3e}")
    crit.conclude()


def test_criterion_09_shot_estimator():
    crit = Criterion(9, "finite-shot estimator")
    dec = two_qubit_decomposition()
    rho0 = max_entangled(2)
    est = shot_estimate(dec, rho0, 100000, seed=909)
    if est.stderr == 0.0:
        # the target state gives deterministic outcomes in all settings
        ok = abs(est.estimate + 1 / 3) <= 1e-12
    else:
        ok = abs(est.estimate + 1 / 3) <= 5 * est.stderr
    crit.check("headline estimate", ok, f"{est.estimate} +- {est.stderr}")

    # scaling measured on the maximally mixed state, where the outcome
    # weights are genuinely random (on the target state the estimator is
    # exact and the error is identically zero at every shot count)
    d0 = completely_random((2, 2))
    ladder = [1000, 10000, 100000]
    errs = [shot_estimate(dec, d0, shots, seed=910).stderr for shots in ladder]
    slope = float(np.polyfit(np.log10(ladder), np.log10(errs), 1)[0])
    crit.check("stderr scaling", abs(slope + 0.5) <= 0.1, f"slope {slope:.4f}")

    a = shot_estimate(dec, d0, 5000, seed=911)
    b = shot_estimate(dec, d0, 5000, seed=911)
    crit.check("bit-exact reproducibility", a == b, f"{a} vs {b}")
    crit.conclude()


def test_criterion_10_global_identity():
    crit = Criterion(10, "induced inner product identity, all pairs")
    pairs = [("bell2", standard_witness(2))]
    for d in (3, 5, 7):
        pairs.append((f"qudit{d}", standard_witness(d)))
    for m, t in ((0.0, 1 / 8), (0.05, 1 / 16), (-0.05, 1 / 32)):
        pairs.append((f"threeq(m={m},t={t})", three_qubit_witness(m, t)))
    for n in range(2, 7):
        pairs.append((f"ghz{n}", ghz_decomposition(n).witness))
    upb = tiles()
    eps = estimate_epsilon(upb, restarts=32, seed=1010).epsilon
    pairs.append(("upb-tiles", far_face_witness(upb, eps)))

    rng = np.random.default_rng(1011)
    for name, w in pairs:
        diff = w.rho0.mat - w.tau0.mat
        worst = 0.0
        for _ in range(100):
            rho = DensityState(random_density(w.n, rng), w.rho0.shape)
            total = evaluate(w, rho) + hs_inner(diff, rho.mat - w.tau0.mat).real
            worst = max(worst, abs(total))
        crit.check(name, worst <= 1e-10, f"worst {worst:.3e}")
    crit.conclude()
