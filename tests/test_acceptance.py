"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
tolerances and sizes are pinned here, not configurable.
"""

import math
import time

import numpy as np

import disclab as dl
from disclab import fourier as fr
from disclab.harness import ExperimentConfig, run_theorem_experiment
from disclab.rng import child_seed, stream
from disclab.smoothing import ParitySmoother

SEED = 42
S1 = dl.build_pmf(1)


def report(num, name, passed, extra=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if passed else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert passed, line


def test_criterion_01_inversion_oracle_equivalence(seed42_suite):
    # The inversion suite's oracle check: 50 random instances at lambda = 0,
    # 10^6 samples each, against the exact law.
    rep = seed42_suite("inversion")
    oracle = next(c for c in rep.checks if c.name == "oracle_equivalence")
    detail = oracle.detail or {}
    report(1, "inversion oracle equivalence (50 instances, 1e6 samples)",
           oracle.passed and detail.get("instances") == 50
           and detail.get("samples") == 10 ** 6
           and detail.get("tolerance") == "max(3 stderr, 1e-3)"
           and rep.runtime_s <= 300.0,
           f"worst margin {oracle.margin:.2e}, suite {rep.runtime_s:.0f}s")


def test_criterion_02_dhat_product_vs_bruteforce():
    t0 = time.time()
    rng = stream(SEED, 2)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 17))
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        th = rng.uniform(-0.5, 0.5, size=m)
        worst = max(worst, abs(dl.dhat(A, th) - dl.dhat_bruteforce(A, th)))
    elapsed = time.time() - t0
    report(2, "transform product vs 2^n enumeration (100 pairs)",
           worst <= 1e-10 and elapsed <= 60.0,
           f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_smoothing_bound_suite(seed42_suite):
    rep = seed42_suite("smoothing")
    bound_checks = [c for c in rep.checks
                    if "bound" in c.name or c.name.startswith("shift_ratio")]
    failures = [c.name for c in rep.checks if not c.passed]
    report(3, "smoothing decay bounds, 1-d grids + multi-d (zero violations)",
           not failures and len(bound_checks) >= 24 * 3,
           f"{rep.checks_run} checks, failures {failures}")


def test_criterion_04_spike_dominance(seed42_suite):
    rep = seed42_suite("spike")
    failures = [c.name for c in rep.checks if not c.passed]
    per_m = [c for c in rep.checks if c.name.startswith("smoother_spike_dominance_m")]
    points = min((c.detail or {}).get("points", 0) for c in per_m)
    xh = next(c for c in rep.checks if c.name == "xhat_spike_dominance")
    report(4, "central spike dominance (m=1..8 exact 3^m, 100 instances at m=6)",
           not failures and len(per_m) == 8 and points >= 1000
           and (xh.detail or {}).get("instances") == 100,
           f"min margin {rep.worst_margin():.2e}, failures {failures}")


def test_criterion_05_one_factor_decay(seed42_suite):
    lemma_checks = [c for c in seed42_suite("decay").checks if c.name.startswith("one_factor")]
    failures = [c.name for c in lemma_checks if not c.passed]
    cases = sum((c.detail or {}).get("cases", 0) for c in lemma_checks)
    report(5, "one-column decay bounds (exact 2^m, 1000 cases per bound, c=1e-3)",
           not failures and len(lemma_checks) == 3 and cases == 3000,
           f"failures {failures}")


def test_criterion_06_far_region_decay(seed42_suite):
    far = next(c for c in seed42_suite("decay").checks if c.name == "far_region_bound")
    frac = (far.detail or {})["fraction_within_bound"]
    report(6, "far-region integral within exp(-p delta^2 n / 24), decaying in n",
           far.passed and frac >= 0.9,
           f"fraction {frac:.2f}, log means {far.detail['mean_log_integrals_by_n']}")


def test_criterion_07_gaussian_comparator(seed42_suite):
    rep = seed42_suite("gaussian")
    ball = [c for c in rep.checks if c.name.startswith("ball_integral")]
    failures = [c.name for c in ball if not c.passed]
    report(7, "Gaussian ball integral >= density floor (m in {2,3}, r in {1,4})",
           not failures and len(ball) == 4,
           f"worst margin {min(c.margin for c in ball):.2e}")


def test_criterion_08_cancellation():
    re0, im0 = dl.cancellation_check([0, 0], 10 ** 5, child_seed(SEED, 8, 0))
    exact_ok = re0.value == 1.0 and re0.stderr == 0.0 and im0.value == 0.0
    worst = math.inf
    for idx, t in enumerate(([1], [2], [-3], [1, -1], [3, -2])):
        re, im = dl.cancellation_check(t, 10 ** 5, child_seed(SEED, 8, idx + 1))
        worst = min(worst, 3 * re.stderr - abs(re.value), 3 * im.stderr - abs(im.value))
    report(8, "cancellation identity (t=0 exact, five nonzero t within 3 stderr)",
           exact_ok and worst >= 0.0, f"worst margin {worst:.2e}")


def test_criterion_09_rho_decay():
    worst = math.inf
    rate_ok = True
    for delta in range(1, 13):
        val = dl.rho(delta)
        worst = min(worst, 1e-9 - abs(val - 2.0 ** (-delta)))
        rate_ok &= val <= math.exp(-0.69 * delta)
    report(9, "rho equals 2^-delta within 1e-9 for delta=1..12, rate <= e^-0.69 delta",
           worst >= 0.0 and rate_ok, f"worst gap margin {worst:.2e}")


def test_criterion_10_theorem_desk_scale():
    t0 = time.time()
    cfg = ExperimentConfig(m_list=[3], C=4.0, p=0.5, trials=100,
                           solver="random", budget=10 ** 6, target=1, seed=SEED)
    rep = run_theorem_experiment(cfg)
    successes = rep.per_m[3]["successes"]
    elapsed = time.time() - t0
    assert rep.per_m[3]["n"] == 40

    # local-search benchmark at m=8: success rates reported, monotone in n
    rows = []
    rates = []
    trials = 6
    for n in (1000, 2000, 3000):
        found = 0
        flips = []
        for k in range(trials):
            A = dl.sample_bernoulli(8, n, 0.5, child_seed(SEED, 10, n, k))
            res = dl.local_search(A, 1, restarts=50, max_flips=10 ** 6,
                                  seed=child_seed(SEED, 11, n, k))
            found += res.found
            flips.append(res.flips)
        rates.append(found / trials)
        rows.append((n, found, trials, float(np.mean(flips))))
    print("  local-search benchmark (m=8, 50 restarts, 1e6 flip cap):")
    print("    n     success  mean_flips")
    for n, found, tr, mean_flips in rows:
        print(f"    {n:<6} {found}/{tr}      {mean_flips:.0f}")
    se = math.sqrt(0.25 / trials)
    monotone = all(rates[i + 1] >= rates[i] - 2 * se for i in range(len(rates) - 1))

    report(10, "random search finds disc<=1 at m=3 n=40; local-search benchmark monotone",
           successes >= 95 and elapsed <= 600.0 and monotone,
           f"{successes}/100 successes in {elapsed:.0f}s, m=8 rates {rates}")


def test_criterion_11_parity_variant_consistency():
    rng = stream(SEED, 11)
    specials = [dl.IncidenceMatrix(np.ones((2, 4), dtype=int)),
                dl.IncidenceMatrix(np.ones((2, 3), dtype=int))]
    worst = math.inf
    for k in range(20):
        if k < len(specials):
            A = specials[k]
        else:
            A = dl.sample_bernoulli(int(rng.integers(1, 4)), int(rng.integers(2, 11)),
                                    0.5, int(rng.integers(2 ** 62)))
        exact = float(dl.prob_exact(A, ParitySmoother.from_matrix(A), [0] * A.m))
        est = dl.prob_even_variant(A, 250000, child_seed(SEED, 11, k))
        worst = min(worst, max(3 * est.stderr, 1e-3) - abs(exact - est.value))
    report(11, "even-parity shortcut agrees with exact law (20 instances)",
           worst >= 0.0, f"worst margin {worst:.2e}")
