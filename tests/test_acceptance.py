"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
tolerances and sizes are pinned here, not configurable. Criteria backed by
a suite check read its seed-42 report and pin the sizes and tolerance the
check reports.
"""

import math
import time

import numpy as np

import disclab as dl
from disclab.harness import ExperimentConfig, run_theorem_experiment
from disclab.rng import child_seed

SEED = 42


def report(num, name, passed, extra=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if passed else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert passed, line


def suite_check(rep, name):
    """The named check of a suite report and its detail."""
    check = next(c for c in rep.checks if c.name == name)
    return check, check.detail or {}


def test_criterion_01_inversion_oracle_equivalence(seed42_suite):
    # The inversion suite's oracle check: 50 random instances at lambda = 0,
    # 10^6 samples each, against the exact law.
    rep = seed42_suite("inversion")
    oracle, detail = suite_check(rep, "oracle_equivalence")
    report(1, "inversion oracle equivalence (50 instances, 1e6 samples)",
           oracle.passed and detail.get("instances") == 50
           and detail.get("samples") == 10 ** 6
           and detail.get("tolerance") == "max(3 stderr, 1e-3)"
           and rep.runtime_s <= 300.0,
           f"worst margin {oracle.margin:.2e}, suite {rep.runtime_s:.0f}s")


def test_criterion_02_dhat_product_vs_bruteforce(seed42_suite):
    # The fourier suite's oracle check: 100 random (instance, theta) pairs
    # with n <= 16, the column product against the 2^n enumeration.
    check, detail = suite_check(seed42_suite("fourier"), "product_vs_bruteforce")
    report(2, "transform product vs 2^n enumeration (100 pairs)",
           check.passed and check.margin >= 0.0
           and detail.get("pairs") == 100 and detail.get("tolerance") == 1e-10,
           f"worst gap {1e-10 - check.margin:.2e}")


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


def test_criterion_08_cancellation(seed42_suite):
    # The inversion suite's check: exact at t = 0, and the real and
    # imaginary means within 3 stderr of 0 at five nonzero t, 10^5 samples each.
    check, detail = suite_check(seed42_suite("inversion"), "cancellation")
    report(8, "cancellation identity (t=0 exact, five nonzero t within 3 stderr)",
           check.passed and check.margin >= 0.0
           and detail.get("nonzero_vectors") == 5 and detail.get("samples") == 10 ** 5,
           f"worst margin {check.margin:.2e}")


def test_criterion_09_rho_decay(seed42_suite):
    # The smoothing suite's rho checks, one per delta; each margin is
    # 1e-9 minus the reported gap |rho - 2^-delta|.
    rep = seed42_suite("smoothing")
    checks = [c for c in rep.checks if c.name.startswith("rho_delta")]
    ok = [c.name for c in checks] == [f"rho_delta{d}" for d in range(1, 13)]
    for delta, check in enumerate(checks, start=1):
        val = check.detail["rho"]
        ok &= check.passed and check.margin == 1e-9 - abs(val - 2.0 ** (-delta))
        ok &= check.margin >= 0.0 and val <= math.exp(-0.69 * delta)
    worst = min(c.margin for c in checks)
    report(9, "rho equals 2^-delta within 1e-9 for delta=1..12, rate <= e^-0.69 delta",
           ok, f"worst gap margin {worst:.2e}")


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


def test_criterion_11_parity_variant_consistency(seed42_suite):
    # The inversion suite's check: the even-parity shortcut against the
    # exact law under the parity smoother, all-even, all-odd and zero
    # matrices first.
    check, detail = suite_check(seed42_suite("inversion"), "even_parity_shortcut")
    report(11, "even-parity shortcut agrees with exact law (20 instances)",
           check.passed and check.margin >= 0.0
           and detail.get("instances") == 20 and detail.get("samples") == 250000
           and detail.get("tolerance") == "max(3 stderr, 1e-3)",
           f"worst margin {check.margin:.2e}")
