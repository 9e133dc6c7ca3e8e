"""Named verification suites behind the `verify` command.

Each suite runs a battery of inequality and consistency checks at fixed
sizes and returns a SuiteReport whose failures always carry a
reproducible witness (seed plus parameters). Only the seed varies: the
acceptance gate reads the seed-42 reports, sizes included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import numpy as np

from . import fourier as fr
from . import inversion as iv
from . import smoothing as sm
from . import solvers as sv
from .rng import child_seed, stream
from .setsystem import (IncidenceMatrix, covariance_empirical, covariance_expected,
                        sample_bernoulli)

__all__ = ["CheckResult", "SuiteReport", "run_suite", "SUITE_NAMES"]


@dataclass
class CheckResult:
    """One named check: pass flag, worst margin, and a reproducer witness."""

    name: str
    passed: bool
    margin: Optional[float] = None
    witness: Optional[dict] = None
    detail: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.margin is not None:
            out["worst_margin"] = self.margin
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail is not None:
            out.update(self.detail)
        return out


@dataclass
class SuiteReport:
    suite: str
    seed: int
    runtime_s: float = 0.0
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]

    @property
    def checks_run(self) -> int:
        return len(self.checks)

    @property
    def ok(self) -> bool:
        return not self.failures

    def worst_margin(self) -> Optional[float]:
        margins = [c.margin for c in self.checks if c.margin is not None]
        return min(margins) if margins else None

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "runtime_s": round(self.runtime_s, 3),
            "checks_run": self.checks_run,
            "failures": len(self.failures),
            "worst_margin": self.worst_margin(),
            "checks": [c.to_dict() for c in self.checks],
        }


class _Worst:
    """The smallest value added so far, with the witness of its first occurrence."""

    def __init__(self):
        self.value = math.inf
        self.witness = None

    def add(self, value, witness=None) -> None:
        if value < self.value:
            self.value, self.witness = value, witness


def _floats(values) -> List[float]:
    return [float(v) for v in values]


def _grid_result(name: str, margins: np.ndarray, points, witness_extra: dict,
                 tol: float = sm.BOUND_TOL, detail: Optional[dict] = None) -> CheckResult:
    """Summarize a zero-violations-over-grid check from pointwise margins."""
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    worst_point = _floats(np.atleast_1d(points[worst]))
    witness = dict(witness_extra)
    witness["worst_point"] = worst_point
    det = {"checks": int(len(margins)), "worst_point": worst_point}
    if detail:
        det.update(detail)
    return CheckResult(name, passed=bool(margin >= -tol), margin=margin,
                       witness=witness, detail=det)


# ---------------------------------------------------------------------------
# smoothing suite
# ---------------------------------------------------------------------------


def suite_smoothing(seed: int = 42) -> SuiteReport:
    """Exact-law checks, transform-vs-law consistency, the three decay
    bounds on dense 1-d grids and sampled multi-d points, and rho."""
    rep = SuiteReport("smoothing", seed)
    deltas = range(1, 9)

    # Exact law: convolution table equals the shifted-binomial closed form,
    # total mass one, symmetry, variance delta/2.
    for delta in deltas:
        spec = sm.build_pmf(delta)
        ok = sum(spec.numerators) == 4 ** delta
        ok &= spec.numerators == tuple(
            math.comb(2 * delta, delta + k) for k in range(-delta, delta + 1)
        )
        ok &= spec.pmf_table() == {-k: v for k, v in spec.pmf_table().items()}
        ok &= spec.variance() == Fraction(delta, 2)
        rep.checks.append(CheckResult(
            f"pmf_exact_delta{delta}", passed=bool(ok),
            witness={"delta": delta}))

    # Transform matches the law: rhat_1d = sum_k pmf[k] cos(2 pi theta k).
    grid = np.linspace(-0.5, 0.5, 1001)
    for delta in deltas:
        spec = sm.build_pmf(delta)
        ks = np.arange(-delta, delta + 1)
        weights = np.array([float(spec.pmf(int(k))) for k in ks])
        direct = np.cos(2.0 * np.pi * grid[:, None] * ks[None, :]) @ weights
        closed = sm.rhat_1d(delta, grid)
        margins = 1e-12 - np.abs(direct - closed)
        rep.checks.append(_grid_result(
            f"transform_matches_pmf_delta{delta}", margins, grid,
            {"delta": delta}, tol=0.0,
            detail={"bound": "series", "domain": "[-1/2, 1/2]"}))

    # Periodicity and evenness of the 1-d transform.
    for delta in (1, 4):
        vals = sm.rhat_1d(delta, grid)
        per = np.abs(sm.rhat_1d(delta, grid + 1.0) - vals).max()
        even = np.abs(sm.rhat_1d(delta, -grid) - vals).max()
        rep.checks.append(CheckResult(
            f"transform_periodic_even_delta{delta}",
            passed=bool(per < 1e-12 and even < 1e-12),
            margin=float(1e-12 - max(per, even)),
            witness={"delta": delta}))

    # 1-d decay bounds on dense grids over each bound's stated domain.
    step = 1e-3
    for delta in deltas:
        th = np.arange(-0.5, 0.5 + step / 2, step)
        upper = np.exp(-np.pi ** 2 * delta * th ** 2) - sm.rhat_1d(delta, th)
        rep.checks.append(_grid_result(
            f"upper_bound_1d_delta{delta}", upper, th, {"delta": delta},
            detail={"bound": "exp(-pi^2 delta theta^2)", "domain": "|theta| <= 1/2"}))

        th = np.arange(-0.25, 0.25 + step / 2, step)
        lower = sm.rhat_1d(delta, th) - np.exp(
            -np.pi ** 2 * delta * th ** 2 - 20.0 * delta * th ** 4)
        rep.checks.append(_grid_result(
            f"lower_bound_1d_delta{delta}", lower, th, {"delta": delta},
            detail={"bound": "exp(-pi^2 delta theta^2 - 20 delta theta^4)",
                    "domain": "|theta| <= 1/4"}))

        th = np.arange(-0.125, 0.125 + step / 2, step)
        ratio = sm.rhat_1d(delta, th) * (32.0 * th ** 2) ** delta - sm.rhat_1d(delta, th + 0.5)
        rep.checks.append(_grid_result(
            f"shift_ratio_1d_delta{delta}", ratio, th, {"delta": delta},
            detail={"bound": "(32 theta^2)^delta", "domain": "|theta| <= 1/8"}))

    # Multi-d bounds at axis points plus random points of each bound's own
    # domain box (1/2, 1/4 and 1/8); check_rhat_bounds gates each bound to
    # the points inside its stated domain.
    for m in range(2, 7):
        rng = stream(seed, 10, m)
        for delta in deltas:
            pts = np.vstack([_domain_points(m, box, 66, rng) for box in (0.5, 0.25, 0.125)])
            worst = {key: _Worst() for key in ("upper", "lower", "ratio")}
            for row in pts:
                margins = sm.check_rhat_bounds(delta, row).margins
                for key, w in worst.items():
                    if margins[key] is not None:
                        w.add(margins[key], row)
            for key, w in worst.items():
                point = _floats(w.witness)
                rep.checks.append(CheckResult(
                    f"{key}_bound_m{m}_delta{delta}",
                    passed=bool(w.value >= -sm.BOUND_TOL),
                    margin=float(w.value),
                    witness={"m": m, "delta": delta, "worst_point": point},
                    detail={"bound": key, "domain": "multi-d sampled",
                            "checks": len(pts), "worst_point": point}))

    # rho equals 2^-delta and decays at least like exp(-0.69 delta).
    rates = []
    for delta in range(1, 13):
        val = sm.rho(delta)
        gap = abs(val - 2.0 ** (-delta))
        rates.append(-math.log(val) / delta)
        rep.checks.append(CheckResult(
            f"rho_delta{delta}",
            passed=bool(gap <= 1e-9 and val <= math.exp(-0.69 * delta)),
            margin=float(1e-9 - gap),
            witness={"delta": delta},
            detail={"rho": val, "per_delta_rate": rates[-1]}))
    rep.checks.append(CheckResult(
        "rho_rate_report", passed=True,
        detail={"empirical_rate_per_delta": float(np.mean(rates)),
                "note": "observed decay constant, about ln 2; not asserted"}))

    # Sampling agrees with the law within 5 standard errors.
    draws = 10 ** 6
    for delta in (0, 1, 2):
        spec = sm.build_pmf(delta)
        values = sm.sample(spec, stream(seed, 20, delta), size=draws)
        worst = _Worst()
        for k in range(-delta, delta + 1):
            p = float(spec.pmf(k))
            freq = float(np.mean(values == k))
            se = math.sqrt(p * (1 - p) / draws) if 0 < p < 1 else 0.0
            worst.add(5.0 * se - abs(freq - p), k)
        rep.checks.append(CheckResult(
            f"sampling_matches_pmf_delta{delta}",
            passed=bool(worst.value >= 0.0),
            margin=float(worst.value),
            witness={"delta": delta, "value": worst.witness, "draws": draws}))

    return rep


def _axis_points(m: int, radius: float) -> np.ndarray:
    """Nine evenly spaced points of [-radius, radius] on each coordinate axis."""
    axis = np.zeros((9 * m, m))
    for i in range(m):
        axis[9 * i:9 * (i + 1), i] = np.linspace(-radius, radius, 9)
    return axis


def _domain_points(m: int, radius_inf: float, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Axis points plus uniform points of the box |theta|_inf <= radius_inf."""
    rand = rng.uniform(-radius_inf, radius_inf, size=(count, m))
    return np.vstack([_axis_points(m, radius_inf), rand])


# ---------------------------------------------------------------------------
# fourier suite
# ---------------------------------------------------------------------------


def suite_fourier(seed: int = 42) -> SuiteReport:
    """Product formula against the 2^n oracle, transform symmetries, the
    partial-product monotonicity, and the quadratic approximation of
    log dhat with both the calibrated and the analytic constant."""
    rep = SuiteReport("fourier", seed)
    rng = stream(seed, 0)

    # Product formula vs coloring enumeration.
    worst = _Worst()
    for k in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 17))
        inst_seed = int(rng.integers(2 ** 62))
        A = sample_bernoulli(m, n, 0.5, inst_seed)
        th = rng.uniform(-0.5, 0.5, size=m)
        worst.add(1e-10 - abs(fr.dhat(A, th) - fr.dhat_bruteforce(A, th)),
                  {"m": m, "n": n, "seed": inst_seed, "theta": _floats(th)})
    rep.checks.append(CheckResult(
        "product_vs_bruteforce", passed=bool(worst.value >= 0.0),
        margin=float(worst.value), witness=worst.witness,
        detail={"pairs": 100, "tolerance": 1e-10}))

    # |dhat| <= 1, evenness, 1-periodicity, half-integral periodicity of |dhat|.
    dev_bound = 0.0
    dev_sym = 0.0
    for k in range(50):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 400))
        A = sample_bernoulli(m, n, float(rng.uniform(0.1, 0.9)), int(rng.integers(2 ** 62)))
        th = rng.uniform(-0.5, 0.5, size=m)
        v = fr.dhat(A, th)
        dev_bound = max(dev_bound, abs(v) - 1.0)
        dev_sym = max(dev_sym, abs(fr.dhat(A, -th) - v))
        dev_sym = max(dev_sym, abs(fr.dhat(A, th + rng.integers(-2, 3, size=m)) - v))
        s = sm.half_lattice_points(m)[int(rng.integers(3 ** m - 1))]
        dev_sym = max(dev_sym, abs(abs(fr.dhat(A, th + s)) - abs(v)))
    rep.checks.append(CheckResult(
        "dhat_symmetries", passed=bool(dev_bound <= 0.0 and dev_sym <= 1e-9),
        margin=float(1e-9 - max(dev_sym, dev_bound)), witness={"cases": 50}))

    # Partial products shrink monotonically in the column count.
    ok = True
    for k in range(20):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 60))
        A = sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        th = rng.uniform(-0.5, 0.5, size=m)
        vals = [fr.dhat_partial(A, th, j) for j in range(n + 1)]
        ok &= vals[0] == 1.0
        ok &= abs(vals[n] - abs(fr.dhat(A, th))) < 1e-12
        ok &= all(vals[j + 1] <= vals[j] + 1e-12 for j in range(n))
    rep.checks.append(CheckResult("partial_product_monotone", passed=bool(ok)))

    # Quadratic approximation of log dhat inside the trusted radius.
    analytic_K = 256.0 * math.pi ** 4 / 3.0
    worst_ratio = 0.0
    failures = 0
    skipped = 0
    for k in range(1000):
        A = sample_bernoulli(6, 400, 0.5, int(rng.integers(2 ** 62)))
        if fr.max_column_frequency(A) > 4 * A.t:
            skipped += 1
            continue
        rmax = 1.0 / (16.0 * math.sqrt(A.t))
        g = rng.standard_normal(6)
        th = g / np.linalg.norm(g) * rmax * rng.uniform() ** 0.5
        r = fr.check_quadratic_approx(A, th)
        if r.ok is None:
            skipped += 1
            continue
        failures += not r.ok
        denom = 400 * A.t ** 2 * float(th @ th) ** 2
        worst_ratio = max(worst_ratio, abs(r.log_dhat + r.quad_form) / denom)
    rep.checks.append(CheckResult(
        "quadratic_approx_suite",
        passed=bool(failures == 0 and worst_ratio <= analytic_K),
        margin=float(fr.QUAD_K_DEFAULT - worst_ratio),
        witness={"m": 6, "n": 400, "p": 0.5},
        detail={"instances": 1000, "skipped_preconditions": skipped,
                "worst_ratio": worst_ratio,
                "calibrated_K": fr.QUAD_K_DEFAULT, "analytic_K": analytic_K}))

    # Single-column sanity case for the same approximation.
    A1 = sample_bernoulli(1, 1, 1.0, 1)
    r1 = fr.check_quadratic_approx(A1, [0.02])
    rep.checks.append(CheckResult(
        "quadratic_approx_single_column", passed=bool(r1.ok),
        margin=float(r1.bound - abs(r1.log_dhat + r1.quad_form)),
        witness={"theta": 0.02}))

    # Covariance sandwich theta^T Sigma theta <= n m |theta|^2 / 2 for p <= 1/2.
    # Exact for the expected covariance at every m; realized matrices only
    # satisfy it through concentration, so those are drawn in the n >> m
    # regime with m >= 2 (at m = 1 and p = 1/2 a realized row size exceeds
    # n/2 about half the time, so the realized form cannot hold there).
    worst_exp = np.inf
    for m in range(1, 9):
        for p in (0.1, 0.3, 0.5):
            n = 100
            top = float(np.linalg.eigvalsh(covariance_expected(m, n, p)).max())
            worst_exp = min(worst_exp, 0.5 * n * m - top)
    worst = _Worst()
    for k in range(200):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(8 * m * m, 300 + 8 * m * m))
        inst_seed = int(rng.integers(2 ** 62))
        A = sample_bernoulli(m, n, float(rng.uniform(0.0, 0.5)), inst_seed)
        top = float(np.linalg.eigvalsh(covariance_empirical(A)).max())
        worst.add(0.5 * n * m - top, {"m": m, "n": n, "seed": inst_seed})
    rep.checks.append(CheckResult(
        "covariance_quadratic_sandwich",
        passed=bool(worst_exp >= -1e-9 and worst.value >= 0.0),
        margin=float(min(worst_exp, worst.value)), witness=worst.witness,
        detail={"expected_form_margin": worst_exp,
                "realized_cases": 200, "realized_margin": worst.value}))

    return rep


# ---------------------------------------------------------------------------
# spike suite
# ---------------------------------------------------------------------------


def suite_spike(seed: int = 42) -> SuiteReport:
    """Dominance of the central transform spike over all 3^m - 1 shifted
    spikes, for the smoother alone on dense point sets and for full xhat
    on sampled instances; every shift sum is an exact enumeration."""
    rep = SuiteReport("spike", seed)
    s1 = sm.build_pmf(1)

    for m in range(1, 9):
        rng = stream(seed, m)
        pts = _ball_points(m, fr.SPIKE_RADIUS, 1000, rng)
        shifts = sm.half_lattice_points(m)
        worst = _Worst()
        enum_vs_closed = 0.0
        chunk = max(1, 200000 // max(1, shifts.shape[0]))
        for lo in range(0, pts.shape[0], chunk):
            block = pts[lo:lo + chunk]
            center = sm.rhat_md(1, block)
            shifted = block[:, None, :] + shifts[None, :, :]
            tail = sm.rhat_md(1, shifted).sum(axis=1)
            # cross-check the closed-form shell sum the assembly's near piece runs
            closed = s1.shell_sum_of_cos(np.cos(2 * np.pi * block))
            enum_vs_closed = max(enum_vs_closed, float(np.abs(tail - closed).max()))
            margins = center - 2.0 * tail
            k = int(np.argmin(margins))
            worst.add(float(margins[k]), block[k])
        rep.checks.append(CheckResult(
            f"smoother_spike_dominance_m{m}",
            passed=bool(worst.value > 0.0 and enum_vs_closed <= 1e-12),
            margin=worst.value,
            witness={"m": m, "worst_point": _floats(worst.witness)},
            detail={"points": int(pts.shape[0]), "shifts": int(shifts.shape[0]),
                    "enumeration_vs_closed_form": enum_vs_closed}))

    # Full xhat version on sampled instances.
    rng = stream(seed, 99)
    worst = _Worst()
    max_dev = 0.0
    for k in range(100):
        inst_seed = int(rng.integers(2 ** 62))
        A = sample_bernoulli(6, 200, 0.5, inst_seed)
        pts = _ball_points(6, fr.SPIKE_RADIUS, 12, rng, axis_points=False)
        for row in pts:
            r = fr.spike_dominance_x(A, s1, row)
            max_dev = max(max_dev, r.periodicity_dev)
            worst.add(r.lhs - r.rhs, {"seed": inst_seed, "theta": _floats(row)})
    rep.checks.append(CheckResult(
        "xhat_spike_dominance", passed=bool(worst.value > 0.0 and max_dev <= 1e-10),
        margin=float(worst.value), witness=worst.witness,
        detail={"instances": 100, "m": 6, "n": 200, "points_per_instance": 12,
                "worst_periodicity_dev": max_dev}))

    # Largest ladder radius at which smoother dominance still held (report only).
    ladder = [0.5, 0.25, 0.125, 1.0 / 16.0, 1.0 / 32.0]
    held = None
    rng = stream(seed, 100)
    for radius in ladder:
        pts = _ball_points(4, radius, 400, rng)
        shifts = sm.half_lattice_points(4)
        center = sm.rhat_md(1, pts)
        tail = sm.rhat_md(1, pts[:, None, :] + shifts[None, :, :]).sum(axis=1)
        if bool((center > 2.0 * tail).all()):
            held = radius
            break
    rep.checks.append(CheckResult(
        "dominance_radius_report", passed=True,
        detail={"largest_clean_ladder_radius_m4": held,
                "configured_radius": fr.SPIKE_RADIUS}))

    return rep


def _ball_points(m: int, radius: float, count: int, rng: np.random.Generator,
                 axis_points: bool = True) -> np.ndarray:
    """Points of the l2 ball of the given radius: optional axis grids plus
    uniform ball samples."""
    blocks = [_axis_points(m, radius)] if axis_points else []
    need = max(0, count - sum(b.shape[0] for b in blocks))
    if need:
        blocks.append(fr.Region.origin_ball(m, radius).sample(rng, need))
    return np.vstack(blocks)


# ---------------------------------------------------------------------------
# decay suite
# ---------------------------------------------------------------------------


def suite_decay(seed: int = 42) -> SuiteReport:
    """Exact one-column decay expectations against their three bounds, and
    the far-region integral against exp(-p delta^2 n / 24)."""
    rep = SuiteReport("decay", seed)
    rng = stream(seed, 0)
    cases = 1000

    def draw():
        m = int(rng.integers(1, 15))
        p = float(rng.uniform(0.0, 0.5))
        return m, p, rng.uniform(-0.25, 0.25, size=m)

    # Large-entry bound.
    worst = _Worst()
    for k in range(cases):
        m, p, th = draw()
        worst.add(fr.decay_bound_large_entry(th, p) - fr.one_factor_abs_cos_exact(th, p),
                  {"m": m, "p": p, "theta": _floats(th)})
    rep.checks.append(CheckResult(
        "one_factor_large_entry", passed=bool(worst.value >= -sm.BOUND_TOL),
        margin=float(worst.value), witness=worst.witness,
        detail={"cases": cases, "bound": "1 - (pi^2/4) p |theta|_inf^2"}))

    # Recentred bound with an arbitrary phase shift, inside its domain.
    worst = _Worst()
    for k in range(cases):
        m, p, th = draw()
        nsq = float(th @ th)
        if p * nsq > fr.CENTERED_DECAY_B and p > 0:
            th *= math.sqrt(fr.CENTERED_DECAY_B / (p * nsq))
        s = float(rng.uniform(-math.pi, math.pi))
        worst.add(fr.decay_bound_centered(th, p) - fr.one_factor_centered_exact(th, p, s),
                  {"m": m, "p": p, "s": s, "theta": _floats(th)})
    rep.checks.append(CheckResult(
        "one_factor_centered_shifted", passed=bool(worst.value >= -sm.BOUND_TOL),
        margin=float(worst.value), witness=worst.witness,
        detail={"cases": cases, "bound": "1 - p |theta|_2^2 / 2",
                "domain_cap_b": fr.CENTERED_DECAY_B}))

    # Summary bound with the fixed small constant.
    worst = _Worst()
    for k in range(cases):
        m, p, th = draw()
        worst.add(fr.decay_bound_summary(th, p) - fr.one_factor_abs_cos_exact(th, p),
                  {"m": m, "p": p, "theta": _floats(th)})
    rep.checks.append(CheckResult(
        "one_factor_summary", passed=bool(worst.value >= -sm.BOUND_TOL),
        margin=float(worst.value), witness=worst.witness,
        detail={"cases": cases, "bound": "1 - min(p |theta|_2^2 / 4, c)",
                "c": fr.SUMMARY_DECAY_C}))

    # Far-region integral vs its exponential bound, plus the decay trend in n.
    far_m, far_p, far_ns = 4, 0.5, (500, 1000, 2000)
    delta = 1.0 / (16.0 * math.sqrt(far_p * far_m))
    hold = 0
    total = 0
    log_means = {n: [] for n in far_ns}
    for g in range(7):
        for n in far_ns:
            inst_seed = child_seed(seed, 7, g, n)
            A = sample_bernoulli(far_m, n, far_p, inst_seed)
            r = fr.far_region_integral(A, delta, 30000, child_seed(seed, 8, g, n))
            total += 1
            hold += r.estimate.value + 3.0 * r.estimate.stderr <= r.bound
            log_means[n].append(r.log_mean)
    rate = hold / total
    means = [float(np.mean(log_means[n])) for n in far_ns]
    trend_ok = all(means[i + 1] < means[i] for i in range(len(means) - 1))
    rep.checks.append(CheckResult(
        "far_region_bound", passed=bool(rate >= 0.9 and trend_ok),
        margin=float(rate - 0.9),
        witness={"m": far_m, "p": far_p, "ns": list(far_ns), "delta": delta},
        detail={"instances": total, "fraction_within_bound": rate,
                "mean_log_integrals_by_n": dict(zip(map(str, far_ns), means)),
                "side_conditions": {"p_delta_sq": far_p * delta ** 2,
                                    "cap": fr.FAR_SIDE_C}}))

    return rep


# ---------------------------------------------------------------------------
# gaussian suite
# ---------------------------------------------------------------------------


def suite_gaussian(seed: int = 42) -> SuiteReport:
    """Ball integrals of the Gaussian transform against the density floor,
    and the Gaussian norm tail inequality."""
    rep = SuiteReport("gaussian", seed)

    for m in (2, 3):
        for r in (1.0, 4.0):
            radius = math.sqrt(m / r) / math.pi
            est = fr.integrate_mc(
                lambda pts: fr.gaussian_fhat(r * np.eye(m), pts),
                fr.Region.origin_ball(m, radius),
                200000, child_seed(seed, m, int(r)))
            floor = 0.5 * (2.0 * math.pi * r) ** (-m / 2.0)
            margin = est.value - (floor - 3.0 * est.stderr)
            rep.checks.append(CheckResult(
                f"ball_integral_m{m}_r{int(r)}", passed=bool(margin >= 0.0),
                margin=float(margin),
                witness={"m": m, "r": r, "radius": radius},
                detail={"estimate": est.value, "stderr": est.stderr, "floor": floor}))

    tail_samples = 200000
    for m in (2, 8):
        g = stream(seed, 30, m).standard_normal((tail_samples, m))
        norms = np.linalg.norm(g, axis=1)
        for lam in (1.0, 2.0, 3.0):
            emp = float(np.mean(norms > math.sqrt(m) + lam))
            bound = 2.0 * math.exp(-lam * lam / 2.0)
            rep.checks.append(CheckResult(
                f"norm_tail_m{m}_lam{int(lam)}", passed=bool(emp <= bound),
                margin=float(bound - emp),
                witness={"m": m, "lambda": lam, "samples": tail_samples},
                detail={"empirical": emp, "bound": bound}))

    dens = [fr.gaussian_density_zero(r * np.eye(3)) for r in (1.0, 2.0, 4.0, 8.0)]
    rep.checks.append(CheckResult(
        "density_zero_monotone",
        passed=bool(all(dens[i + 1] < dens[i] for i in range(len(dens) - 1))),
        detail={"values": dens}))

    return rep


# ---------------------------------------------------------------------------
# inversion suite
# ---------------------------------------------------------------------------


def suite_inversion(seed: int = 42) -> SuiteReport:
    """Monte Carlo inversion against the exact-law oracle, the
    cancellation identity, the even-parity shortcut, and the exact law's
    own consistency properties."""
    rep = SuiteReport("inversion", seed)
    rng = stream(seed, 0)
    s1 = sm.build_pmf(1)
    tolerance = "max(3 stderr, 1e-3)"

    # Oracle equivalence at lambda = 0.
    worst = _Worst()
    for k in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(4, 13))
        p = float(rng.choice((0.3, 0.5)))
        inst_seed = int(rng.integers(2 ** 62))
        A = sample_bernoulli(m, n, p, inst_seed)
        exact = float(iv.prob_exact(A, s1, [0] * m))
        est = iv.prob_fourier_mc(A, s1, [0] * m, 10 ** 6, child_seed(seed, 1, k))
        worst.add(max(3.0 * est.stderr, 1e-3) - abs(exact - est.value),
                  {"m": m, "n": n, "p": p, "seed": inst_seed})
    rep.checks.append(CheckResult(
        "oracle_equivalence", passed=bool(worst.value >= 0.0), margin=float(worst.value),
        witness=worst.witness,
        detail={"instances": 50, "samples": 10 ** 6, "tolerance": tolerance}))

    # Nonzero lambda example and an unreachable lambda.
    A = IncidenceMatrix([[1, 1]])
    exact2 = iv.prob_exact(A, s1, [2])
    est2 = iv.prob_fourier_mc(A, s1, [2], 250000, child_seed(seed, 2))
    gap2 = abs(float(exact2) - est2.value)
    far_lam = iv.prob_fourier_mc(A, s1, [7], 250000, child_seed(seed, 3))
    rep.checks.append(CheckResult(
        "nonzero_and_unreachable_lambda",
        passed=bool(gap2 <= max(3 * est2.stderr, 1e-3)
                    and abs(far_lam.value) <= 3 * far_lam.stderr),
        margin=float(max(3 * est2.stderr, 1e-3) - gap2),
        detail={"exact_lambda2": str(exact2), "mc_lambda2": est2.value,
                "unreachable_estimate": far_lam.value}))

    # Cancellation identity: exact one at zero, noise elsewhere.
    re0, im0 = iv.cancellation_check([0, 0, 0], 1000, child_seed(seed, 4))
    ok = re0.value == 1.0 and re0.stderr == 0.0 and im0.value == 0.0
    worst_t = np.inf
    for idx, tvec in enumerate(([1], [2], [-3], [1, -1], [3, -2])):
        re, im = iv.cancellation_check(tvec, 10 ** 5, child_seed(seed, 5, idx))
        margin = min(3 * re.stderr - abs(re.value), 3 * im.stderr - abs(im.value))
        worst_t = min(worst_t, margin)
    rep.checks.append(CheckResult(
        "cancellation", passed=bool(ok and worst_t >= 0.0), margin=float(worst_t),
        detail={"nonzero_vectors": 5, "samples": 10 ** 5}))

    # Even-parity shortcut vs the exact law under the parity smoother.
    worst = _Worst()
    specials = [IncidenceMatrix(np.ones((2, 4), dtype=int)),   # all rows even
                IncidenceMatrix(np.ones((2, 3), dtype=int)),   # all rows odd
                IncidenceMatrix(np.zeros((2, 3), dtype=int))]
    for k in range(20):
        if k < len(specials):
            A = specials[k]
        else:
            A = sample_bernoulli(int(rng.integers(1, 4)), int(rng.integers(2, 11)),
                                 0.5, int(rng.integers(2 ** 62)))
        smoother = sm.ParitySmoother.from_matrix(A)
        exact = float(iv.prob_exact(A, smoother, [0] * A.m))
        est = iv.prob_even_variant(A, 250000, child_seed(seed, 6, k))
        worst.add(max(3.0 * est.stderr, 1e-3) - abs(exact - est.value),
                  {"m": A.m, "n": A.n, "k": k})
    rep.checks.append(CheckResult(
        "even_parity_shortcut", passed=bool(worst.value >= 0.0), margin=float(worst.value),
        witness=worst.witness,
        detail={"instances": 20, "samples": 250000, "tolerance": tolerance}))

    # Exact law: total mass one, symmetry, and solver cross-consistency.
    ok_mass = True
    ok_sym = True
    ok_solver = True
    for k in range(6):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        A = sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        dist = iv.distribution_exact(A, s1)
        ok_mass &= sum(dist.values(), Fraction(0)) == 1
        ok_sym &= all(dist.get(tuple(-v for v in lam)) == pr for lam, pr in dist.items())
        if iv.prob_exact(A, s1, [0] * m) > 0:
            best, _ = sv.exhaustive_min_disc(A)
            ok_solver &= best <= 1
    rep.checks.append(CheckResult(
        "exact_law_consistency", passed=bool(ok_mass and ok_sym and ok_solver),
        detail={"mass_ok": ok_mass, "symmetry_ok": ok_sym,
                "solver_cross_ok": ok_solver}))

    # Column permutation leaves the Monte Carlo inversion unchanged.
    A = sample_bernoulli(3, 10, 0.5, int(rng.integers(2 ** 62)))
    perm = stream(seed, 9).permutation(A.n)
    B = IncidenceMatrix(A.bits[:, perm])
    ea = iv.prob_fourier_mc(A, s1, [0, 0, 0], 10 ** 5, child_seed(seed, 10))
    eb = iv.prob_fourier_mc(B, s1, [0, 0, 0], 10 ** 5, child_seed(seed, 10))
    gap = abs(ea.value - eb.value)
    tol = 3.0 * math.hypot(ea.stderr, eb.stderr) + 1e-12
    rep.checks.append(CheckResult(
        "column_permutation_invariance", passed=bool(gap <= tol),
        margin=float(tol - gap), detail={"gap": gap}))

    return rep


# ---------------------------------------------------------------------------
# assembly suite
# ---------------------------------------------------------------------------


def suite_assembly(seed: int = 42) -> SuiteReport:
    """Three-region split of the inversion integral on sampled instances:
    positive central mass, spike dominance, a negligible far region, and a
    growing central-to-far ratio as n grows."""
    rep = SuiteReport("assembly", seed)
    s1 = sm.build_pmf(1)
    m, p, ns, samples = 4, 0.5, (800, 1200, 1600), 40000

    ratios = []
    for n in ns:
        A = sample_bernoulli(m, n, p, child_seed(seed, 1, n))
        r = iv.three_region_assembly(A, s1, samples, child_seed(seed, 2, n))
        flags_ok = (r.central_positive and r.spike_ok and r.far_ok and r.witness_ok)
        ratios.append(math.log(max(r.central.value, 1e-300)) - r.far.log_mean)
        rep.checks.append(CheckResult(
            f"assembly_n{n}", passed=bool(flags_ok),
            margin=float(r.central.value - 2.0 * r.near.value),
            witness={"m": m, "n": n, "p": p},
            detail={"central": r.central.value, "central_stderr": r.central.stderr,
                    "near": r.near.value, "far": r.far.estimate.value,
                    "far_log_mean": r.far.log_mean, "far_bound": r.far.bound,
                    "witness_estimate": r.witness.value,
                    "witness_floor": r.witness_floor}))
    trend_ok = all(ratios[i + 1] > ratios[i] for i in range(len(ratios) - 1))
    rep.checks.append(CheckResult(
        "central_to_far_ratio_grows", passed=bool(trend_ok),
        detail={"log_ratios_by_n": dict(zip(map(str, ns), ratios))}))

    # Central-mass floor on smaller instances: the ball of radius
    # 1/(pi sqrt n) already carries at least half the Gaussian comparator
    # mass 1/2 (2 pi n m)^(-m/2).
    for wm, wn in ((2, 400), (3, 700)):
        A = sample_bernoulli(wm, wn, p, child_seed(seed, 3, wm))
        r = iv.three_region_assembly(A, s1, samples, child_seed(seed, 4, wm))
        rep.checks.append(CheckResult(
            f"central_mass_floor_m{wm}", passed=bool(r.witness_ok),
            margin=float(r.witness.value - (r.witness_floor - 3 * r.witness.stderr)),
            witness={"m": wm, "n": wn, "p": p},
            detail={"estimate": r.witness.value, "floor": r.witness_floor}))

    # Wider smoother through the same assembly path.
    A = sample_bernoulli(m, ns[0], p, child_seed(seed, 5))
    r2 = iv.three_region_assembly(A, sm.build_pmf(2), samples // 2, child_seed(seed, 6))
    rep.checks.append(CheckResult(
        "assembly_width2_smoother",
        passed=bool(r2.central_positive and r2.spike_ok and r2.far_ok),
        margin=float(r2.central.value - 2.0 * r2.near.value),
        detail={"central": r2.central.value, "near": r2.near.value,
                "far": r2.far.estimate.value}))

    # Zero-matrix shadow: the transform vanishes exactly at the nonzero
    # half-integral centers for the width-1 smoother.
    Z = IncidenceMatrix(np.zeros((3, 8), dtype=int))
    shifts = sm.half_lattice_points(3)
    at_centers = np.abs(fr.xhat_batch(Z, s1, shifts))
    rep.checks.append(CheckResult(
        "zero_matrix_centers_vanish", passed=bool(at_centers.max() == 0.0),
        margin=float(-at_centers.max()),
        detail={"max_abs_at_centers": float(at_centers.max())}))

    return rep


# ---------------------------------------------------------------------------


SUITE_NAMES = {
    "smoothing": suite_smoothing,
    "fourier": suite_fourier,
    "spike": suite_spike,
    "decay": suite_decay,
    "gaussian": suite_gaussian,
    "inversion": suite_inversion,
    "assembly": suite_assembly,
}


def run_suite(name: str, seed: int = 42) -> SuiteReport:
    """Run one named suite and record its wall time; unknown names raise KeyError."""
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITE_NAMES)}")
    t0 = time.perf_counter()
    rep = SUITE_NAMES[name](seed)
    rep.runtime_s = time.perf_counter() - t0
    return rep
