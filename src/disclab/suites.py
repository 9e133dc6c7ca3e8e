"""Named verification suites behind the `verify` command.

Each suite runs a battery of inequality and consistency checks at
documented default sizes and returns a SuiteReport whose failures always
carry a reproducible witness (seed plus parameters). Default sizes are
the ones the acceptance gate runs; pass smaller overrides for quick
scans.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import fourier as fr
from . import inversion as iv
from . import smoothing as sm
from . import solvers as sv
from .rng import child_seed, stream
from .setsystem import IncidenceMatrix, covariance_empirical, sample_bernoulli

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


def _grid_result(name: str, margins: np.ndarray, points, witness_extra: dict,
                 tol: float = sm.BOUND_TOL, detail: Optional[dict] = None) -> CheckResult:
    """Summarize a zero-violations-over-grid check from pointwise margins."""
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    worst_point = [float(v) for v in np.atleast_1d(points[worst])]
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


def suite_smoothing(
    seed: int = 42,
    deltas: Sequence[int] = range(1, 9),
    grid_step: float = 1e-3,
    md_dims: Sequence[int] = range(2, 7),
    md_points: int = 200,
    sample_draws: int = 10 ** 6,
    rho_deltas: Sequence[int] = range(1, 13),
) -> SuiteReport:
    """Exact-law checks, transform-vs-law consistency, the three decay
    bounds on dense 1-d grids and sampled multi-d points, and rho."""
    t0 = time.time()
    rep = SuiteReport("smoothing", seed)

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
    for delta in deltas:
        th = np.arange(-0.5, 0.5 + grid_step / 2, grid_step)
        upper = np.exp(-np.pi ** 2 * delta * th ** 2) - sm.rhat_1d(delta, th)
        rep.checks.append(_grid_result(
            f"upper_bound_1d_delta{delta}", upper, th, {"delta": delta},
            detail={"bound": "exp(-pi^2 delta theta^2)", "domain": "|theta| <= 1/2"}))

        th = np.arange(-0.25, 0.25 + grid_step / 2, grid_step)
        lower = sm.rhat_1d(delta, th) - np.exp(
            -np.pi ** 2 * delta * th ** 2 - 20.0 * delta * th ** 4)
        rep.checks.append(_grid_result(
            f"lower_bound_1d_delta{delta}", lower, th, {"delta": delta},
            detail={"bound": "exp(-pi^2 delta theta^2 - 20 delta theta^4)",
                    "domain": "|theta| <= 1/4"}))

        th = np.arange(-0.125, 0.125 + grid_step / 2, grid_step)
        ratio = sm.rhat_1d(delta, th) * (32.0 * th ** 2) ** delta - sm.rhat_1d(delta, th + 0.5)
        rep.checks.append(_grid_result(
            f"shift_ratio_1d_delta{delta}", ratio, th, {"delta": delta},
            detail={"bound": "(32 theta^2)^delta", "domain": "|theta| <= 1/8"}))

    # Multi-d bounds at axis points plus random points of each bound's own
    # domain box (1/2, 1/4 and 1/8); check_rhat_bounds gates each bound to
    # the points inside its stated domain.
    for m in md_dims:
        rng = stream(seed, 10, m)
        for delta in deltas:
            pts = np.vstack([
                _domain_points(m, box, max(md_points // 3, 20), rng)
                for box in (0.5, 0.25, 0.125)
            ])
            worst: Dict[str, float] = {"upper": np.inf, "lower": np.inf, "ratio": np.inf}
            worst_pt = {k: None for k in worst}
            for row in pts:
                r = sm.check_rhat_bounds(delta, row)
                for key in worst:
                    val = r.margins[key]
                    if val is not None and val < worst[key]:
                        worst[key] = val
                        worst_pt[key] = [float(v) for v in row]
            for key in worst:
                rep.checks.append(CheckResult(
                    f"{key}_bound_m{m}_delta{delta}",
                    passed=bool(worst[key] >= -sm.BOUND_TOL),
                    margin=float(worst[key]),
                    witness={"m": m, "delta": delta, "worst_point": worst_pt[key]},
                    detail={"bound": key, "domain": "multi-d sampled",
                            "checks": len(pts), "worst_point": worst_pt[key]}))

    # rho equals 2^-delta and decays at least like exp(-0.69 delta).
    rates = []
    for delta in rho_deltas:
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
    for delta in (0, 1, 2):
        spec = sm.build_pmf(delta)
        draws = sm.sample(spec, stream(seed, 20, delta), size=sample_draws)
        worst_margin = np.inf
        worst_k = None
        for k in range(-delta, delta + 1):
            p = float(spec.pmf(k))
            freq = float(np.mean(draws == k))
            se = math.sqrt(p * (1 - p) / sample_draws) if 0 < p < 1 else 0.0
            margin = 5.0 * se - abs(freq - p)
            if margin < worst_margin:
                worst_margin, worst_k = margin, k
        rep.checks.append(CheckResult(
            f"sampling_matches_pmf_delta{delta}",
            passed=bool(worst_margin >= 0.0),
            margin=float(worst_margin),
            witness={"delta": delta, "value": worst_k, "draws": sample_draws}))

    rep.runtime_s = time.time() - t0
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


def suite_fourier(
    seed: int = 42,
    oracle_pairs: int = 100,
    quad_instances: int = 1000,
    quad_m: int = 6,
    quad_n: int = 400,
    quad_p: float = 0.5,
) -> SuiteReport:
    """Product formula against the 2^n oracle, transform symmetries, the
    partial-product monotonicity, and the quadratic approximation of
    log dhat with both the calibrated and the analytic constant."""
    t0 = time.time()
    rep = SuiteReport("fourier", seed)
    rng = stream(seed, 0)

    # Product formula vs coloring enumeration.
    worst = -np.inf
    worst_case = None
    for k in range(oracle_pairs):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 17))
        inst_seed = int(rng.integers(2 ** 62))
        A = sample_bernoulli(m, n, 0.5, inst_seed)
        th = rng.uniform(-0.5, 0.5, size=m)
        gap = abs(fr.dhat(A, th) - fr.dhat_bruteforce(A, th))
        if gap > worst:
            worst, worst_case = gap, {"m": m, "n": n, "seed": inst_seed,
                                      "theta": [float(v) for v in th]}
    rep.checks.append(CheckResult(
        "product_vs_bruteforce", passed=bool(worst <= 1e-10),
        margin=float(1e-10 - worst), witness=worst_case,
        detail={"pairs": oracle_pairs, "tolerance": 1e-10}))

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
    for k in range(quad_instances):
        A = sample_bernoulli(quad_m, quad_n, quad_p, int(rng.integers(2 ** 62)))
        if fr.max_column_frequency(A) > 4 * A.t:
            skipped += 1
            continue
        rmax = 1.0 / (16.0 * math.sqrt(A.t))
        g = rng.standard_normal(quad_m)
        th = g / np.linalg.norm(g) * rmax * rng.uniform() ** 0.5
        r = fr.check_quadratic_approx(A, th, K=fr.QUAD_K_DEFAULT)
        if r.ok is None:
            skipped += 1
            continue
        failures += not r.ok
        denom = quad_n * A.t ** 2 * float(th @ th) ** 2
        worst_ratio = max(worst_ratio, abs(r.log_dhat + r.quad_form) / denom)
    rep.checks.append(CheckResult(
        "quadratic_approx_suite",
        passed=bool(failures == 0 and worst_ratio <= analytic_K),
        margin=float(fr.QUAD_K_DEFAULT - worst_ratio),
        witness={"m": quad_m, "n": quad_n, "p": quad_p},
        detail={"instances": quad_instances, "skipped_preconditions": skipped,
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
            expected = np.full((m, m), n * p * p)
            np.fill_diagonal(expected, n * p)
            top = float(np.linalg.eigvalsh(expected).max())
            worst_exp = min(worst_exp, 0.5 * n * m - top)
    worst_gap = np.inf
    worst_case = None
    for k in range(200):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(8 * m * m, 300 + 8 * m * m))
        inst_seed = int(rng.integers(2 ** 62))
        A = sample_bernoulli(m, n, float(rng.uniform(0.0, 0.5)), inst_seed)
        top = float(np.linalg.eigvalsh(covariance_empirical(A)).max())
        gap = 0.5 * n * m - top
        if gap < worst_gap:
            worst_gap, worst_case = gap, {"m": m, "n": n, "seed": inst_seed}
    rep.checks.append(CheckResult(
        "covariance_quadratic_sandwich",
        passed=bool(worst_exp >= -1e-9 and worst_gap >= 0.0),
        margin=float(min(worst_exp, worst_gap)), witness=worst_case,
        detail={"expected_form_margin": worst_exp,
                "realized_cases": 200, "realized_margin": worst_gap}))

    rep.runtime_s = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# spike suite
# ---------------------------------------------------------------------------


def suite_spike(
    seed: int = 42,
    dims: Sequence[int] = range(1, 9),
    points_per_dim: int = 1000,
    xhat_instances: int = 100,
    xhat_m: int = 6,
    xhat_n: int = 200,
    xhat_points: int = 12,
) -> SuiteReport:
    """Dominance of the central transform spike over all 3^m - 1 shifted
    spikes, for the smoother alone on dense point sets and for full xhat
    on sampled instances; every shift sum is an exact enumeration."""
    t0 = time.time()
    rep = SuiteReport("spike", seed)

    for m in dims:
        rng = stream(seed, m)
        pts = _ball_points(m, fr.SPIKE_RADIUS, points_per_dim, rng)
        shifts = sm.half_lattice_points(m)
        worst = np.inf
        worst_pt = None
        enum_vs_closed = 0.0
        chunk = max(1, 200000 // max(1, shifts.shape[0]))
        for lo in range(0, pts.shape[0], chunk):
            block = pts[lo:lo + chunk]
            center = sm.rhat_md(1, block)
            shifted = block[:, None, :] + shifts[None, :, :]
            tail = sm.rhat_md(1, shifted).sum(axis=1)
            # cross-check the factorized shifted-sum identity the assembly
            # shell estimator relies on: per coordinate the three shifts
            # contribute g + 2(1 - g) = 2 - g
            g0 = 0.5 + 0.5 * np.cos(2 * np.pi * block)
            closed = np.prod(2.0 - g0, axis=1) - np.prod(g0, axis=1)
            enum_vs_closed = max(enum_vs_closed, float(np.abs(tail - closed).max()))
            margins = center - 2.0 * tail
            k = int(np.argmin(margins))
            if margins[k] < worst:
                worst = float(margins[k])
                worst_pt = [float(v) for v in block[k]]
        rep.checks.append(CheckResult(
            f"smoother_spike_dominance_m{m}",
            passed=bool(worst > 0.0 and enum_vs_closed <= 1e-12),
            margin=worst,
            witness={"m": m, "worst_point": worst_pt},
            detail={"points": int(pts.shape[0]), "shifts": int(shifts.shape[0]),
                    "enumeration_vs_closed_form": enum_vs_closed}))

    # Full xhat version on sampled instances.
    rng = stream(seed, 99)
    s1 = sm.build_pmf(1)
    worst = np.inf
    worst_case = None
    max_dev = 0.0
    for k in range(xhat_instances):
        inst_seed = int(rng.integers(2 ** 62))
        A = sample_bernoulli(xhat_m, xhat_n, 0.5, inst_seed)
        pts = _ball_points(xhat_m, fr.SPIKE_RADIUS, xhat_points, rng, axis_points=False)
        for row in pts:
            r = fr.spike_dominance_x(A, s1, row)
            max_dev = max(max_dev, r.periodicity_dev)
            margin = r.lhs - r.rhs
            if margin < worst:
                worst = margin
                worst_case = {"seed": inst_seed, "theta": [float(v) for v in row]}
    rep.checks.append(CheckResult(
        "xhat_spike_dominance", passed=bool(worst > 0.0 and max_dev <= 1e-10),
        margin=float(worst), witness=worst_case,
        detail={"instances": xhat_instances, "m": xhat_m, "n": xhat_n,
                "points_per_instance": xhat_points,
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

    rep.runtime_s = time.time() - t0
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


def suite_decay(
    seed: int = 42,
    cases_per_bound: int = 1000,
    max_m: int = 14,
    far_group_seeds: int = 7,
    far_ns: Sequence[int] = (500, 1000, 2000),
    far_m: int = 4,
    far_p: float = 0.5,
    far_samples: int = 30000,
) -> SuiteReport:
    """Exact one-column decay expectations against their three bounds, and
    the far-region integral against exp(-p delta^2 n / 24)."""
    t0 = time.time()
    rep = SuiteReport("decay", seed)
    rng = stream(seed, 0)

    def random_theta(linf_cap: float, m: int) -> np.ndarray:
        return rng.uniform(-linf_cap, linf_cap, size=m)

    # Large-entry bound.
    worst = np.inf
    worst_case = None
    for k in range(cases_per_bound):
        m = int(rng.integers(1, max_m + 1))
        p = float(rng.uniform(0.0, 0.5))
        th = random_theta(0.25, m)
        margin = fr.decay_bound_large_entry(th, p) - fr.one_factor_abs_cos_exact(th, p)
        if margin < worst:
            worst, worst_case = margin, {"m": m, "p": p, "theta": [float(v) for v in th]}
    rep.checks.append(CheckResult(
        "one_factor_large_entry", passed=bool(worst >= -sm.BOUND_TOL),
        margin=float(worst), witness=worst_case,
        detail={"cases": cases_per_bound, "bound": "1 - (pi^2/4) p |theta|_inf^2"}))

    # Recentred bound with an arbitrary phase shift, inside its domain.
    worst = np.inf
    worst_case = None
    for k in range(cases_per_bound):
        m = int(rng.integers(1, max_m + 1))
        p = float(rng.uniform(0.0, 0.5))
        th = random_theta(0.25, m)
        nsq = float(th @ th)
        if p * nsq > fr.CENTERED_DECAY_B and p > 0:
            th *= math.sqrt(fr.CENTERED_DECAY_B / (p * nsq))
        s = float(rng.uniform(-math.pi, math.pi))
        margin = fr.decay_bound_centered(th, p) - fr.one_factor_centered_exact(th, p, s)
        if margin < worst:
            worst, worst_case = margin, {"m": m, "p": p, "s": s,
                                         "theta": [float(v) for v in th]}
    rep.checks.append(CheckResult(
        "one_factor_centered_shifted", passed=bool(worst >= -sm.BOUND_TOL),
        margin=float(worst), witness=worst_case,
        detail={"cases": cases_per_bound, "bound": "1 - p |theta|_2^2 / 2",
                "domain_cap_b": fr.CENTERED_DECAY_B}))

    # Summary bound with the fixed small constant.
    worst = np.inf
    worst_case = None
    for k in range(cases_per_bound):
        m = int(rng.integers(1, max_m + 1))
        p = float(rng.uniform(0.0, 0.5))
        th = random_theta(0.25, m)
        margin = fr.decay_bound_summary(th, p) - fr.one_factor_abs_cos_exact(th, p)
        if margin < worst:
            worst, worst_case = margin, {"m": m, "p": p, "theta": [float(v) for v in th]}
    rep.checks.append(CheckResult(
        "one_factor_summary", passed=bool(worst >= -sm.BOUND_TOL),
        margin=float(worst), witness=worst_case,
        detail={"cases": cases_per_bound, "bound": "1 - min(p |theta|_2^2 / 4, c)",
                "c": fr.SUMMARY_DECAY_C}))

    # Far-region integral vs its exponential bound, plus the decay trend in n.
    t_freq = far_p * far_m
    delta = 1.0 / (16.0 * math.sqrt(t_freq))
    hold = 0
    total = 0
    log_means = {n: [] for n in far_ns}
    for g in range(far_group_seeds):
        for n in far_ns:
            inst_seed = child_seed(seed, 7, g, n)
            A = sample_bernoulli(far_m, n, far_p, inst_seed)
            r = fr.far_region_integral(A, delta, far_samples, child_seed(seed, 8, g, n))
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

    rep.runtime_s = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# gaussian suite
# ---------------------------------------------------------------------------


def suite_gaussian(
    seed: int = 42,
    dims: Sequence[int] = (2, 3),
    scales: Sequence[float] = (1.0, 4.0),
    samples: int = 200000,
    tail_samples: int = 200000,
) -> SuiteReport:
    """Ball integrals of the Gaussian transform against the density floor,
    and the Gaussian norm tail inequality."""
    t0 = time.time()
    rep = SuiteReport("gaussian", seed)

    for m in dims:
        for r in scales:
            radius = math.sqrt(m / r) / math.pi
            est = fr.integrate_mc(
                lambda pts: fr.gaussian_fhat(r * np.eye(m), pts),
                fr.Region.origin_ball(m, radius),
                samples, child_seed(seed, m, int(r)))
            floor = 0.5 * (2.0 * math.pi * r) ** (-m / 2.0)
            margin = est.value - (floor - 3.0 * est.stderr)
            rep.checks.append(CheckResult(
                f"ball_integral_m{m}_r{int(r)}", passed=bool(margin >= 0.0),
                margin=float(margin),
                witness={"m": m, "r": r, "radius": radius},
                detail={"estimate": est.value, "stderr": est.stderr, "floor": floor}))

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

    rep.runtime_s = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# inversion suite
# ---------------------------------------------------------------------------


def suite_inversion(
    seed: int = 42,
    instances: int = 50,
    samples: int = 10 ** 6,
    cancellation_samples: int = 10 ** 5,
    parity_instances: int = 20,
) -> SuiteReport:
    """Monte Carlo inversion against the exact-law oracle, the
    cancellation identity, the even-parity shortcut, and the exact law's
    own consistency properties."""
    t0 = time.time()
    rep = SuiteReport("inversion", seed)
    rng = stream(seed, 0)
    s1 = sm.build_pmf(1)

    # Oracle equivalence at lambda = 0.
    worst = np.inf
    worst_case = None
    for k in range(instances):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(4, 13))
        p = float(rng.choice((0.3, 0.5)))
        inst_seed = int(rng.integers(2 ** 62))
        A = sample_bernoulli(m, n, p, inst_seed)
        exact = float(iv.prob_exact(A, s1, [0] * m))
        est = iv.prob_fourier_mc(A, s1, [0] * m, samples, child_seed(seed, 1, k))
        margin = max(3.0 * est.stderr, 1e-3) - abs(exact - est.value)
        if margin < worst:
            worst, worst_case = margin, {"m": m, "n": n, "p": p, "seed": inst_seed}
    rep.checks.append(CheckResult(
        "oracle_equivalence", passed=bool(worst >= 0.0), margin=float(worst),
        witness=worst_case,
        detail={"instances": instances, "samples": samples,
                "tolerance": "max(3 stderr, 1e-3)"}))

    # Nonzero lambda example and an unreachable lambda.
    A = IncidenceMatrix([[1, 1]])
    exact2 = iv.prob_exact(A, s1, [2])
    est2 = iv.prob_fourier_mc(A, s1, [2], samples // 4, child_seed(seed, 2))
    gap2 = abs(float(exact2) - est2.value)
    far_lam = iv.prob_fourier_mc(A, s1, [7], samples // 4, child_seed(seed, 3))
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
        re, im = iv.cancellation_check(tvec, cancellation_samples, child_seed(seed, 5, idx))
        margin = min(3 * re.stderr - abs(re.value), 3 * im.stderr - abs(im.value))
        worst_t = min(worst_t, margin)
    rep.checks.append(CheckResult(
        "cancellation", passed=bool(ok and worst_t >= 0.0), margin=float(worst_t),
        detail={"nonzero_vectors": 5, "samples": cancellation_samples}))

    # Even-parity shortcut vs the exact law under the parity smoother.
    worst = np.inf
    worst_case = None
    specials = [IncidenceMatrix(np.ones((2, 4), dtype=int)),   # all rows even
                IncidenceMatrix(np.ones((2, 3), dtype=int)),   # all rows odd
                IncidenceMatrix(np.zeros((2, 3), dtype=int))]
    for k in range(parity_instances):
        if k < len(specials):
            A = specials[k]
        else:
            A = sample_bernoulli(int(rng.integers(1, 4)), int(rng.integers(2, 11)),
                                 0.5, int(rng.integers(2 ** 62)))
        smoother = sm.ParitySmoother.from_matrix(A)
        exact = float(iv.prob_exact(A, smoother, [0] * A.m))
        est = iv.prob_even_variant(A, samples // 4, child_seed(seed, 6, k))
        margin = max(3.0 * est.stderr, 1e-3) - abs(exact - est.value)
        if margin < worst:
            worst, worst_case = margin, {"m": A.m, "n": A.n, "k": k}
    rep.checks.append(CheckResult(
        "even_parity_shortcut", passed=bool(worst >= 0.0), margin=float(worst),
        witness=worst_case, detail={"instances": parity_instances}))

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
    ea = iv.prob_fourier_mc(A, s1, [0, 0, 0], samples // 10, child_seed(seed, 10))
    eb = iv.prob_fourier_mc(B, s1, [0, 0, 0], samples // 10, child_seed(seed, 10))
    gap = abs(ea.value - eb.value)
    tol = 3.0 * math.hypot(ea.stderr, eb.stderr) + 1e-12
    rep.checks.append(CheckResult(
        "column_permutation_invariance", passed=bool(gap <= tol),
        margin=float(tol - gap), detail={"gap": gap}))

    rep.runtime_s = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# assembly suite
# ---------------------------------------------------------------------------


def suite_assembly(
    seed: int = 42,
    m: int = 4,
    p: float = 0.5,
    ns: Sequence[int] = (800, 1200, 1600),
    samples: int = 40000,
) -> SuiteReport:
    """Three-region split of the inversion integral on sampled instances:
    positive central mass, spike dominance, a negligible far region, and a
    growing central-to-far ratio as n grows."""
    t0 = time.time()
    rep = SuiteReport("assembly", seed)
    s1 = sm.build_pmf(1)

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

    rep.runtime_s = time.time() - t0
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


def run_suite(name: str, seed: int = 42, **sizes) -> SuiteReport:
    """Run one named suite; unknown names raise KeyError."""
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITE_NAMES)}")
    return SUITE_NAMES[name](seed=seed, **sizes)
