"""Experiment orchestration: the high-probability coloring regime at desk
scale and the tiny-instance counting probe.

Every output embeds the full configuration and root seed; per-trial work
is keyed by (seed, m, trial) streams so reruns reproduce byte-identical
numeric fields, and trials run in one loop in trial order.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from . import solvers as sv
from .rng import child_seed
from .setsystem import max_column_frequency, sample_bernoulli

__all__ = [
    "ExperimentConfig",
    "TrialRow",
    "TheoremExperimentReport",
    "run_theorem_experiment",
    "run_lowerbound_probe",
    "derived_n",
    "CSV_HEADER",
    "SIZE_CAP_N",
]

SIZE_CAP_N = 10 ** 7
CSV_HEADER = ["m", "n", "p", "C", "trial", "seed", "solver", "budget", "found", "disc", "flips"]


def derived_n(C: float, m: int) -> int:
    """n = ceil(C m^2 ln m); natural log, so m must be at least 2."""
    if m < 2:
        raise ValueError("the experiment regime needs m >= 2 (ln m vanishes at 1)")
    return int(math.ceil(C * m * m * math.log(m)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one regime experiment.

    n is always derived from (C, m); budget means random-walk trials for
    the random solver and per-restart flips for the local solver. threads
    is recorded in the configuration and has no effect: trials run one
    after another, since a thread pool over them gained nothing reliable,
    and no command-line flag sets it.
    """

    m_list: Sequence[int]
    C: float = 4.0
    p: float = 0.5
    trials: int = 100
    solver: str = "random"
    budget: int = 10 ** 6
    restarts: int = 50
    target: int = 1
    seed: int = 42
    threads: int = 1

    def __post_init__(self):
        if not self.m_list:
            raise ValueError("m_list must not be empty")
        if not (0.0 < self.C < math.inf):
            raise ValueError(f"C must be positive and finite, not {self.C}")
        if self.solver not in ("random", "local"):
            raise ValueError("solver must be 'random' or 'local'")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        if self.trials < 0 or self.budget < 1:
            raise ValueError("trials must be >= 0 and budget >= 1")
        if self.target < 0:
            raise ValueError("target must be nonnegative")
        for m in self.m_list:
            n = derived_n(self.C, m)
            if n > SIZE_CAP_N:
                raise ValueError(
                    f"derived n={n} for m={m} exceeds the size cap {SIZE_CAP_N}")

    def to_dict(self) -> dict:
        return {
            "m_list": list(self.m_list), "C": self.C, "p": self.p,
            "trials": self.trials, "solver": self.solver, "budget": self.budget,
            "restarts": self.restarts, "target": self.target,
            "seed": self.seed, "threads": self.threads,
        }


@dataclass(frozen=True)
class TrialRow:
    m: int
    n: int
    p: float
    C: float
    trial: int
    seed: int
    solver: str
    budget: int
    found: bool
    disc: Optional[int]
    flips: int

    def as_csv(self) -> List[str]:
        return [str(self.m), str(self.n), repr(self.p), repr(self.C),
                str(self.trial), str(self.seed), self.solver, str(self.budget),
                "1" if self.found else "0",
                "" if self.disc is None else str(self.disc), str(self.flips)]


@dataclass
class TheoremExperimentReport:
    config: dict
    rows: List[TrialRow]
    per_m: Dict[int, dict] = field(default_factory=dict)
    runtime_s: float = 0.0

    def to_dict(self) -> dict:
        flips = sum(row.flips for row in self.rows)
        return {
            "config": self.config,
            "per_m": {str(k): v for k, v in self.per_m.items()},
            "trials": len(self.rows),
            "runtime_s": round(self.runtime_s, 3),
            "flips": flips,
            "flips_per_s": round(flips / self.runtime_s) if self.runtime_s > 0 else None,
        }

    def write_csv(self, path: Union[str, Path, io.TextIOBase]) -> None:
        """UTF-8, LF line endings, one row per trial under the fixed header."""
        if isinstance(path, io.TextIOBase):
            self._write_csv_stream(path)
            return
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            self._write_csv_stream(fh)

    def _write_csv_stream(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            writer.writerow(row.as_csv())


def _run_one_trial(cfg: ExperimentConfig, m: int, n: int, trial: int):
    inst_seed = child_seed(cfg.seed, m, trial, 0)
    solver_seed = child_seed(cfg.seed, m, trial, 1)
    A = sample_bernoulli(m, n, cfg.p, inst_seed)
    freq_ok = max_column_frequency(A) <= 4.0 * cfg.p * m
    if cfg.solver == "random":
        res = sv.random_search(A, cfg.target, cfg.budget, solver_seed)
    else:
        res = sv.local_search(A, cfg.target, cfg.restarts, cfg.budget, solver_seed)
    row = TrialRow(m=m, n=n, p=cfg.p, C=cfg.C, trial=trial, seed=cfg.seed,
                   solver=cfg.solver, budget=cfg.budget, found=res.found,
                   disc=res.disc, flips=res.flips)
    return row, freq_ok


def run_theorem_experiment(cfg: ExperimentConfig) -> TheoremExperimentReport:
    """Sample `trials` instances per m, run the configured solver at the
    target discrepancy, and tabulate success rates and regime flags."""
    t0 = time.perf_counter()
    rows: List[TrialRow] = []
    per_m: Dict[int, dict] = {}
    for m in cfg.m_list:
        n = derived_n(cfg.C, m)
        results = [_run_one_trial(cfg, m, n, k) for k in range(cfg.trials)]
        m_rows = [row for row, _ in results]
        rows.extend(m_rows)
        successes = sum(r.found for r in m_rows)
        t_freq = cfg.p * m
        per_m[m] = {
            "n": n,
            "successes": successes,
            "trials": cfg.trials,
            "success_rate": successes / cfg.trials if cfg.trials else None,
            "mean_flips_on_success": (
                float(np.mean([r.flips for r in m_rows if r.found]))
                if successes else None),
            "regime_n_ok": True,  # n is derived as ceil(C m^2 ln m)
            "regime_t_ok": bool(t_freq >= cfg.C * math.log(n)),
            "t": t_freq,
            "freq_cap_violations": sum(not ok for _, ok in results),
        }
    return TheoremExperimentReport(
        config=cfg.to_dict(), rows=rows, per_m=per_m, runtime_s=time.perf_counter() - t0)


LOWERBOUND_MAX_N = 24


def run_lowerbound_probe(
    m: int,
    n: int,
    p: float,
    trials: int,
    seed: int = 42,
    kappa: float = 3.0,
) -> dict:
    """Exhaustive minimum-discrepancy statistics on tiny instances, against
    the counting upper bound 2^n (kappa delta / sqrt n)^m on the colorings
    of discrepancy at most delta = 1."""
    if n > LOWERBOUND_MAX_N:
        raise ValueError(f"probe requires n <= {LOWERBOUND_MAX_N}, got {n}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    delta = 1
    bound = sv.counting_bound(m, n, delta, kappa)
    # log2 of the bound, None when it is zero; the bound itself is reported
    # only while finite, since JSON has no infinity.
    log2_bound = (None if bound == 0.0 else
                  n + m * (math.log2(kappa) - 0.5 * math.log2(n)))
    histogram: Dict[int, int] = {}
    good_counts: List[int] = []
    for trial in range(trials):
        A = sample_bernoulli(m, n, p, child_seed(seed, trial))
        best, _ = sv.exhaustive_min_disc(A)
        histogram[best] = histogram.get(best, 0) + 1
        good_counts.append(sv.count_colorings_within(A, delta))
    at_most = sum(c for d, c in histogram.items() if d <= delta)
    mean_good = float(np.mean(good_counts)) if good_counts else None
    return {
        "m": m, "n": n, "p": p, "trials": trials, "seed": seed,
        "delta": delta, "kappa": kappa,
        "min_disc_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "prob_min_disc_at_most_delta": at_most / trials if trials else None,
        "mean_good_colorings": mean_good,
        "counting_bound": bound if bound < math.inf else None,
        "counting_bound_log2": log2_bound,
        "mean_within_bound": (None if mean_good is None else mean_good == 0.0 or (
            log2_bound is not None and math.log2(mean_good) <= log2_bound)),
    }
