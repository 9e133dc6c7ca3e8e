"""Command-line front door.

Subcommands: gen, disc, invert, fourier, verify, experiment. Global flags
--seed and --out are accepted by every subcommand.
Exit codes: 0 success, 1 check failure or runtime error (RuntimeError,
MemoryError), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import fourier as fr
from . import harness as hz
from . import inversion as iv
from . import smoothing as sm
from . import solvers as sv
from .setsystem import IncidenceMatrix, sample_bernoulli
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=42, help="root RNG seed (default 42)")
    sub.add_argument("--out", type=str, default=None, help="output file (default stdout)")


def _emit(payload, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_vector(text: str, kind=float) -> np.ndarray:
    """A comma-separated vector of finite numbers; ValueError otherwise."""
    try:
        vec = np.array([kind(part) for part in text.split(",") if part != ""],
                       dtype=np.int64 if kind is int else np.float64)
    except (ValueError, OverflowError) as exc:  # OverflowError: past int64
        raise ValueError(f"could not parse vector {text!r}: {exc}") from None
    if not np.isfinite(vec).all():  # NaN would print as JSON's invalid NaN
        raise ValueError(f"vector {text!r} has a non-finite coordinate")
    return vec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disclab",
        description="Discrepancy of random set systems: transforms, inversion, search.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="sample an incidence matrix to a JSON instance")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, required=True)
    _common_flags(gen)

    disc = subs.add_parser("disc", help="search a low-discrepancy coloring")
    disc.add_argument("--in", dest="infile", required=True, help="instance JSON")
    disc.add_argument("--solver", choices=("exhaustive", "random", "local"), required=True)
    disc.add_argument("--target", type=int, default=1)
    disc.add_argument("--budget", type=int, default=10 ** 6,
                      help="trials (random) or per-restart flips (local)")
    disc.add_argument("--restarts", type=int, default=50)
    _common_flags(disc)

    inv = subs.add_parser("invert", help="point probability of the smoothed discrepancy")
    inv.add_argument("--in", dest="infile", required=True)
    inv.add_argument("--delta", type=int, default=1)
    inv.add_argument("--lambda", dest="lam", default=None,
                     help="comma-separated integer vector, e.g. 0,0,0 (default: zero)")
    inv.add_argument("--samples", type=int, default=10 ** 6)
    inv.add_argument("--exact", action="store_true",
                     help="also compute the exact law (n <= 24): an integer dynamic "
                          "program over column types whose cost grows with the "
                          "number of distinct A x values")
    _common_flags(inv)

    fo = subs.add_parser("fourier", help="transform evaluation")
    fo_subs = fo.add_subparsers(dest="fourier_command", required=True)
    ev = fo_subs.add_parser("eval", help="evaluate dhat/xhat at one theta")
    ev.add_argument("--in", dest="infile", required=True)
    ev.add_argument("--theta", required=True, help="comma-separated coordinates")
    smoother = ev.add_mutually_exclusive_group()
    smoother.add_argument("--delta", type=int, default=None,
                          help="smoother width for xhat (omit for dhat only)")
    smoother.add_argument("--parity", action="store_true",
                          help="use the parity smoother for xhat")
    _common_flags(ev)

    ver = subs.add_parser("verify", help="run a named verification suite")
    ver.add_argument("--suite", required=True, choices=sorted(SUITE_NAMES))
    _common_flags(ver)

    exp = subs.add_parser("experiment", help="regime experiments")
    exp_subs = exp.add_subparsers(dest="experiment_command", required=True)

    th = exp_subs.add_parser("theorem", help="coloring success rates in the n ~ C m^2 ln m regime")
    th.add_argument("--m-list", required=True, help="comma-separated m values, e.g. 3,4,5")
    th.add_argument("--C", type=float, default=4.0)
    th.add_argument("--p", type=float, default=0.5)
    th.add_argument("--trials", type=int, default=100)
    th.add_argument("--solver", choices=("random", "local"), default="random")
    th.add_argument("--budget", type=int, default=10 ** 6)
    th.add_argument("--restarts", type=int, default=50)
    th.add_argument("--target", type=int, default=1)
    th.add_argument("--csv", type=str, default=None, help="write per-trial CSV here")
    _common_flags(th)

    lb = exp_subs.add_parser("lowerbound", help="exhaustive statistics on tiny instances")
    lb.add_argument("--m", type=int, required=True)
    lb.add_argument("--n", type=int, required=True)
    lb.add_argument("--p", type=float, default=0.5)
    lb.add_argument("--trials", type=int, default=50)
    lb.add_argument("--kappa", type=float, default=3.0)
    _common_flags(lb)

    return parser


def _cmd_gen(args) -> int:
    A = sample_bernoulli(args.m, args.n, args.p, args.seed)
    _emit(A.to_dict(), args.out)
    return EXIT_OK


def _cmd_disc(args) -> int:
    A = IncidenceMatrix.load(args.infile)
    if args.solver == "exhaustive":
        if args.target < 0:
            raise ValueError("target must be nonnegative")
        best, witness = sv.exhaustive_min_disc(A)
        found = best <= args.target
        payload = {"found": found, "disc": best,
                   "coloring": witness.to_string(), "flips_used": 0}
    else:
        if args.solver == "random":
            res = sv.random_search(A, args.target, args.budget, args.seed)
        else:
            res = sv.local_search(A, args.target, args.restarts, args.budget, args.seed)
        payload = {
            "found": res.found,
            "disc": res.disc,
            "coloring": None if res.coloring is None else res.coloring.to_string(),
            "flips_used": res.flips,
        }
    _emit(payload, args.out)
    return EXIT_OK if payload["found"] else EXIT_CHECK_FAILED


def _cmd_invert(args) -> int:
    A = IncidenceMatrix.load(args.infile)
    if args.lam is None:
        lam = np.zeros(A.m, dtype=int)
    else:
        lam = _parse_vector(args.lam, kind=int)
    spec = sm.build_pmf(args.delta)
    # The exact query first: its n > 24 refusal then costs no Monte Carlo.
    exact = iv.prob_exact(A, spec, lam) if args.exact else None
    estimate = iv.prob_fourier_mc(A, spec, lam, args.samples, args.seed)
    point = iv.PointProbability(lam=tuple(int(v) for v in lam),
                                exact=exact, estimate=estimate)
    _emit(point.to_dict(), args.out)
    return EXIT_OK


def _cmd_fourier(args) -> int:
    A = IncidenceMatrix.load(args.infile)
    theta = _parse_vector(args.theta)
    payload = {"theta": theta.tolist(), "dhat": fr.dhat(A, theta)}
    if args.parity:
        smoother = sm.ParitySmoother.from_matrix(A)
        payload["xhat"] = fr.xhat(A, smoother, theta)
        payload["smoother"] = {"kind": "parity", "odd_rows": list(smoother.odd_rows)}
    elif args.delta is not None:
        payload["xhat"] = fr.xhat(A, sm.build_pmf(args.delta), theta)
        payload["smoother"] = {"kind": "width", "delta": args.delta}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_experiment_theorem(args) -> int:
    m_list = [int(v) for v in _parse_vector(args.m_list, kind=int)]
    cfg = hz.ExperimentConfig(
        m_list=m_list, C=args.C, p=args.p, trials=args.trials,
        solver=args.solver, budget=args.budget, restarts=args.restarts,
        target=args.target, seed=args.seed)
    report = hz.run_theorem_experiment(cfg)
    if args.csv:
        report.write_csv(args.csv)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_experiment_lowerbound(args) -> int:
    report = hz.run_lowerbound_probe(
        args.m, args.n, args.p, args.trials, seed=args.seed, kappa=args.kappa)
    _emit(report, args.out)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "disc":
            return _cmd_disc(args)
        if args.command == "invert":
            return _cmd_invert(args)
        if args.command == "fourier":
            return _cmd_fourier(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "experiment":
            if args.experiment_command == "theorem":
                return _cmd_experiment_theorem(args)
            return _cmd_experiment_lowerbound(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (RuntimeError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return EXIT_CHECK_FAILED
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
