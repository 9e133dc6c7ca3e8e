"""Benchmark of disclab: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload regime_invert --seed 1 --seconds 30 --trace 0

Set-up (importing disclab, sampling the instances and passing them
through the JSON instance format) is timed in fresh child processes and
reported as a median. The timed phase then runs whole rounds of the
workload's operations, at least two, until the next round would end
after ``--seconds``. The outputs of each round are checked against
``references`` after the round, outside its timing.
With ``--trace 1`` the layer functions are wrapped (see ``tracing``) and
the per-layer figures are printed instead of the end-to-end ones. The
last line of standard output is the result; a copy, with the spans of a
traced run, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11
MIN_ROUNDS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def with_units(values: dict, declared: list) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match exactly."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} != declared {sorted(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from tracing import Tracer, layer_metrics

    if args.workload not in wl.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}\n")
        return 2
    try:
        dl = wl.locate_disclab(ROOT)
    except ImportError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    work = wl.WORKLOADS[args.workload]
    setup_s = setup_seconds(work.name, args.seed)

    tracer = Tracer()
    if args.trace:
        tracer.install(dl)
    shapes = work.shapes(args.seed)
    for k in range(SETUP_REPEATS):
        tracer.phase = f"setup:{k}"
        insts = wl.build(dl, shapes)
        tracer.phase = None
    ops = work.ops(dl, insts, args.seed)

    attempted = failed = 0
    problems = []
    round_times = []
    mc_rates = []
    op_seconds = {}
    start = time.perf_counter()
    while True:
        tracer.phase = f"round:{len(round_times)}"
        records = []
        t_round = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an operation that raises counts as failed
                result = exc
            records.append((op, result, time.perf_counter() - t0))
        round_times.append(time.perf_counter() - t_round)
        tracer.phase = None
        # outside the timed round: check this round's outputs, then drop them
        mc_points = 0
        mc_time = 0.0
        for op, result, dt in records:
            attempted += 1
            op_seconds[op.name] = op_seconds.get(op.name, 0.0) + dt
            if isinstance(result, Exception):
                problem = f"raised {type(result).__name__}: {result}"
            else:
                problem = op.check(result)
                if op.samples is not None:
                    mc_points += op.samples(result)
                    mc_time += dt
            if problem is not None:
                failed += 1
                if op.known_fault is None:
                    problems.append(f"{op.name}: {problem}")
        if mc_time > 0:
            mc_rates.append(mc_points / mc_time)
        del records, result
        elapsed = time.perf_counter() - start
        if len(round_times) >= MIN_ROUNDS and elapsed + statistics.median(round_times) > args.seconds:
            break
    tracer.uninstall()
    for line in dict.fromkeys(problems):
        sys.stderr.write(f"check failed: {line}\n")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = with_units(layer_metrics(tracer.spans), spec["per_layer"])
    else:
        metrics = with_units({
            "setup_s": setup_s,
            "wall_s": statistics.median(round_times),
            "peak_rss_mb": peak_rss_mb(),
            "mc_samples_per_s": statistics.median(mc_rates),
        }, spec["end_to_end"])
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    detail = dict(result, workload=work.name, seed=args.seed, rounds=round_times,
                  problems=problems,
                  op_seconds={k: v / len(round_times) for k, v in op_seconds.items()})
    if args.trace:
        detail["spans"] = [s.to_dict() for s in tracer.spans]
    (out_dir / f"{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
