import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import disclab as dl
from disclab import harness as hz
from disclab import inversion as iv
from disclab import suites
from disclab.cli import main
from disclab.setsystem import IncidenceMatrix


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_derived_n_uses_natural_log():
    assert hz.derived_n(4.0, 3) == 40  # ceil(36 ln 3)
    with pytest.raises(ValueError):
        hz.derived_n(4.0, 1)


def test_config_rejects_oversized_n():
    with pytest.raises(ValueError):
        hz.ExperimentConfig(m_list=[4000], C=100.0)
    with pytest.raises(ValueError):
        hz.ExperimentConfig(m_list=[], C=4.0)
    with pytest.raises(ValueError):
        hz.ExperimentConfig(m_list=[3], solver="sdp")
    with pytest.raises(ValueError, match="target must be nonnegative"):
        hz.ExperimentConfig(m_list=[3], target=-1)


def test_theorem_experiment_zero_trials():
    cfg = hz.ExperimentConfig(m_list=[3], trials=0)
    rep = hz.run_theorem_experiment(cfg)
    assert rep.rows == []
    assert rep.per_m[3]["success_rate"] is None


def test_runtimes_ignore_the_clock_stepping_back(monkeypatch):
    # time.time follows the system clock, which may be set back mid-run.
    ticks = itertools.count(0, -3600)
    monkeypatch.setattr(time, "time", lambda: float(next(ticks)))
    monkeypatch.setitem(suites.SUITE_NAMES, "smoothing",
                        lambda seed: suites.SuiteReport("smoothing", seed))
    assert suites.run_suite("smoothing", 42).runtime_s >= 0
    rep = hz.run_theorem_experiment(hz.ExperimentConfig(m_list=[3], trials=0))
    assert rep.runtime_s >= 0


def test_theorem_experiment_rows_and_regime_flags():
    cfg = hz.ExperimentConfig(m_list=[2, 3], trials=4, budget=20000, seed=5)
    rep = hz.run_theorem_experiment(cfg)
    assert len(rep.rows) == 8
    assert rep.per_m[3]["n"] == 40
    assert rep.per_m[3]["regime_n_ok"]
    # t = 1.5 < 4 ln 40: the frequency condition fails at desk scale and is
    # reported, not enforced
    assert not rep.per_m[3]["regime_t_ok"]


def test_theorem_experiment_reproducible_across_threads(tmp_path):
    cfg1 = hz.ExperimentConfig(m_list=[3], trials=6, budget=20000, seed=9, threads=1)
    cfg4 = hz.ExperimentConfig(m_list=[3], trials=6, budget=20000, seed=9, threads=4)
    r1 = hz.run_theorem_experiment(cfg1)
    r4 = hz.run_theorem_experiment(cfg4)
    p1, p4 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.write_csv(p1)
    r4.write_csv(p4)
    assert p1.read_bytes() == p4.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "m,n,p,C,trial,seed,solver,budget,found,disc,flips"
    d1, d4 = r1.to_dict(), r4.to_dict()
    assert d1["flips"] == d4["flips"] == sum(row.flips for row in r1.rows) > 0
    for d in (d1, d4):
        assert d["flips_per_s"] > 0


def test_success_rate_monotone_in_n():
    # fixed (m, p, solver, budget), 3-point n grid, 2 binomial stderr slack
    m, p, trials, budget = 3, 0.5, 40, 3000
    rates = []
    for n in (12, 24, 48):
        hits = 0
        for k in range(trials):
            A = dl.sample_bernoulli(m, n, p, dl.rng.child_seed(17, n, k))
            hits += dl.random_search(A, 1, budget, dl.rng.child_seed(18, n, k)).found
        rates.append(hits / trials)
    se = math.sqrt(0.25 / trials)
    assert rates[1] >= rates[0] - 2 * se
    assert rates[2] >= rates[1] - 2 * se


def test_lowerbound_probe():
    rep = hz.run_lowerbound_probe(10, 10, 0.5, trials=20, seed=3)
    assert sum(rep["min_disc_histogram"].values()) == 20
    assert rep["mean_within_bound"] is True
    assert rep["counting_bound"] == pytest.approx(dl.counting_bound(10, 10, 1, 3.0))
    # opposite regime: a single wide set almost always reaches disc <= 1
    easy = hz.run_lowerbound_probe(1, 24, 0.5, trials=20, seed=4)
    assert easy["prob_min_disc_at_most_delta"] >= 0.95
    with pytest.raises(ValueError):
        hz.run_lowerbound_probe(2, 25, 0.5, trials=1)


def test_cli_gen_and_disc_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, _ = run_cli(["gen", "--m", "3", "--n", "12", "--p", "0.5",
                       "--seed", "7", "--out", str(inst)], capsys)
    assert code == 0
    A = IncidenceMatrix.load(inst)
    assert (A.m, A.n) == (3, 12)
    assert A == dl.sample_bernoulli(3, 12, 0.5, 7)

    code, out = run_cli(["disc", "--in", str(inst), "--solver", "exhaustive",
                         "--target", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    x = dl.Coloring.from_string(payload["coloring"])
    assert dl.disc_of_coloring(A, x) == payload["disc"] <= 1

    code, out = run_cli(["disc", "--in", str(inst), "--solver", "random",
                         "--target", "1", "--budget", "100000", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] and payload["flips_used"] >= 0


def test_cli_disc_reports_miss_with_failure_exit(tmp_path, capsys):
    inst = tmp_path / "odd.json"
    IncidenceMatrix([[1]]).save(inst)
    code, out = run_cli(["disc", "--in", str(inst), "--solver", "random",
                         "--target", "0", "--budget", "64", "--seed", "1"], capsys)
    assert code == 1
    assert json.loads(out)["found"] is False


def test_cli_invert_exact_and_mc(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    IncidenceMatrix([[1, 1]]).save(inst)
    code, out = run_cli(["invert", "--in", str(inst), "--delta", "1",
                         "--lambda", "0", "--samples", "100000",
                         "--seed", "42", "--exact"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "1/4"
    assert abs(payload["estimate"]["value"] - 0.25) <= max(
        3 * payload["estimate"]["stderr"], 1e-3)
    assert payload["estimate"]["samples"] == 100000


def test_cli_invert_exact_at_n24(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    A = dl.sample_bernoulli(3, 24, 0.5, 12)
    A.save(inst)
    code, out = run_cli(["invert", "--in", str(inst), "--delta", "1",
                         "--lambda", "0,0,0", "--samples", "4096",
                         "--seed", "3", "--exact"], capsys)
    assert code == 0
    assert json.loads(out)["exact"] == str(dl.prob_exact(A, dl.build_pmf(1), [0, 0, 0]))


def test_cli_fourier_eval(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    IncidenceMatrix([[1, 0], [0, 1]]).save(inst)
    code, out = run_cli(["fourier", "eval", "--in", str(inst),
                         "--theta", "0.125,0.0", "--delta", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dhat"] == pytest.approx(math.cos(math.pi / 4))
    assert payload["xhat"] == pytest.approx(
        math.cos(math.pi / 4) * (0.5 + 0.5 * math.cos(math.pi / 4)))


def test_cli_verify_suite(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _ = run_cli(["verify", "--suite", "gaussian", "--seed", "42",
                       "--out", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["suite"] == "gaussian"
    assert report["failures"] == 0
    assert report["checks_run"] > 0
    assert {"name", "passed"} <= set(report["checks"][0])


def test_cli_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_cli_usage_error_no_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_experiment_theorem_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, out = run_cli([
        "experiment", "theorem", "--m-list", "3", "--trials", "5",
        "--budget", "50000", "--seed", "11", "--csv", str(csv_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["per_m"]["3"]["n"] == 40
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 6
    assert lines[1].startswith("3,40,0.5,4.0,0,11,random,50000,")
    # rerun reproduces byte-identical output
    code, _ = run_cli([
        "experiment", "theorem", "--m-list", "3", "--trials", "5",
        "--budget", "50000", "--seed", "11", "--csv", str(tmp_path / "rows2.csv")], capsys)
    assert (tmp_path / "rows2.csv").read_bytes() == csv_path.read_bytes()


def test_cli_experiment_lowerbound(capsys):
    code, out = run_cli(["experiment", "lowerbound", "--m", "4", "--n", "8",
                         "--p", "0.5", "--trials", "5", "--seed", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 5
    assert "counting_bound" in payload


def _refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("args, bound, within", [
    (["--m", "2", "--n", "4", "--kappa", "1e308"], None, True),
    (["--m", "10", "--n", "24", "--kappa", "1e40"], None, True),
    (["--m", "2", "--n", "4", "--kappa", "0"], 0.0, False),
])
def test_cli_experiment_lowerbound_prints_valid_json(capsys, args, bound, within):
    # An overflowing or a zero counting bound used to print Infinity or
    # compare against it; the probe reports the bound's log2 instead.
    code, out = run_cli(["experiment", "lowerbound", "--trials", "1"] + args, capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert payload["counting_bound"] == bound
    m, n, kappa = int(args[1]), int(args[3]), float(args[5])
    if kappa:
        assert payload["counting_bound_log2"] == pytest.approx(
            n + m * (math.log2(kappa) - 0.5 * math.log2(n)))
        assert payload["counting_bound_log2"] > 1024
    else:
        assert payload["counting_bound_log2"] is None
    assert payload["mean_good_colorings"] > 0
    assert payload["mean_within_bound"] is within


def test_lowerbound_probe_log2_bound_matches_the_bound():
    rep = hz.run_lowerbound_probe(4, 8, 0.5, trials=3, seed=2)
    assert 2.0 ** rep["counting_bound_log2"] == pytest.approx(rep["counting_bound"], rel=1e-12)
    assert rep["mean_within_bound"] is (rep["mean_good_colorings"] <= rep["counting_bound"])


def test_cli_oversized_config_is_usage_error(capsys):
    code = main(["experiment", "theorem", "--m-list", "4000", "--C", "100",
                 "--trials", "1"])
    assert code == 2


def test_console_script_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(dl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "disclab.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "disclab" in proc.stdout


@pytest.mark.parametrize("exc, line", [
    (RuntimeError("imaginary part 2.8e-03 exceeds 3 stderr 8.8e-04"),
     "error: imaginary part 2.8e-03 exceeds 3 stderr 8.8e-04\n"),
    (MemoryError("Unable to allocate 9.77 GiB"), "error: Unable to allocate 9.77 GiB\n"),
    (MemoryError(), "error: MemoryError\n"),
])
def test_cli_runtime_failure_exits_1_with_one_line(tmp_path, capsys, monkeypatch, exc, line):
    inst = tmp_path / "inst.json"
    IncidenceMatrix([[1, 1]]).save(inst)

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(iv, "prob_fourier_mc", fail)
    code = main(["invert", "--in", str(inst), "--samples", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == line
    assert captured.out == ""


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("args", [
    ["invert", "--lambda", "0,x", "--samples", "100"],
    ["experiment", "theorem", "--m-list", "3,x", "--trials", "1"],
])
def test_cli_malformed_vector_is_usage_error(tmp_path, capsys, args):
    inst = tmp_path / "inst.json"
    IncidenceMatrix([[1, 1], [0, 1]]).save(inst)
    if args[0] == "invert":
        args = args + ["--in", str(inst)]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert _one_error_line(captured.err), captured.err
    assert "could not parse vector" in captured.err
    assert captured.out == ""


_GOOD = IncidenceMatrix([[1, 0, 1], [0, 1, 1]]).to_dict()


@pytest.mark.parametrize("doc, message", [
    ([_GOOD], "must be a JSON object"),
    (dict(_GOOD, rows=None), "rows must be a list of hex strings"),
    (dict(_GOOD, rows=[1, 2]), "rows must be a list of hex strings"),
    (dict(_GOOD, p=7), "outside [0, 1]"),
    (dict(_GOOD, m=None), "field 'm' must be an integer, not null"),
    (dict(_GOOD, m=True), "field 'm' must be an integer, not true"),
    (dict(_GOOD, n=2.5), "field 'n' must be an integer, not 2.5"),
    (dict(_GOOD, n=[3]), "field 'n' must be an integer, not [3]"),
    (dict(_GOOD, seed=[1]), "field 'seed' must be an integer, not [1]"),
    (dict(_GOOD, seed=False), "field 'seed' must be an integer, not false"),
    (dict(_GOOD, seed=2.5), "field 'seed' must be an integer, not 2.5"),
    (dict(_GOOD, n=-4), "field 'n' must be at least 1, not -4"),
    (dict(_GOOD, m=0, rows=[]), "field 'm' must be at least 1, not 0"),
    (dict(_GOOD, p=[1]), "field 'p' must be a number, not [1]"),
    (dict(_GOOD, p="0.5"), "field 'p' must be a number, not \"0.5\""),
    (dict(_GOOD, p=True), "field 'p' must be a number, not true"),
])
@pytest.mark.parametrize("command", [
    ["invert", "--samples", "100"],
    ["fourier", "eval", "--theta", "0.1,0.0"],
    ["disc", "--solver", "exhaustive"],
])
def test_cli_malformed_instance_is_usage_error(tmp_path, capsys, doc, message, command):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    code = main(command + ["--in", str(inst)])
    captured = capsys.readouterr()
    assert code == 2
    assert _one_error_line(captured.err), captured.err
    assert message in captured.err
    assert captured.out == ""


def test_instance_seed_may_be_null_or_negative():
    for seed in (None, -3, 0, 2 ** 70):
        assert IncidenceMatrix.from_dict(dict(_GOOD, seed=seed)).meta.seed == seed


def test_instance_p_bounds_are_inclusive():
    for p in (0.0, 1.0):
        assert IncidenceMatrix.from_dict(dict(_GOOD, p=p)).meta.p == p


def test_cli_fourier_parity_and_delta_are_exclusive(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    IncidenceMatrix([[1, 0], [0, 1]]).save(inst)
    with pytest.raises(SystemExit) as exc:
        main(["fourier", "eval", "--in", str(inst), "--theta", "0.1,0.0",
              "--parity", "--delta", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "not allowed with argument" in errors[0]
    assert captured.out == ""


def test_cli_invert_large_n_in_bounded_memory(tmp_path):
    # m=4, n=20000 under a 1.5 GB address-space cap on the child only: the
    # transform must not hold a samples x n block (65536 x 20000 doubles is
    # 9.8 GiB). One BLAS thread keeps the cap independent of the core count.
    resource = pytest.importorskip("resource")
    limit = 1536 * 2 ** 20
    inst = tmp_path / "inst.json"
    dl.sample_bernoulli(4, 20000, 0.5, 1).save(inst)
    env = dict(os.environ, PYTHONPATH=str(Path(dl.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "disclab.cli", "invert", "--in", str(inst),
         "--lambda", "0,0,0,0", "--samples", "100000"],
        capture_output=True, text=True, env=env, timeout=600,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["estimate"]["samples"] == 100000


def test_cli_invert_exact_in_bounded_memory(tmp_path):
    # m=10, n=21 under a 384 MB address-space cap on the child only. The law
    # of A x has 1.6 M values here. Held as a dict of tuples, it took the
    # process to 515 MB of address space; kept as arrays, of which only the
    # values that can reach lambda are walked, it takes 225 MB. One BLAS
    # thread, and 16 samples keep the transform on the calling thread, so
    # the cap does not depend on the core count.
    resource = pytest.importorskip("resource")
    limit = 384 * 2 ** 20
    inst = tmp_path / "inst.json"
    dl.sample_bernoulli(10, 21, 0.5, 12).save(inst)
    env = dict(os.environ, PYTHONPATH=str(Path(dl.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "disclab.cli", "invert", "--in", str(inst),
         "--lambda", ",".join(["0"] * 10), "--samples", "16", "--exact"],
        capture_output=True, text=True, env=env, timeout=600,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["exact"] is not None


def _readme_commands(*prefixes):
    """Command lines of the README's command-line example that start with a prefix."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith(prefixes)]


def test_readme_command_line_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands("disclab gen", "disclab invert", "disclab fourier",
                                "disclab disc --in small.json")
    assert len(commands) == 6
    for argv in commands:
        argv = argv[1:]
        if "--samples" in argv:
            argv[argv.index("--samples") + 1] = "4096"
        assert main(argv) == 0, argv
        capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["disc", "--solver", "random", "--budget", "1000"],
    ["disc", "--solver", "local", "--budget", "1000"],
    ["disc", "--solver", "exhaustive"],
    ["experiment", "theorem", "--m-list", "3", "--trials", "2", "--budget", "1000"],
])
def test_cli_negative_target_is_usage_error(tmp_path, capsys, command):
    inst = tmp_path / "inst.json"
    IncidenceMatrix([[1, 0, 1], [0, 1, 1]]).save(inst)
    if command[0] == "disc":
        command = command + ["--in", str(inst)]
    code = main(command + ["--target", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert _one_error_line(captured.err), captured.err
    assert "target must be nonnegative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, message", [
    (["experiment", "theorem", "--C", "inf"], "C must be positive and finite, not inf"),
    (["experiment", "theorem", "--C", "nan"], "C must be positive and finite, not nan"),
    (["experiment", "theorem", "--C", "-1"], "C must be positive and finite, not -1.0"),
    (["experiment", "theorem", "--C", "0"], "C must be positive and finite, not 0.0"),
    (["experiment", "lowerbound", "--kappa", "nan"], "kappa must be finite and nonnegative, not nan"),
    (["experiment", "lowerbound", "--kappa", "inf"], "kappa must be finite and nonnegative, not inf"),
    (["experiment", "lowerbound", "--kappa", "-1"], "kappa must be finite and nonnegative, not -1.0"),
])
def test_cli_bad_experiment_constant_is_usage_error(capsys, command, message):
    if command[1] == "theorem":
        command = command + ["--m-list", "3", "--trials", "1", "--budget", "10"]
    else:
        command = command + ["--m", "2", "--n", "4", "--trials", "1"]
    code = main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--m", "2", "--n", "4", "--p", "0.5", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_harness_import_leaves_suites_unloaded():
    code = "import sys, disclab.harness; print('disclab.suites' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(dl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_failed_witness_check_exits_1(tmp_path, capsys, monkeypatch):
    # a witness that does not reach the enumerated minimum is an internal
    # error, raised as RuntimeError also under python -O
    inst = tmp_path / "inst.json"
    IncidenceMatrix([[1, 1, 0], [0, 1, 1]]).save(inst)
    monkeypatch.setattr(dl.solvers, "_coloring_from_gray_index",
                        lambda A, index: dl.Coloring([1] * A.n))
    code = main(["disc", "--in", str(inst), "--solver", "exhaustive"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: internal error: witness fails independent verification\n"
    assert captured.out == ""
