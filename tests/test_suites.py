"""The repository gate: every named suite runs clean at default sizes."""

import inspect
import json

import pytest

from disclab import fourier as fr
from disclab import harness as hz
from disclab import smoothing as sm
from disclab import suites


@pytest.mark.parametrize("name", sorted(suites.SUITE_NAMES))
def test_suite_green_on_default_seed(name, seed42_suite):
    rep = seed42_suite(name)
    assert rep.ok, [c.to_dict() for c in rep.failures]
    assert rep.checks_run > 0
    # reports serialize cleanly and carry reproducible witnesses
    payload = json.dumps(rep.to_dict())
    assert name in payload


def test_suites_take_only_a_seed():
    # Fixed sizes: the seed-42 reports the acceptance gate reads are the
    # ones every caller gets.
    for fn in suites.SUITE_NAMES.values():
        params = inspect.signature(fn).parameters
        assert list(params) == ["seed"] and params["seed"].default == 42, fn.__name__
    assert list(inspect.signature(suites.run_suite).parameters) == ["name", "seed"]


def test_checkers_take_no_tuning_parameters():
    # The suites report the constants these checks run at; no caller sets
    # another, so none is a parameter.
    empty = inspect.Parameter.empty
    expected = {
        fr.spike_dominance_x: [("A", empty), ("smoothing", empty), ("theta", empty)],
        sm.check_rhat_bounds: [("delta", empty), ("theta", empty)],
        fr.check_quadratic_approx: [("A", empty), ("theta", empty)],
        fr.decay_bound_summary: [("theta", empty), ("p", empty)],
        hz.run_lowerbound_probe: [("m", empty), ("n", empty), ("p", empty),
                                  ("trials", empty), ("seed", 42)],
        sm.half_lattice_points: [("m", empty)],
    }
    for fn, params in expected.items():
        got = [(q.name, q.default) for q in inspect.signature(fn).parameters.values()]
        assert got == params, fn.__name__


def test_unknown_suite_name():
    with pytest.raises(KeyError):
        suites.run_suite("nonsense")


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 42])
@pytest.mark.parametrize("name", ["smoothing", "gaussian", "fourier"])
def test_cheap_suites_stable_across_seeds(name, seed, seed42_suite):
    rep = seed42_suite(name) if seed == 42 else suites.run_suite(name, seed=seed)
    assert rep.ok, [c.to_dict() for c in rep.failures]


def test_smoothing_report_shape(seed42_suite):
    rep = seed42_suite("smoothing")
    entries = [c.to_dict() for c in rep.checks if "bound" in (c.detail or {})]
    assert entries
    for entry in entries:
        assert {"bound", "domain", "worst_margin", "worst_point"} <= set(entry)
