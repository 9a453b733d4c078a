import contextlib
import copy
import functools
import importlib
import inspect
import io
import json
import operator
import re
import typing
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframe import scenarios as S
from opframe.cli import main
from opframe.errors import InvalidScenario
from opframe.scenarios import (
    REPRODUCE_NAMES,
    load_bundled,
    load_schema,
    run_scenario,
    validate_scenario,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    """The benchmark's workloads module, which makes the scenario_stream scenarios."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads")


@pytest.fixture
def tiny_scenario():
    return {
        "name": "tiny",
        "seed": 0,
        "construction": {"name": "difference", "params": {"d": 20}},
        "checks": [
            {"name": "partial_sum_identity", "tolerance": 1e-12},
            {"name": "strong_residual_min", "tolerance": 0.5},
        ],
    }


class TestSchema:
    def test_schema_document_is_valid_jsonschema(self):
        jsonschema.Draft202012Validator.check_schema(load_schema())

    def test_all_bundled_scenarios_validate(self):
        for name in REPRODUCE_NAMES:
            validate_scenario(load_bundled(name))

    def test_unknown_check_rejected(self, tiny_scenario):
        tiny_scenario["checks"][0]["name"] = "nonsense"
        with pytest.raises(InvalidScenario):
            validate_scenario(tiny_scenario)

    def test_nonpositive_tolerance_rejected(self, tiny_scenario):
        tiny_scenario["checks"][0]["tolerance"] = 0.0
        with pytest.raises(InvalidScenario):
            validate_scenario(tiny_scenario)

    def test_unknown_construction_rejected(self, tiny_scenario):
        tiny_scenario["construction"]["name"] = "nonsense"
        with pytest.raises(InvalidScenario):
            validate_scenario(tiny_scenario)

    def test_bundled_and_benchmark_stream_scenarios_validate(self):
        """The bundled files and every scenario the benchmark's scenario_stream
        makes for seeds 0-9 validate; the benchmark counts a rejected one as a
        failed operation."""
        workloads = _workloads()
        stream = [data for seed in range(10)
                  for _, data in workloads.ScenarioStream(seed, None).ops]
        assert stream
        for data in [load_bundled(name) for name in REPRODUCE_NAMES] + stream:
            validate_scenario(data)


class TestRunCommand:
    def test_passing_scenario_exits_zero(self, tmp_path, tiny_scenario):
        f = tmp_path / "tiny.json"
        f.write_text(json.dumps(tiny_scenario))
        out = tmp_path / "report.json"
        assert main(["run", str(f), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["scenario"] == "tiny"
        assert all(c["pass"] for c in report["checks"])

    def test_failing_check_exits_one_and_writes_report(self, tmp_path, tiny_scenario):
        # an unreachably small tolerance forces a measured-value failure
        # (the weak certificate carries a genuine ~1e-15 rounding residual)
        tiny_scenario["checks"][0] = {"name": "weak_certificate", "tolerance": 1e-30}
        f = tmp_path / "tiny.json"
        f.write_text(json.dumps(tiny_scenario))
        out = tmp_path / "report.json"
        assert main(["run", str(f), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        failed = [c for c in report["checks"] if not c["pass"]]
        assert failed and failed[0]["value"] > 0

    def test_malformed_json_exits_two(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        assert main(["run", str(f)]) == 2

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"x"'])
    def test_non_object_json_exits_two(self, tmp_path, capsys, text):
        f = tmp_path / "bad.json"
        f.write_text(text)
        assert main(["run", str(f)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_schema_violation_exits_two(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"name": "x"}))
        assert main(["run", str(f)]) == 2

    def test_tolerance_override_scales(self, tmp_path, tiny_scenario, monkeypatch):
        tiny_scenario["checks"] = [
            {"name": "weak_certificate", "tolerance": 1e-30}
        ]
        f = tmp_path / "tiny.json"
        f.write_text(json.dumps(tiny_scenario))
        out = tmp_path / "report.json"
        assert main(["run", str(f), "--out", str(out)]) == 1
        monkeypatch.setenv("OPFRAME_TOL_OVERRIDE", "1e20")
        assert main(["run", str(f), "--out", str(out)]) == 0

    def test_negative_seed_exits_two(self, tmp_path, tiny_scenario):
        f = tmp_path / "tiny.json"
        f.write_text(json.dumps(tiny_scenario))
        out = tmp_path / "report.json"
        assert main(["run", str(f), "--out", str(out), "--seed", "-1"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["nan", "-1"])
    def test_invalid_tolerance_override_exits_two(
        self, tmp_path, tiny_scenario, monkeypatch, raw
    ):
        f = tmp_path / "tiny.json"
        f.write_text(json.dumps(tiny_scenario))
        out = tmp_path / "report.json"
        monkeypatch.setenv("OPFRAME_TOL_OVERRIDE", raw)
        assert main(["run", str(f), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("construction", [
        {"name": "parseval_family", "params": {"sizes": [4, 8]}},
        {"name": "difference", "params": {"d": 20}},
        {"name": "multiplier", "params": {"d": 8}},
    ])
    def test_diff_operator_without_grid_exits_two(self, tmp_path, capsys, construction):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({
            "name": "no_grid",
            "construction": construction,
            "operator": {"name": "diff_minus_i_H1"},
            "checks": [{"name": "self_adjoint_gap", "tolerance": 1.0}],
        }))
        assert main(["run", str(f), "--out", str(tmp_path / "r.json")]) == 2
        assert "'diff_minus_i_H1' needs a construction with a grid" in capsys.readouterr().err

    def test_diff_operator_on_coarse_grid_exits_two(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({
            "name": "coarse",
            "construction": {"name": "exponential", "params": {"d": 8}},
            "operator": {"name": "diff_ddx_periodic"},
            "checks": [{"name": "self_adjoint_gap", "tolerance": 1.0}],
        }))
        assert main(["run", str(f), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "'diff_ddx_periodic'" in err and "at least 16 grid points" in err

    @pytest.mark.parametrize("ranges", [[], [20]])
    def test_decomposition_monotone_with_fewer_than_two_ranges_exits_two(
            self, tmp_path, capsys, ranges):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({
            "name": "one_range",
            "construction": {"name": "exponential",
                             "params": {"b": 0.5, "label_range": 40, "d": 64, "derivative": True}},
            "operator": {"name": "diff_minus_i_H1"},
            "checks": [{"name": "decomposition_error_monotone", "tolerance": 1.0,
                        "params": {"ranges": ranges}}],
        }))
        assert main(["run", str(f), "--out", str(tmp_path / "r.json")]) == 2
        assert "ranges" in capsys.readouterr().err

    def test_decomposition_monotone_on_an_underflowed_probe_fails_with_a_report(self, tmp_path):
        """On [0, 1e-300) the probe underflows and every error reads exactly 0.0: the ratio
        after a zero error is infinite, so the check fails (exit 1) instead of dividing by
        zero (exit 3)."""
        data = load_bundled("exm1")
        data["construction"]["params"].update(x0=0.0, x1=1e-300)
        data["checks"] = [chk for chk in data["checks"]
                          if chk["name"] == "decomposition_error_monotone"]
        f = tmp_path / "underflow.json"
        f.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert main(["run", str(f), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["checks"][0]["value"] == float("inf")
        assert report["extras"]["decomposition_errors"] == {"20": 0.0, "40": 0.0, "80": 0.0}

    @pytest.mark.parametrize("name", ["../../escaped/deep/x", "<tmp>/abs/x", "a\\b", "a\x00b",
                                      ".", ".."])
    def test_name_that_is_no_file_stem_exits_two_writing_nothing(
            self, tmp_path, capsys, monkeypatch, name):
        """Without --out the report path is the name's, so a name that is a path, '.' or
        '..' is refused before anything is written."""
        workdir = tmp_path / "a" / "b" / "c"
        workdir.mkdir(parents=True)
        monkeypatch.chdir(workdir)
        f = tmp_path / "scenario.json"
        name = name.replace("<tmp>", str(tmp_path))
        f.write_text(json.dumps({"name": name, "construction": {"name": "difference"},
                                 "checks": [{"name": "partial_sum_identity", "tolerance": 1.0}]}))
        assert main(["run", str(f)]) == 2
        assert "'name'" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "a", workdir.parent, workdir, f]


class TestReproduceCommand:
    def test_unknown_name_exits_two_listing_valid(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "nonsense"]) == 2
        err = capsys.readouterr().err
        for name in REPRODUCE_NAMES:
            assert name in err

    def test_bundled_exm1_scenario_passes(self, tmp_path):
        out = tmp_path / "exm1.json"
        assert main(["reproduce", "exm1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(c["pass"] for c in report["checks"])
        assert "decomposition_errors" in report["extras"]

    def test_difference_report_contents(self, tmp_path):
        out = tmp_path / "difference.json"
        assert main(["reproduce", "difference", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["partial_sum_identity"]["value"] <= 1e-12
        assert by_name["strong_residual_min"]["value"] >= 0.5

    def test_not_frame_report_contents(self, tmp_path):
        out = tmp_path / "nf.json"
        assert main(["reproduce", "not_frame", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["frame_ratio"]["value"] <= 1e-3
        assert by_name["range_inclusion_residual"]["pass"]
        assert by_name["aframe_alpha"]["value"] > 1e-8
        assert report["extras"]["range_included"] is True

    def test_parseval_trajectory_csv_export(self, tmp_path):
        out = tmp_path / "parseval.json"
        assert main(["reproduce", "parseval_trajectory", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        traj = dict(report["trajectories"])
        assert [n for n, _ in traj["bessel_bound"]] == [8, 16, 32, 64, 128]
        assert [v for _, v in traj["bessel_bound"]] == [64.0, 256.0, 1024.0, 4096.0, 16384.0]
        csv = (tmp_path / "parseval_bessel_bound.csv").read_text().splitlines()
        assert csv[0] == "N,value"
        assert csv[1].startswith("8,")

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "exm1" in out and "pw_quarter" in out


class TestDeterminism:
    def test_identical_reports_modulo_wall_clock(self):
        a = run_scenario(load_bundled("multiplier")).to_dict()
        b = run_scenario(load_bundled("multiplier")).to_dict()
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_weak_certificate_certifies_the_weak_dual_beside_a_given_one(self):
        """On multiplier, which gives its biorthogonal dual, weak_certificate still forms and
        certifies weak_a_dual(seq, op)."""
        data = _scenario("multiplier", {"d": 16}, checks=["weak_certificate"])
        data["checks"][0]["tolerance"] = 1e-8
        (result,) = run_scenario(data).checks
        assert result.passed and result.value <= 1e-8

    def test_seed_recorded_and_overridable(self):
        r = run_scenario(load_bundled("difference"), seed=42)
        assert r.seed == 42

    @pytest.mark.parametrize("name", REPRODUCE_NAMES)
    def test_check_order_does_not_change_the_report(self, name):
        """The checks share one weak dual and one exponential table, whichever runs first."""
        data = load_bundled(name)
        forward = run_scenario(data).to_dict()
        data["checks"].reverse()
        backward = run_scenario(data).to_dict()
        backward["checks"].reverse()
        for report in forward, backward:
            report.pop("wall_clock_s")
        assert json.dumps(backward, sort_keys=True) == json.dumps(forward, sort_keys=True)

    def test_checks_return_what_they_found_and_write_no_context(self, monkeypatch):
        """A check returns a float or a _Found; the one context key that appears while checks
        run is the shared weak dual, and no value is replaced."""
        appeared, returned = set(), []

        def watched(fn):
            @functools.wraps(fn)  # the params validate_scenario reads from its signature
            def check(ctx, rng, **params):
                before = dict(ctx)
                out = fn(ctx, rng, **params)
                appeared.update(ctx.keys() - before.keys())
                assert all(ctx[key] is value for key, value in before.items()), fn.__name__
                returned.append(out)
                return out
            return check

        for key, (direction, fn) in S.CHECKS.items():
            monkeypatch.setitem(S.CHECKS, key, (direction, watched(fn)))
        for name in REPRODUCE_NAMES:
            run_scenario(load_bundled(name))
        assert appeared <= {"weak_dual"}
        assert appeared  # the guard saw the difference scenario's weak dual formed
        assert all(isinstance(out, float) or isinstance(out, S._Found)
                   and isinstance(out.value, float) for out in returned), returned


def _scenario(construction, params=None, operator=None, checks=("frame_ratio",), check_params=None):
    data = {"name": "probe", "construction": {"name": construction, "params": params or {}},
            "checks": [{"name": name, "tolerance": 1.0} for name in checks]}
    if operator:
        data["operator"] = {"name": operator}
    if check_params:
        data["checks"][0]["params"] = check_params
    return data


#: each input that once ran with a silently wrong param or exited 3, and the
#: field its exit-2 message names
PROBES = [
    ("op", _scenario("gabor_derivative", checks=["weak_certificate"])),
    ("label_range", _scenario("gabor_derivative", operator="diff_minus_i_H1",
                              checks=["weak_duality_residual"])),
    ("d", _scenario("difference", {"d": "abc"})),
    ("d", _scenario("difference", {"d": -5})),
    ("d", _scenario("difference", {"d": True})),
    ("psi", _scenario("gabor_derivative", operator="diff_minus_i_periodic",
                      checks=["pw_reconstruction"])),
    ("L", _scenario("pw_quarter", {"L": 0})),
    ("d", _scenario("difference", {"d": 30.7})),
    ("dd", _scenario("difference", {"dd": 30})),
    ("bogus", _scenario("difference", {"d": 30}, checks=["partial_sum_identity"],
                        check_params={"bogus": 1})),
    ("cond_max", _scenario("multiplier", {"cond_max": -1})),
    ("d", _scenario("exponential", {"d": 1})),
    ("d", _scenario("exponential", {"d": 0})),
    ("alpha_range", _scenario("not_frame_gabor", {"alpha_range": [1, 2, 3]})),
    ("support", _scenario("wavelet_derivative", {"support": [-1, 0, 1]})),
    ("cells", _scenario("not_frame_gabor", {"cells": -1})),
    *[("label_range", _scenario("exponential", {"b": 0.5, "derivative": True},
                                operator="diff_minus_i_H1", checks=["weak_alpha"],
                                check_params={"label_range": value}))
      for value in ("abc", 2.5, -5, 0)],
    *[("n_range", _scenario("not_frame_gabor", {"n_range": value})) for value in ("x", 1.5, True)],
    *[("m_values", _scenario("gabor_derivative", {"m_values": value}))
      for value in ("x", 3, [0.5], [True])],
    *[("signals", _scenario("pw_quarter", {"d": 256, "L": 16}, checks=["pw_reconstruction"],
                            check_params={"signals": value})) for value in (-4, 0)],
    *[("ranges", _scenario("exponential", {"b": 0.5, "derivative": True},
                           operator="diff_minus_i_H1", checks=["decomposition_error_monotone"],
                           check_params={"ranges": value})) for value in ([-3, 20], [0, 20])],
    *[("pairs", _scenario("multiplier", {"d": 16}, checks=["multiplier_weak_duality"],
                          check_params={"pairs": value})) for value in (0, -3)],
    # a seed above 2**64 - 1, in the scenario file and as extra command-line flags
    ("seed", dict(_scenario("difference", {"d": 20}), seed=2**70)),
    ("seed", _scenario("difference", {"d": 20}), "--seed", str(2**70)),
    ("seed", _scenario("difference", {"d": 20}), "--seed", str(2**64)),
    ("alpha_range", _scenario("not_frame_gabor", {"alpha_range": [0.0, 0.0]})),
    *[("checks[0].tolerance", {**_scenario("difference", {"d": 20}),
                               "checks": [{"name": "frame_ratio", "tolerance": value}]})
      for value in (float("nan"), float("inf"), 10**400)],
    # the construction param 'sizes' keeps the schema rule of the top-level field
    *[("sizes", _scenario("parseval_family", {"sizes": value})) for value in ([], [0], [-3, 4])],
    *[(key, _scenario("wavelet_derivative", {key: -1})) for key in ("m_range", "n_range")],
    # a grid length that is no power of two, or no multiple of the window length L
    *[("d", _scenario("pw_quarter", params))
      for params in ({"d": 100}, {"d": 4096, "L": 48}, {"d": 64, "L": 128})],
    # a reversed support once passed every scale's window test and ran to a failed check
    ("support", _scenario("wavelet_derivative", {"m_range": 3, "support": [1.0, -1.0]},
                          operator="diff_ddx_periodic", checks=["wavelet_derivative_match"])),
    # a translation step of 6.25 samples, a nonpositive step or modulation, and a modulation
    # that leaves 1.6 periods in the window
    *[(key, _scenario("gabor_derivative", params))
      for key, params in (("a", {"d": 100}), ("a", {"a": 0.0}), ("b", {"b": -0.125}),
                          ("b", {"b": 0.1}))],
    ("b", _scenario("exponential", {"b": 2.0})),
    *[(key, _scenario("wavelet_derivative", {key: value})) for key, value in (("a", 1.0),
                                                                              ("b", 0.0))],
    ("taper", _scenario("pw_quarter", {"d": 256, "L": 16, "taper": "cubic"})),
    # a window with no derivative under a derivative family
    ("window", _scenario("gabor_derivative", {"window": "fold_symmetric"})),
    ("mother", _scenario("wavelet_derivative", {"mother": "fold_symmetric"})),
    # a dual is an input that only a construction gives; no weak dual stands in for it
    ("dual", _scenario("difference", {"d": 20}, checks=["multiplier_weak_duality"])),
    # a reversed or empty interval, refused by the one grid every grid construction builds on
    ("x1", _scenario("gabor_derivative", {"x1": -8.0})),
    ("x1", _scenario("wavelet_derivative", {"x0": 8.0, "x1": -8.0})),
    ("x1", _scenario("exponential", {"x0": 1.0, "x1": 0.0})),
    # grid nodes that round together, or a step that overflows, under exm1's family
    *[("x1", _scenario("exponential", {"b": 0.5, "derivative": True, "x0": x0, "x1": x1},
                       operator="diff_minus_i_H1"))
      for x0, x1 in ((1.0, 1.00000000000001), (1e15, 1e15 + 1), (-1e308, 1e308))],
    # a construction left with no column, or with only zero ones
    ("label_range", _scenario("exponential", {"label_range": -1})),
    ("label_range", _scenario("exponential", {"label_range": 0, "derivative": True})),
    *[(key, _scenario("gabor_derivative", {key: value}))
      for key, value in (("m_range", -1), ("n_range", -1), ("m_values", []))],
    ("pts_per_cell", _scenario("not_frame_gabor", {"pts_per_cell": 0})),
    ("n_range", _scenario("not_frame_gabor", {"n_range": -1})),
    ("d", _scenario("multiplier", {"d": 0})),
]


def _run(data, workdir, *flags):
    """(exit code, stderr) of opframe run on the scenario dict, with extra command-line flags."""
    path = workdir / "scenario.json"
    path.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(path), "--out", str(workdir / "report.json"), *flags])
    return code, err.getvalue()


@pytest.mark.parametrize("probe", PROBES, ids=[f"{i}-{p[0]}" for i, p in enumerate(PROBES)])
def test_probe_exits_two_naming_the_field(tmp_path, probe):
    """The refusal names the field, and no other param of the construction (save in an
    unknown param's list of the valid ones): a refusal that blamed another would fail."""
    field, data, *flags = probe
    code, err = _run(data, tmp_path, *flags)
    assert code == 2
    assert repr(field) in err
    others = set(S._defaults(S.CONSTRUCTIONS[data["construction"]["name"]])) - {field}
    assert [key for key in sorted(others) if repr(key) in err.split("; valid:")[0]] == []
    assert not (tmp_path / "report.json").exists()


def test_every_none_default_param_is_annotated_optional():
    """A given None-default param is typed by the X of its Optional[X] annotation."""
    fns = [*S.CONSTRUCTIONS.values(), *S.OPERATORS.values(), *(fn for _, fn in S.CHECKS.values())]
    for fn in fns:
        params = inspect.signature(fn, eval_str=True).parameters
        for key in [key for key, default in S._defaults(fn).items() if default is None]:
            assert typing.get_args(params[key].annotation)[1:] == (type(None),), (fn, key)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
def test_float_param_refuses_a_value_no_float_holds(tmp_path, value):
    code, err = _run(_scenario("exponential", {"b": value}), tmp_path)
    assert code == 2
    assert "'b'" in err


#: values of every JSON kind, for a param given the wrong type
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(-10, 10), st.text(max_size=4),
    st.lists(st.one_of(st.integers(0, 9), st.text(max_size=2)), max_size=3))


def _fits(default, value):
    """The params rule restated: whether a JSON value may stand for a param
    with this non-None default."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unknown_or_mistyped_param_exits_two_before_building(tmp_path_factory, data):
    scenario = load_bundled(data.draw(st.sampled_from(REPRODUCE_NAMES)))
    cname = scenario["construction"]["name"]
    specs = [(scenario["construction"], S.CONSTRUCTIONS[cname])]
    if "operator" in scenario:
        specs.append((scenario["operator"], S.OPERATORS[scenario["operator"]["name"]]))
    specs += [(chk, S.CHECKS[chk["name"]][1]) for chk in scenario["checks"]]
    spec, fn = data.draw(st.sampled_from(specs))
    defaults = S._defaults(fn)
    typed = sorted(key for key, default in defaults.items() if default is not None)
    if typed and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(typed))
        value = data.draw(JSON_VALUES.filter(lambda v: not _fits(defaults[key], v)))
    else:
        key = data.draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in defaults))
        value = data.draw(JSON_VALUES)
    spec.setdefault("params", {})[key] = value

    calls = []
    build = S.CONSTRUCTIONS[cname]

    @functools.wraps(build)
    def counted(*args, **kwargs):
        calls.append(kwargs)
        return build(*args, **kwargs)

    with mock.patch.dict(S.CONSTRUCTIONS, {cname: counted}):
        code, err = _run(scenario, tmp_path_factory.mktemp("fuzz"))
    assert code == 2
    assert repr(key) in err
    assert calls == []


@pytest.fixture(scope="module")
def stream_scenarios():
    """The benchmark's scenario_stream scenarios of seed 0."""
    return [data for _, data in _workloads().ScenarioStream(0, None).ops]


def test_every_registry_name_is_run(stream_scenarios):
    """Each construction, operator, check and window name is used by a bundled file or a
    scenario_stream scenario, a window as the ``window`` or ``mother`` param: a name that
    nothing runs is not shipped."""
    used = {"construction": set(), "operator": set(), "check": set(), "window": set()}
    for data in [*map(load_bundled, REPRODUCE_NAMES), *stream_scenarios]:
        params = data["construction"].get("params", {})
        used["construction"].add(data["construction"]["name"])
        used["operator"].update([data["operator"]["name"]] if "operator" in data else [])
        used["check"].update(chk["name"] for chk in data["checks"])
        used["window"].update(params[key] for key in ("window", "mother") if key in params)
    registries = {"construction": S.CONSTRUCTIONS, "operator": S.OPERATORS, "check": S.CHECKS,
                  "window": S.WINDOWS}
    assert {kind: sorted(set(reg) - used[kind]) for kind, reg in registries.items()} == \
        dict.fromkeys(registries, [])


#: the edges of the schema's types, bounds and name rule
SCHEMA_EDGES = st.sampled_from([
    None, True, False, 0, 1, -1, 3.0, 0.5, -0.0, 5e-324, 2**64 - 1, 2**64, 2**70, float(2**64),
    float("nan"), float("inf"), -float("inf"), "", [], {}, [0], [True], [1, 2.0],
    "x", ".", "..", "...", ".x", "a/b", "/a", "a\\b", "a\x00b", "..\n"])
#: values of every JSON kind, half of them edges
SCHEMA_VALUES = st.one_of(
    SCHEMA_EDGES,
    st.one_of(
        st.integers(), st.floats(), st.text(max_size=3),
        st.lists(st.one_of(st.integers(-2, 3), st.floats(0, 3), st.booleans()), max_size=3),
        st.fixed_dictionaries({"name": st.sampled_from(["identity", "frame_ratio", "", "a/b"])},
                              optional={"tolerance": st.sampled_from([1.0, 0, -1, "1"]),
                                        "params": st.sampled_from([{}, {"d": 8}, []])})),
).map(copy.deepcopy)  # a mutation may change a drawn list or object; not the strategy's own
#: keys a mutation adds: the schema's own and two it does not know
SCHEMA_KEYS = st.sampled_from(["name", "seed", "construction", "operator", "checks", "sizes",
                               "params", "tolerance", "extra", "Name"])
SCHEMA_ORACLE = jsonschema.Draft202012Validator(load_schema())


def _paths(value, path=()):
    """The path of every value in a JSON value, its own () first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _paths(item, (*path, key))


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_direct_check_agrees_with_jsonschema(stream_scenarios, data):
    """validate_scenario refuses a mutated bundled or stream scenario with jsonschema's
    message exactly when jsonschema's Draft 2020-12 validator refuses it.  A mutation
    adds a key or an item to an object or array, or replaces or deletes any value."""
    if data.draw(st.booleans()):
        scenario = load_bundled(data.draw(st.sampled_from(REPRODUCE_NAMES)))
    else:
        scenario = copy.deepcopy(data.draw(st.sampled_from(stream_scenarios)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(scenario))))
        target = functools.reduce(operator.getitem, path, scenario)
        if isinstance(target, dict) and data.draw(st.booleans()):
            target[data.draw(SCHEMA_KEYS)] = data.draw(SCHEMA_VALUES)
        elif isinstance(target, list) and data.draw(st.booleans()):
            target.append(data.draw(SCHEMA_VALUES))
        elif path:
            parent = functools.reduce(operator.getitem, path[:-1], scenario)
            if data.draw(st.booleans()):
                parent[path[-1]] = data.draw(SCHEMA_VALUES)
            else:
                del parent[path[-1]]

    best = jsonschema.exceptions.best_match(SCHEMA_ORACLE.iter_errors(scenario))
    try:
        validate_scenario(scenario)
        message = None
    except InvalidScenario as exc:
        message = str(exc)
    if best is None:
        assert message is None or not message.startswith("scenario schema violation"), message
    else:
        where = "/".join(map(str, best.absolute_path))
        assert message == (f"scenario schema violation{f' at {where!r}' if where else ''}: "
                           f"{best.message}")


@pytest.mark.parametrize("change, refused", [
    ({"seed": 3.0}, None),  # an integral float is an integer
    ({"seed": True}, "seed"),  # a bool is no integer
    ({"seed": 2**64 - 1}, None),
    ({"seed": 2**64}, "seed"),
    ({"seed": float(2**64)}, "seed"),
    ({"sizes": [0]}, "sizes/0"),
    ({"checks": [{"name": "frame_ratio", "tolerance": 0}]}, "checks/0/tolerance"),
    ({"checks": [{"name": "frame_ratio", "tolerance": 5e-324}]}, None),
    ({"sizes": [True]}, "sizes/0"),
    ({"checks": [{"name": "frame_ratio", "tolerance": True}]}, "checks/0/tolerance"),
    ({"checks": [{"name": "frame_ratio", "tolerance": float("nan")}]}, "checks[0].tolerance"),
    ({"name": ".."}, "name"),
    ({"name": "..x"}, None),
])
def test_schema_types_and_bounds_as_json_schema_has_them(change, refused):
    scenario = dict(_scenario("difference", {"d": 20}), **change)
    if refused is None:
        validate_scenario(scenario)
    else:
        with pytest.raises(InvalidScenario, match=f"'{re.escape(refused)}'"):
            validate_scenario(scenario)


@pytest.mark.parametrize("sizes", [[], [0], [-3, 4], [True], [2.5], "8"])
def test_sizes_param_is_refused_as_the_top_level_field_is(sizes):
    """parseval_family's 'sizes' param breaks the schema's rule for the top-level 'sizes'
    where the field does, with the same message."""
    messages = []
    for scenario in (dict(_scenario("parseval_family"), sizes=sizes),
                     _scenario("parseval_family", {"sizes": sizes})):
        with pytest.raises(InvalidScenario, match="'[a-z/]*sizes[/0-9]*'") as err:
            validate_scenario(scenario)
        messages.append(str(err.value).split(": ", 1)[1])
    assert messages[0] == messages[1]
