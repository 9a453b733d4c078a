"""Self-tests of the benchmark: generators, span arithmetic, wrapping, compare.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent


# -- workload generators ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    a, b, c = make(3, tmp_path), make(3, tmp_path), make(4, tmp_path)
    assert a.ops == b.ops
    assert a.ops != c.ops


def test_stream_holds_only_small_bundled_variants(tmp_path):
    wl = workloads.ScenarioStream(0, tmp_path)
    assert {label for label, _ in wl.ops} == set(workloads.scenarios.REPRODUCE_NAMES)
    assert max(workloads._scenario_size(data) for _, data in wl.ops) <= 256
    for label, data in wl.ops:
        bundled = workloads.scenarios.load_bundled(label)
        # bundled tolerances are used unchanged
        assert [(c["name"], c["tolerance"]) for c in data["checks"]] == [
            (c["name"], c["tolerance"]) for c in bundled["checks"]
        ]
        workloads.scenarios.validate_scenario(data)


def test_balanced_picks_cover_every_value():
    pick = workloads.Balanced(np.random.default_rng(0))
    values = [pick("k", [1, 2, 3]) for _ in range(9)]
    assert sorted(values) == [1, 1, 1, 2, 2, 2, 3, 3, 3]


def test_report_comparison_tolerance():
    ref = {"checks": [{"value": 1.0, "pass": True}], "seed": 0}
    assert workloads.mismatches({"checks": [{"value": 1.0 + 1e-9, "pass": True}], "seed": 0},
                                ref) == []
    assert workloads.mismatches({"checks": [{"value": 1.01, "pass": True}], "seed": 0}, ref)
    assert workloads.mismatches({"checks": [{"value": 1.0, "pass": False}], "seed": 0}, ref)


# -- span arithmetic ------------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_a_nested_span_tree():
    # A [0, 10] holds B [1, 4] and C [5, 6]; C holds D [5, 5.5]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 4, 5, 5, 5.5, 6, 10]))
    a = tracer.begin("linalg.a")
    b = tracer.begin("linalg.b")
    tracer.end(b)
    c = tracer.begin("relframes.c")
    d = tracer.begin("kernel.svd")
    tracer.end(d)
    tracer.end(c)
    tracer.end(a)
    selfs = tracing.self_times(tracer.starts, tracer.ends, tracer.parents)
    assert selfs == pytest.approx([6.0, 3.0, 0.5, 0.5])
    m = tracing.summarize(tracer, (0.0, 20.0))
    # nested spans of one layer count once in its busy time
    assert m["linalg.busy_s"]["value"] == pytest.approx(10.0)
    assert m["linalg.self_s"]["value"] == pytest.approx(9.0)
    assert m["relframes.busy_s"]["value"] == pytest.approx(1.0)
    assert m["kernel.svd.calls"]["value"] == 1
    assert m["trace.toplevel_share"]["value"] == pytest.approx(0.5)


def test_spans_of_the_benchmark_check_are_left_out():
    # op [0, 10] holds the program's svd [1, 3]; check [4, 9] holds an svd [5, 8]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 8, 9, 10]))
    op = tracer.begin("bench.op")
    tracer.end(tracer.begin("kernel.svd"))
    check = tracer.begin(tracing.CHECK)
    tracer.end(tracer.begin("kernel.svd"))
    tracer.end(check)
    tracer.end(op)
    m = tracing.summarize(tracer, (0.0, 10.0))
    assert m["kernel.svd.calls"]["value"] == 1
    assert m["kernel.svd.s"]["value"] == pytest.approx(2.0)
    assert m["kernel.busy_s"]["value"] == pytest.approx(2.0)
    assert m["trace.toplevel_share"]["value"] == pytest.approx(0.2)


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(5.0)


# -- wrapping at every import site ----------------------------------------------


def _public_functions():
    found = set()
    for short in tracing.OPFRAME_MODULES:
        mod = importlib.import_module(f"opframe.{short}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found.add(obj)
    return found


def test_every_import_site_is_wrapped():
    originals = _public_functions()
    sites = [m for n, m in sys.modules.items() if n == "opframe" or n.startswith("opframe.")]
    tracer = tracing.Tracer().install(extra_sites=[workloads])
    try:
        for mod in sites + [workloads]:
            for attr, obj in vars(mod).items():
                assert not any(obj is f for f in originals), f"{mod.__name__}.{attr} unwrapped"
        assert hasattr(np.linalg.svd, "__perfbench_original__")
        # both import sites of the _linalg kernel land in one named span
        from opframe import relframes, weakframes

        assert relframes.pencil_lower_bound is weakframes.pencil_lower_bound
        x = np.eye(3, dtype=complex)
        weakframes.pencil_lower_bound(x, np.eye(3)[:, :2], np.eye(2))
        assert "linalg.pencil_lower_bound" in tracer.names
        assert "kernel.eigh" in tracer.names
    finally:
        tracer.uninstall()
    from opframe import _linalg, weakframes

    assert weakframes.pencil_lower_bound is _linalg.pencil_lower_bound
    assert not hasattr(_linalg.pencil_lower_bound, "__perfbench_original__")
    assert not hasattr(np.linalg.svd, "__perfbench_original__")


# -- compare tool -----------------------------------------------------------------


def _records(workload, values):
    return [{"workload": workload, "metrics": {
        "ops_per_s": {"value": v, "unit": "1/s"},
        "latency_ms.p50": {"value": 1e3 / v, "unit": "ms"}}} for v in values]


def test_compare_flags_a_regression_and_passes_identical_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = _records("scenario_stream", [10.0, 10.1, 9.9, 10.05, 9.95])
    same = compare.compare(base, base, spec)
    assert {r["verdict"] for r in same} == {"unchanged"}
    slow = _records("scenario_stream", [5.0, 5.05, 4.95, 5.02, 4.98])
    rows = compare.compare(base, slow, spec)
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "ops_per_s": "worse", "latency_ms.p50": "worse"}


def test_compare_marks_a_wide_spread_unresolved():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = _records("paper_suite", [1.0, 2.0, 1.0, 2.0])
    head = _records("paper_suite", [1.0, 1.5, 1.2, 1.9])
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(base, head, spec)}
    assert verdicts["ops_per_s"] == "unresolved"


def test_compare_marks_a_noisy_head_unresolved():
    # the head's median lies within the bound, but its runs spread wider
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = _records("scenario_stream", [10.0, 10.1, 9.9, 10.05, 9.95])
    noisy = _records("scenario_stream", [6.0, 14.0, 9.8, 7.0, 13.0])
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(base, noisy, spec)}
    assert verdicts["ops_per_s"] == "unresolved"
    # a head whose every run beats every base run is better, however noisy
    fast = _records("scenario_stream", [15.0, 25.0, 16.0, 24.0, 20.0])
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(base, fast, spec)}
    assert verdicts["ops_per_s"] == "better"
