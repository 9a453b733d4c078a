"""Golden-report guard: every bundled scenario reproduces its frozen report.

tests/golden_reports.json holds the eight bundled reports without their
wall-clock field.  Numbers must agree to |a - b| <= 1e-12 |b| + 1e-12; the
absolute term covers residuals at roundoff level.  Regenerate the file only
for an intended change of report values:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_reports.json
"""

import json
import math
from pathlib import Path

import pytest

from opframe.scenarios import REPRODUCE_NAMES

from conftest import reproduce

GOLDEN = Path(__file__).with_name("golden_reports.json")
RTOL = 1e-12
ATOL = 1e-12


def _report(name):
    rep = json.loads(reproduce(name).to_json())
    rep.pop("wall_clock_s")
    return rep


def _mismatches(actual, expected, path=""):
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return [m for k in sorted(expected)
                for m in _mismatches(actual[k], expected[k], f"{path}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: lengths differ"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in _mismatches(a, e, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(actual - expected) <= RTOL * abs(expected) + ATOL:
            return []
    elif actual == expected and type(actual) is type(expected):
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_bundled_scenario(golden):
    assert sorted(golden) == sorted(REPRODUCE_NAMES)


@pytest.mark.parametrize("name", REPRODUCE_NAMES)
def test_bundled_report_matches_golden(golden, name):
    assert _mismatches(_report(name), golden[name]) == []


if __name__ == "__main__":
    print(json.dumps({n: _report(n) for n in REPRODUCE_NAMES}, indent=1, sort_keys=True))
