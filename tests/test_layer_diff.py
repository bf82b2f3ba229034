"""tools/layer_diff.py, the per-layer report between two checkouts."""

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

METRICS = [
    {"name": "model.enumerate_sector.s", "unit": "s", "better": "lower"},
    {"name": "model.enumerate_sector.states", "unit": "count", "better": "lower"},
    {"name": "dynamics.apply.calls", "unit": "count", "better": "lower"},
]


@pytest.fixture
def layer_diff(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("layer_diff")


def summary(seconds, states, calls):
    values = zip((m["name"] for m in METRICS), (seconds, states, calls))
    return {name: {"value": value, "unit": m["unit"]} for (name, value), m in zip(values, METRICS)}


def test_compare_prints_each_metric_with_its_ratio(layer_diff):
    old, new = summary(0.048, 137_684, 0), summary(0.012, 137_684, 0)
    lines, counts_same = layer_diff.compare(METRICS, old, new)
    assert counts_same
    assert lines == [
        "model.enumerate_sector.s                    0.048        0.012    0.250  s",
        "model.enumerate_sector.states              137684       137684    1.000  count",
        "dynamics.apply.calls                            0            0        -  count",
    ]


def test_compare_flags_every_count_that_differs(layer_diff):
    old, new = summary(0.048, 137_684, 0), summary(0.096, 137_685, 3)
    lines, counts_same = layer_diff.compare(METRICS, old, new)
    assert not counts_same
    assert [line.endswith("COUNT CHANGED") for line in lines] == [False, True, True]
    assert lines[0].split()[-2:] == ["2.000", "s"]  # a slower time is not flagged


def test_a_missing_workload_is_a_usage_error(layer_diff):
    with pytest.raises(SystemExit) as exit_info:
        layer_diff.main([ROOT, ROOT, "--seed", "1"])
    assert exit_info.value.code == 2
