"""tools/ab_pairs.py, the paired benchmark verdict between two checkouts."""

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROUND = {"name": "round_ref_s", "unit": "s", "better": "lower", "bound": 0.25}
OLD = [0.32, 0.31, 0.33, 0.32, 0.30, 0.34, 0.32, 0.31, 0.33, 0.32]


@pytest.fixture
def ab_pairs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("ab_pairs")


def test_quartiles_are_inclusive_and_read_one_value(ab_pairs):
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_claim_needs_nine_of_ten_pairs_and_a_gain_beyond_the_old_iqr(ab_pairs):
    # old: median 0.32, quartiles 0.3125 and 0.3275
    new = [0.27, 0.28, 0.27, 0.26, 0.28, 0.27, 0.29, 0.27, 0.28, 0.33]
    line, holds = ab_pairs.summarize(ROUND, OLD, new, claimed=True)
    assert holds
    assert line == ("round_ref_s (s, lower is better): old 0.32 [0.3125, 0.3275], "
                    "new 0.275 [0.27, 0.28]; new won 9/10; "
                    "claim holds: gain 0.045 against old IQR 0.015")
    # 8 of 10 pairs won
    line, holds = ab_pairs.summarize(ROUND, OLD, new[:8] + [0.35, 0.35], claimed=True)
    assert not holds and "new won 8/10; claim fails" in line
    # every pair won, by less than the old IQR
    line, holds = ab_pairs.summarize(ROUND, OLD, [v - 0.01 for v in OLD], claimed=True)
    assert not holds and "new won 10/10; claim fails: gain 0.01 against old IQR 0.015" in line


def test_an_unclaimed_metric_must_stay_within_its_bound(ab_pairs):
    rss = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}
    old = [97.0, 97.1, 96.9]
    line, holds = ab_pairs.summarize(rss, old, [106.0, 106.1, 105.9], claimed=False)
    assert holds and line.endswith("new won 0/3; within bound: worse by 9, allowed 9.7")
    line, holds = ab_pairs.summarize(rss, old, [107.0, 107.1, 106.9], claimed=False)
    assert not holds and line.endswith("beyond bound: worse by 10, allowed 9.7")
    # a metric where higher is better wins when the new side is larger
    rate = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
    line, holds = ab_pairs.summarize(rate, [10.0, 10.0], [9.5, 9.5], claimed=False)
    assert holds and "new won 0/2; within bound: worse by 0.5, allowed 1" in line
    line, holds = ab_pairs.summarize(rate, [10.0, 10.0], [12.0, 12.0], claimed=True)
    assert holds and "new won 2/2; claim holds: gain 2 against old IQR 0" in line


def test_a_bad_claim_or_pair_count_is_a_usage_error(ab_pairs, capsys):
    for extra in (["--claim", "no_such_metric"], ["--claim", "round_ref_s", "--pairs", "0"]):
        argv = [ROOT, ROOT, "--workload", "certify-large", "--seed", "1", "--pairs", "1", *extra]
        with pytest.raises(SystemExit) as exit_info:
            ab_pairs.main(argv)
        assert exit_info.value.code == 2
    assert "unknown claimed metric ['no_such_metric']" in capsys.readouterr().err
