import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "tools", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def run(correct=True, failed=0, **metrics):
    return {"correct": correct, "failed": failed, "metrics": {k: {"value": v} for k, v in metrics.items()}}


class TestSummarize:
    def test_pair_ratios_medians_and_wins(self):
        pairs = [
            {"parent": run(steps_per_s=2.0, wall_s=10.0), "change": run(steps_per_s=2.2, wall_s=9.0)},
            {"parent": run(steps_per_s=2.0, wall_s=10.0), "change": run(steps_per_s=2.6, wall_s=11.0)},
            {"parent": run(steps_per_s=1.0, wall_s=8.0), "change": run(steps_per_s=0.9, wall_s=8.0)},
            {"parent": run(correct=False, failed=3, steps_per_s=1.0), "change": run(steps_per_s=None, wall_s=7.0)},
        ]
        out = ab.summarize(pairs, END_TO_END)
        sps = out["steps_per_s"]
        # ratios 1.1, 1.3, 0.9; the pair whose change has no value is left out
        assert sps["pair_ratio"]["median"] == pytest.approx(1.1)
        assert sps["pair_ratio"]["min"] == pytest.approx(0.9) and sps["pair_ratio"]["max"] == pytest.approx(1.3)
        assert (sps["change_wins"], sps["parent_wins"], sps["ties"]) == (2, 1, 0)
        assert sps["parent"]["median"] == 1.5 and sps["change"]["median"] == 2.2
        assert sps["relative_change_of_median"] == pytest.approx(2.2 / 1.5 - 1.0)
        wall = out["wall_s"]
        # lower is better: 9 < 10 wins, 11 > 10 loses, 8 == 8 ties
        assert (wall["change_wins"], wall["parent_wins"], wall["ties"]) == (1, 1, 1)
        assert wall["pair_ratio"]["median"] == pytest.approx(1.0)
        assert out["failed_ops.parent"] == 3 and out["incorrect_runs.parent"] == 1 and out["incorrect_runs.change"] == 0

    def test_no_pairs(self):
        out = ab.summarize([], END_TO_END)
        assert out["steps_per_s"]["pair_ratio"] == {"median": None, "min": None, "max": None}
        assert out["steps_per_s"]["parent"]["n"] == 0
