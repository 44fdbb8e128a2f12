"""Every committed BENCH_*.json has the shape a later reader relies on.

A BENCH file records one performance change: the commit it was measured
against, the command, the method, the claimed gain and, per workload, the
parent's and the change's medians of every end-to-end metric that
BENCHMARK.json declares.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
METRICS = set(END_TO_END) | {m["name"] for m in BENCHMARK["per_layer"]}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_shape(path):
    with open(path) as fh:
        data = json.load(fh)
    for key in ("topic", "parent_commit", "command", "method"):
        assert isinstance(data.get(key), str) and data[key], key
    claim = data["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in METRICS
    assert claim["workload"] in data["workloads"]
    assert set(data["workloads"]) <= WORKLOADS
    for name, result in data["workloads"].items():
        seeds = result["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds), name
        assert isinstance(result["pairs"], int) and result["pairs"] >= 1, name
        assert isinstance(result["all_correct"], bool), name
        for metric in END_TO_END:
            entry = result["metrics"][metric]
            for side in ("parent", "change"):
                assert isinstance(entry[side]["median"], (int, float)), (name, metric, side)
