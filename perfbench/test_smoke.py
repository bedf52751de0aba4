"""Smoke test of the benchmark: every workload at tiny size.

    python3 -m pytest perfbench -q

Each run must end its standard output with the result object holding
exactly the contract's keys and every metric BENCHMARK.json names
(end-to-end untraced, per-layer traced) with its unit, and must pass
its own output checks. A directory holding only BENCHMARK.json and the
benchmark must make the benchmark fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace, *extra):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra
    ]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]


def test_per_layer_list_matches_tracer_table():
    from tracer import LAYER_METRICS

    assert SPEC["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, *_ in LAYER_METRICS
    ]


def test_fails_cleanly_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_candidate_sets_have_ties_clipping_and_lifting():
    from candgen import gen_candidates
    from quadflora.pipeline import RunConfig, select_predictions
    from quadflora.selection import SelectionConfig, zscore_normalize

    candidates, truth, groups = gen_candidates(5, 300)
    again, _, _ = gen_candidates(5, 300)
    assert candidates == again
    assert set(groups.values()) == {f"t{i:04d}" for i in range(30)}
    seen = {}
    for c in candidates:
        _, true_ids = truth.quadrats[c.quadrat_id]
        assert 3 <= len(true_ids) <= 6 and 4 <= len(c.entries) - len(true_ids) <= 30
        assert min(c.entries[s] for s in true_ids) > max(
            v for s, v in c.entries.items() if s not in true_ids
        )
        for v in set(c.entries.values()):
            seen.setdefault(v, set()).add(c.quadrat_id)
    assert any(len(quadrats) > 1 for quadrats in seen.values())

    sel = SelectionConfig(target_mean_len=4.5, max_len=9, min_len=2, zscore=True)
    _, tau, _ = select_predictions(candidates, RunConfig(scales=(1,), selection=sel))
    above = [sum(v > tau for v in zscore_normalize(c).entries.values()) for c in candidates]
    assert max(above) > sel.max_len and min(above) < sel.min_len
