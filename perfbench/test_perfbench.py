"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``. Each
test drives ``run.py --size tiny`` in a subprocess, the way the benchmark is
run for real, so the full workloads are never built here.
"""
import functools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _invoke(run_py: Path, cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, run summary line) of one tiny benchmark run."""
    proc = _invoke(HERE / "run.py", ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    summary = next(line for line in lines if "inputs_digest" in line)
    return lines[-1], summary


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, _ = run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_but_not_metric_names(workload):
    result1, summary1 = run(workload, 1, 0)
    result2, summary2 = run(workload, 2, 0)
    assert summary1["inputs_digest"] != summary2["inputs_digest"]
    assert list(result1["metrics"]) == list(result2["metrics"])


def test_tracing_wraps_every_import_name_and_removes_cleanly():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import glct
    import glct.cli  # noqa: F401
    from glct import experiments, product
    from tracer import Tracer, installed_wrappers, summarize

    original = product.glct_cmccm_nd
    assert installed_wrappers() == []
    tracer = Tracer()
    with tracer:
        assert experiments.glct_cmccm_nd is product.glct_cmccm_nd is glct.glct_cmccm_nd
        assert experiments.glct_cmccm_nd is not original
        graph, x = experiments.benchmark_signal("x1")
        experiments.nmse_reversibility(x, glct.LctParams(0.6, 0.8, -0.5, 1.0), glct.ProductContext(graph))
    assert installed_wrappers() == []
    assert product.glct_cmccm_nd is original and experiments.glct_cmccm_nd is original
    names = [s[2] for s in tracer.spans]
    assert names.count("product.glct_cmccm_nd") == 2
    top = [s for s in tracer.spans if s[2] == "product.glct_cmccm_nd"]
    assert all(tracer.spans[s[1]][2] == "experiments.apply_glct" for s in top)
    layers = summarize(tracer.spans, tracer.spans[-1][4] - tracer.spans[0][3])
    assert layers["product.glct_cmccm_nd.calls"] == 2 and layers["product.mults"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke(tmp_path / HERE.name / "run.py", tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_each_timed_build_and_step_is_divided_by_the_slowness_around_it():
    sys.path[:0] = [str(HERE)]
    from run import Run

    run = Run(types.SimpleNamespace(items_per_pass=6), scale=True)
    run.walls = [3.0]
    run.timeline = [("slowness", 1.0), ("setup", 0.5), ("slowness", 3.0),
                    ("step", 2.0), ("slowness", 1.0), ("step", 1.0), ("slowness", 1.0)]
    assert run.timed(scaled=True) == {"setup": [0.25], "step": [1.0, 1.0]}
    assert run.timed(scaled=False) == {"setup": [0.5], "step": [2.0, 1.0]}
    assert run.end_to_end() == {"setup_s": 0.25, "items_per_s": 3.0}
