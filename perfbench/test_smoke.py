"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

It runs every workload end to end through fresh processes on tiny inputs,
and shows that a corrupted output becomes a failed operation, that a hook
whose target is gone is reported as missing, and that the harness refuses
to report anything when the program is not there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "figure-stats": dict(n=300),
    "sweeps": dict(
        claims=(("lemma1", {"n_max": 64}), ("collatz-connected", {"n_max": 50}),
                ("matrix-example", {})),
        ca_width=3, locus_nmax=40, perm=(20, 3), euler_nmax=8,
    ),
    "gen-large": dict(n=300),
    "triangles-large": dict(n=300),
}


def tiny_inputs(name: str, seed: int = 1) -> dict:
    return WORKLOADS[name].make_inputs(seed, **TINY[name])


def request(name: str, inputs: dict, workdir: Path, **extra) -> dict:
    return {"workload": name, "inputs": inputs, "mode": "job",
            "workdir": str(workdir), **extra}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_complete(name):
    record = run.run(name, tiny_inputs(name), 0, False, f"smoke-{name}")
    res = record["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert [m for m in res["metrics"]] == [m for m, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())
    for job in (c for c in record["children"] if c["mode"] == "job"):
        assert 0 < job["peak_rss_mb"] <= job["process_peak_rss_mb"]


def test_traced_run_reports_every_layer_and_self_times_add_up():
    record = run.run("figure-stats", tiny_inputs("figure-stats"), 0, True, "smoke-trace")
    metrics = record["result"]["metrics"]
    assert [name for name, _, _ in spans.metric_table()] == list(metrics)
    assert record["missing_hooks"] == []
    wall = metrics["trace.wall_s"]["value"]
    assert metrics["trace.self_sum_s"]["value"] == pytest.approx(wall, rel=0.01, abs=1e-3)
    assert metrics["metrics.distance.calls"]["value"] == 1
    assert metrics["cli.export.calls"]["value"] == 0  # did not run: zero, not null


def test_corrupted_output_is_a_failed_operation(tmp_path, monkeypatch):
    from ringgraphs import cli

    good = cli.export_edge_list
    monkeypatch.setattr(cli, "export_edge_list", lambda g: good(g).replace("\n", "\n\n", 1))
    result = child.execute(request("gen-large", tiny_inputs("gen-large"), tmp_path))
    assert result["failed"] == ["edges"]
    assert run.tally([result]) == (1, 1)  # error_rate 1/1


def test_pinned_mismatch_is_a_failed_operation(tmp_path, monkeypatch):
    inputs = tiny_inputs("triangles-large")
    pins = {"triangles-large": {"inputs": inputs,
                                "outputs": {"components": 1, "euler_char": 12345}}}
    fake = tmp_path / "reference.json"
    fake.write_text(json.dumps(pins))
    monkeypatch.setattr(workloads, "REFERENCE", fake)
    result = child.execute(request("triangles-large", inputs, tmp_path))
    assert result["failed"] == ["euler_char"]
    assert "pinned" in result["reasons"]["euler_char"]


def test_missing_hook_is_reported_missing_not_zero(tmp_path):
    gone = spans.Hook("gone.layer", ("metrics:_no_such_kernel",), "nothing")
    hooks = spans.HOOKS + (gone,)
    result = child.execute(request("figure-stats", tiny_inputs("figure-stats"), tmp_path,
                                   trace=True, hooks=hooks))
    assert result["failed"] == []
    assert result["missing_hooks"] == ["metrics:_no_such_kernel"]
    assert result["layers"]["gone.layer.s"] is None
    assert result["layers"]["gone.layer.calls"] is None
    assert result["layers"]["metrics.distance.calls"] == 1


def test_without_the_program_the_runner_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "figure-stats",
            "--seed", "0", "--seconds", "1", "--trace", "0"]
    res = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == (
        spans.metric_table()
    )
