"""Smoke test of the end-to-end benchmark.

``run.py --smoke`` shrinks every workload about 10x but keeps every code
path and every check; this asserts that it reports every metric of
``BENCHMARK.json`` with its unit and that every check passes.  Run with
``pytest benchmarks/e2e -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_run_reports_every_metric_and_passes_every_check(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=90)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] > 0
    assert set(summary["metrics"]) == {w["name"] for w in bench["workloads"]}
    for metrics in summary["metrics"].values():
        assert {n: m["unit"] for n, m in metrics.items()} == units

    for run in json.loads(out.read_text())["runs"][0]:
        assert run["violations"] == []
        assert run["inputs_pinned"] == run["inputs_sha256"]
        trace = json.loads(
            (tmp_path / f"{run['workload']}.trace.json").read_text())
        assert trace["spans"][trace["op_span"]]["name"] == "op"
