"""Chrome Trace Event export: schema and CLI wiring."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cli import main
from repro.obs.manifest import load_manifest, manifest_path_for
from repro.obs.report import (
    build_trace_document,
    export_chrome_trace,
    write_chrome_trace,
)
from repro.obs.spans import (
    disable_tracing,
    enable_tracing,
    reset_trace,
    span,
)


@pytest.fixture(autouse=True)
def clean_tracer():
    reset_trace()
    yield
    disable_tracing()
    reset_trace()


def _assert_valid_chrome(document):
    """The subset of the Trace Event format spec we rely on."""
    assert set(document) == {"traceEvents", "displayTimeUnit",
                             "otherData"}
    assert document["displayTimeUnit"] == "ms"
    for event in document["traceEvents"]:
        assert isinstance(event["name"], str) and event["name"]
        assert event["ph"] in ("X", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float))
            assert event["ts"] >= 0
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0
            assert isinstance(event["args"], dict)
        else:
            assert event["name"] == "process_name"
            assert "name" in event["args"]
    # The whole document must survive a JSON round-trip.
    assert json.loads(json.dumps(document)) == document


class TestExport:
    def test_nested_spans_become_x_events(self):
        enable_tracing()
        with span("outer", stage="demo"):
            with span("inner"):
                time.sleep(0.002)
        document = export_chrome_trace(build_trace_document())
        _assert_valid_chrome(document)
        x_events = [e for e in document["traceEvents"]
                    if e["ph"] == "X"]
        by_name = {e["name"]: e for e in x_events}
        assert set(by_name) == {"outer", "inner"}
        outer, inner = by_name["outer"], by_name["inner"]
        # The child starts inside the parent on the shared timeline.
        assert inner["ts"] >= outer["ts"]
        assert inner["dur"] <= outer["dur"]
        assert outer["args"]["stage"] == "demo"
        assert "cpu_ms" in outer["args"]

    def test_main_process_named_darklight(self):
        enable_tracing()
        with span("solo"):
            pass
        document = export_chrome_trace(build_trace_document())
        names = {e["pid"]: e["args"]["name"]
                 for e in document["traceEvents"] if e["ph"] == "M"}
        assert names[os.getpid()] == "darklight"

    def test_trace_version_carried_in_other_data(self):
        enable_tracing()
        with span("solo"):
            pass
        document = export_chrome_trace(build_trace_document())
        assert document["otherData"]["trace_version"] == 2

    def test_pre_v2_spans_laid_out_sequentially(self):
        # Old trace files carry no ts_us/pid/tid; roots must still
        # render, one after another from t=0.
        legacy = {"version": 1, "spans": [
            {"name": "a", "wall_ms": 10.0, "status": "ok"},
            {"name": "b", "wall_ms": 5.0, "status": "ok"},
        ]}
        document = export_chrome_trace(legacy)
        _assert_valid_chrome(document)
        a, b = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert a["ts"] == 0.0 and a["dur"] == 10000.0
        assert b["ts"] == 10000.0 and b["dur"] == 5000.0

    def test_error_spans_flagged(self):
        enable_tracing()
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        document = export_chrome_trace(build_trace_document())
        (event,) = [e for e in document["traceEvents"]
                    if e["ph"] == "X"]
        assert event["cat"] == "error"
        assert "ValueError" in event["args"]["error"]

    def test_empty_trace_exports_cleanly(self):
        document = export_chrome_trace({"version": 2, "spans": []})
        _assert_valid_chrome(document)
        assert [e for e in document["traceEvents"]
                if e["ph"] == "X"] == []


class TestCliChromeTrace:
    @pytest.fixture(scope="class")
    def world_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("chrome-world")
        code = main([
            "generate", "--out", str(out), "--seed", "5",
            "--reddit-users", "10", "--tmg-users", "8",
            "--dm-users", "6", "--tmg-dm-overlap", "2",
            "--reddit-dark-overlap", "2",
        ])
        assert code == 0
        return out

    def test_trace_chrome_flag_writes_valid_file_and_manifest(
            self, world_dir, tmp_path):
        chrome = tmp_path / "run.chrome.json"
        code = main([
            "--trace-chrome", str(chrome), "link",
            "--known", str(world_dir / "dm.jsonl"),
            "--unknown", str(world_dir / "tmg.jsonl"),
            "--threshold", "0.5",
        ])
        disable_tracing()
        assert code == 0
        document = json.loads(chrome.read_text(encoding="utf-8"))
        _assert_valid_chrome(document)
        names = {e["name"] for e in document["traceEvents"]}
        assert "linker.link" in names
        manifest = load_manifest(manifest_path_for(chrome))
        assert manifest["command"] == "link"
        assert manifest["inputs"]["known"]["sha256"]
