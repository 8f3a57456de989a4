"""Regression diffing: metric direction, e2e rows, CLI gating."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, DatasetError
from repro.obs.diff import (
    diff_benchmarks,
    diff_metrics,
    diff_traces,
    metric_direction,
    render_diff,
    render_trace_diff,
)

SMOKE_BASELINE = (Path(__file__).resolve().parents[2] / "benchmarks"
                  / "results" / "e2e_smoke.json")


def _run(workload="dark-open", **metrics):
    """One workload result as ``benchmarks/e2e/run.py`` records it."""
    values = {"op_p50_s": 1.0, "setup_s": 0.5, "unknowns_per_s": 4.0,
              "storage.messages": 975, "textproc.drop.short": 136,
              "quality.top1_acc": 0.9}
    values.update(metrics)
    return {"workload": workload, "correct": True, "attempted": 5,
            "failed": 0, "ops": 3, "violations": [], "metrics": values}


def _e2e_doc(*sets, seed=7, smoke=True):
    """A ``run.py --out`` document; each argument is one set."""
    return {"seed": seed, "seconds": 1.0, "smoke": smoke,
            "runs": [list(s) for s in sets or ([_run()],)],
            "agreement": []}


class TestMetricDirection:
    @pytest.mark.parametrize("name", [
        "fit_s", "restage_cached_s", "parallel_fork_ms",
        "parallel_pickle_bytes", "peak_rss_mb", "rss_kb",
    ])
    def test_lower_is_better(self, name):
        assert metric_direction(name) == "lower"

    @pytest.mark.parametrize("name", [
        "restage_speedup", "links_per_s", "scan_throughput",
        "roc_auc", "stage2_precision",
    ])
    def test_higher_is_better(self, name):
        assert metric_direction(name) == "higher"

    @pytest.mark.parametrize("name", ["n_known", "workers", "count"])
    def test_unknown_names_ungated(self, name):
        assert metric_direction(name) is None


class TestDiffMetrics:
    def test_injected_25pct_slowdown_flagged_at_20pct(self):
        entries = diff_metrics({"fit_s": 1.0}, {"fit_s": 1.25},
                               threshold=0.20)
        (entry,) = entries
        assert entry["regressed"]
        assert entry["ratio"] == 1.25

    def test_within_threshold_passes(self):
        (entry,) = diff_metrics({"fit_s": 1.0}, {"fit_s": 1.1},
                                threshold=0.20)
        assert not entry["regressed"]

    def test_speedup_drop_is_a_regression(self):
        (entry,) = diff_metrics({"restage_speedup": 4.0},
                                {"restage_speedup": 3.0},
                                threshold=0.20)
        assert entry["regressed"]

    def test_speedup_gain_is_not(self):
        (entry,) = diff_metrics({"restage_speedup": 4.0},
                                {"restage_speedup": 6.0},
                                threshold=0.20)
        assert not entry["regressed"]

    def test_noise_floor_suppresses_tiny_baselines(self):
        # A 200x blow-up of a sub-millisecond timing is scheduler
        # noise, not a regression.
        (entry,) = diff_metrics({"fit_s": 0.0005}, {"fit_s": 0.1},
                                threshold=0.20, min_value=1e-3)
        assert not entry["regressed"]

    def test_undirected_metrics_never_gate(self):
        (entry,) = diff_metrics({"quality.top1_acc": 0.9},
                                {"quality.top1_acc": 0.1})
        assert entry["direction"] is None
        assert not entry["regressed"]

    def test_integer_counts_must_be_equal(self):
        (same,) = diff_metrics({"storage.messages": 975},
                               {"storage.messages": 975})
        (changed,) = diff_metrics({"storage.messages": 975},
                                  {"storage.messages": 976})
        assert same["direction"] == changed["direction"] == "equal"
        assert not same["regressed"]
        assert changed["regressed"]

    def test_booleans_and_non_numerics_skipped(self):
        entries = diff_metrics(
            {"outputs_identical": True, "label": "a", "fit_s": 1.0},
            {"outputs_identical": False, "label": "b", "fit_s": 1.0})
        assert [e["metric"] for e in entries] == ["fit_s"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            diff_metrics({}, {}, threshold=-0.1)


class TestDiffBenchmarks:
    def test_identical_documents_have_no_regressions(self):
        doc = _e2e_doc()
        result = diff_benchmarks(doc, doc)
        assert result["regressions"] == result["mismatches"] == []
        assert result["only_old"] == result["only_new"] == []

    def test_rows_keyed_by_workload(self):
        doc = _e2e_doc([_run("dark-open"), _run("index-query")])
        result = diff_benchmarks(doc, doc)
        assert [row["key"] for row in result["rows"]] \
            == ["dark-open", "index-query"]

    def test_row_regression_surfaces_with_its_key(self):
        result = diff_benchmarks(
            _e2e_doc([_run("dark-open"), _run("index-query")]),
            _e2e_doc([_run("dark-open"),
                      _run("index-query", op_p50_s=1.3)]),
            threshold=0.20)
        (regression,) = result["regressions"]
        assert regression["metric"] == "op_p50_s"
        assert regression["key"] == "index-query"

    def test_key_fields_not_diffed_as_metrics(self):
        result = diff_benchmarks(_e2e_doc(), _e2e_doc())
        metrics = {e["metric"] for row in result["rows"]
                   for e in row["entries"]}
        assert metrics.isdisjoint({"workload", "attempted", "failed",
                                   "ops", "correct"})

    def test_median_over_sets(self):
        new = _e2e_doc([_run(op_p50_s=1.0, **{"storage.messages": 10})],
                       [_run(op_p50_s=9.0, **{"storage.messages": 11})],
                       [_run(op_p50_s=1.1, **{"storage.messages": 10})],
                       [_run(op_p50_s=1.2, **{"storage.messages": 11})])
        result = diff_benchmarks(_e2e_doc(), new)
        entries = {e["metric"]: e for e in result["rows"][0]["entries"]}
        # One slow outlier set does not move the median (1.15 s).
        assert entries["op_p50_s"]["new"] == pytest.approx(1.15)
        assert not entries["op_p50_s"]["regressed"]
        # median_low keeps a count a count: 10, not 10.5.
        assert entries["storage.messages"]["new"] == 10
        assert isinstance(entries["storage.messages"]["new"], int)

    def test_count_mismatch_is_not_a_timing_regression(self):
        result = diff_benchmarks(
            _e2e_doc(), _e2e_doc([_run(**{"textproc.drop.short": 137})]))
        assert result["regressions"] == []
        (mismatch,) = result["mismatches"]
        assert mismatch["metric"] == "textproc.drop.short"
        assert mismatch["key"] == "dark-open"

    @pytest.mark.parametrize("field, value", [("seed", 8),
                                              ("smoke", False)])
    def test_different_seed_or_smoke_rejected(self, field, value):
        with pytest.raises(DatasetError, match=field):
            diff_benchmarks(_e2e_doc(),
                            _e2e_doc(**{field: value}))

    @pytest.mark.parametrize("document", [
        {"workers": 4, "sizes": [{"n_known": 300, "fit_s": 1.0}]},
        {"seed": 7, "smoke": True, "runs": []},
        {"seed": 7, "smoke": True, "runs": [[{"metrics": {}}]]},
    ])
    def test_non_e2e_document_rejected(self, document):
        with pytest.raises(DatasetError, match="OLD"):
            diff_benchmarks(document, _e2e_doc())

    def test_unmatched_rows_reported_not_gated(self):
        result = diff_benchmarks(_e2e_doc([_run("dark-open")]),
                                 _e2e_doc([_run("index-query")]))
        assert result["rows"] == []
        assert result["regressions"] == []
        assert result["only_old"] == ["dark-open"]
        assert result["only_new"] == ["index-query"]

    def test_committed_smoke_baseline_diffs_clean(self):
        baseline = json.loads(SMOKE_BASELINE.read_text(encoding="utf-8"))
        assert baseline["smoke"] and len(baseline["runs"]) == 3
        result = diff_benchmarks(baseline, baseline)
        assert result["regressions"] == result["mismatches"] == []
        assert {row["key"] for row in result["rows"]} == {
            "dark-open", "index-query", "incremental-mix", "batched-ivj"}

    def test_render_flags_regressions(self):
        text = render_diff(diff_benchmarks(
            _e2e_doc(), _e2e_doc([_run(op_p50_s=2.0)]), threshold=0.20))
        assert "REGRESSION" in text
        assert "1 regression(s) beyond 20% threshold" in text

    def test_render_flags_mismatches(self):
        text = render_diff(diff_benchmarks(
            _e2e_doc(), _e2e_doc([_run(**{"storage.messages": 1})])))
        assert "MISMATCH" in text
        assert "1 count mismatch(es)" in text

    def test_render_clean_diff(self):
        text = render_diff(diff_benchmarks(_e2e_doc(), _e2e_doc()))
        assert "REGRESSION" not in text
        assert "0 regression(s)" in text


def _trace_doc(wall_ms):
    return {"version": 2, "metrics": {}, "spans": [
        {"name": "linker.restage", "wall_ms": wall_ms,
         "cpu_ms": wall_ms, "status": "ok"},
    ]}


class TestDiffTraces:
    def test_stage_slowdown_flagged(self):
        result = diff_traces(_trace_doc(100.0), _trace_doc(130.0),
                             threshold=0.20)
        (regression,) = result["regressions"]
        assert regression["stage"] == "linker.restage"
        assert regression["ratio"] == pytest.approx(1.3)

    def test_identical_traces_clean(self):
        result = diff_traces(_trace_doc(100.0), _trace_doc(100.0))
        assert result["regressions"] == []

    def test_sub_min_value_stages_never_gate(self):
        result = diff_traces(_trace_doc(0.5), _trace_doc(50.0),
                             threshold=0.20, min_value=1.0)
        assert result["regressions"] == []

    def test_render_lists_stages(self):
        text = render_trace_diff(
            diff_traces(_trace_doc(100.0), _trace_doc(130.0)))
        assert "linker.restage" in text
        assert "REGRESSION" in text


class TestBenchDiffCli:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_identical_inputs_exit_zero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _e2e_doc())
        new = self._write(tmp_path, "new.json", _e2e_doc())
        assert main(["bench-diff", old, new]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _e2e_doc())
        new = self._write(tmp_path, "new.json",
                          _e2e_doc([_run(op_p50_s=1.25)]))
        assert main(["bench-diff", old, new,
                     "--threshold", "0.2"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_warn_only_reports_but_exits_zero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _e2e_doc())
        new = self._write(tmp_path, "new.json",
                          _e2e_doc([_run(op_p50_s=1.25)]))
        assert main(["bench-diff", old, new, "--warn-only"]) == 0
        assert "REGRESSION" in capsys.readouterr().out

    def test_count_mismatch_fails_even_with_warn_only(self, tmp_path,
                                                      capsys):
        old = self._write(tmp_path, "old.json", _e2e_doc())
        new = self._write(tmp_path, "new.json",
                          _e2e_doc([_run(**{"textproc.drop.short": 1})]))
        assert main(["bench-diff", old, new, "--warn-only"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_loose_threshold_tolerates_more(self, tmp_path):
        old = self._write(tmp_path, "old.json", _e2e_doc())
        new = self._write(tmp_path, "new.json",
                          _e2e_doc([_run(op_p50_s=1.25)]))
        assert main(["bench-diff", old, new,
                     "--threshold", "0.5"]) == 0

    def test_json_output_is_the_diff_document(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _e2e_doc())
        new = self._write(tmp_path, "new.json",
                          _e2e_doc([_run(setup_s=5.0)]))
        assert main(["bench-diff", old, new, "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["threshold"] == pytest.approx(0.20)
        assert document["regressions"]

    def test_different_seed_fails_cleanly(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _e2e_doc())
        new = self._write(tmp_path, "new.json", _e2e_doc(seed=8))
        assert main(["bench-diff", old, new, "--warn-only"]) == 1
        assert "different seed" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _e2e_doc())
        assert main(["bench-diff", old,
                     str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _e2e_doc())
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert main(["bench-diff", old, str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_help_lists_only_the_three_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench-diff", "--help"])
        out = capsys.readouterr().out
        options = sorted({word.strip("[],") for word in out.split()
                          if word.startswith(("--", "[--"))})
        assert options == ["--help", "--json", "--threshold",
                           "--warn-only"]


class TestStatsCompareCli:
    def test_compare_renders_stage_diff(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        first.write_text(json.dumps(_trace_doc(100.0)),
                         encoding="utf-8")
        second.write_text(json.dumps(_trace_doc(130.0)),
                          encoding="utf-8")
        assert main(["stats", str(first),
                     "--compare", str(second)]) == 0
        out = capsys.readouterr().out
        assert "stage diff" in out
        assert "linker.restage" in out
        assert "REGRESSION" in out
