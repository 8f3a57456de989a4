"""One workload in one process: set up, time ops, trace one op, check.

Run by ``run.py`` as::

    python workload.py --workload W --inputs DIR --seconds S \
        --trace {0,1,both} --trace-out FILE --top1-floor X

and prints one JSON object as its last line of output.  The process
reads only the files ``gen.py`` wrote and calls only the package's
public API.

Each run goes through four phases:

1. **Setup**, timed and repeated (``setup_s`` is the median): read the
   inputs and build whatever the first op needs.
2. **Reference op**, untimed: op 0 on a fresh state.  It absorbs
   process-level warm-up (the language detector, lazy imports) and its
   output is what later checks compare against.
3. **Timed ops**, a closed loop with one client, until ``--seconds``
   have passed.  Ops mutate their state (profile caches, a growing
   known set), so a state serves ``ops_per_state`` ops, each on inputs
   it has not seen, and is then replaced outside the timed region.  Op
   0 on every replacement state must reproduce the reference output.
4. **Traced op** (``--trace 1`` or ``both``): one more setup, op 0
   untraced to warm the state, then the first timed op again with every
   layer probe installed (see ``tracing.py``).  Its output must equal
   the same op's untraced output; its spans give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import scipy  # noqa: E402

import repro.pipeline as pipeline_module  # noqa: E402
from repro import LinkingPipeline, load_index, save_index  # noqa: E402
from repro.core import (AliasDocument, AliasLinker, BatchedLinker,  # noqa: E402
                        IncrementalLinker, KAttributor, LinkResult,
                        try_activity_profile)
from repro.forums import load_forum  # noqa: E402
from repro.obs import build_manifest  # noqa: E402
from repro.perf import ParallelExecutor  # noqa: E402
from repro.textproc import LanguageDetector, MessagePolisher  # noqa: E402

from tracing import SpanIndex, Tracer  # noqa: E402

#: Fewest timed ops a run makes, however short ``--seconds`` is.
MIN_OPS = 3


class _NoTrace:
    def span(self, name):
        return nullcontext()


NO_TRACE = _NoTrace()


@dataclass
class OpOutcome:
    """What one op did.  ``add_s`` is the ``add_known`` part of an
    incremental-mix op, whose ``seconds`` cover append and query."""

    seconds: float
    submitted: int
    result: LinkResult
    add_s: Optional[float] = None


def read_documents(path: Path, truth: Optional[Dict[str, str]] = None,
                   ) -> List[AliasDocument]:
    """Decode ``gen.py`` document records into refined documents; an
    unknown's true known doc_id goes into *truth* when given."""
    documents = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            forum, alias = record["doc_id"].split("/", 1)
            stamps = tuple(record["timestamps"])
            documents.append(AliasDocument(
                doc_id=record["doc_id"], alias=alias, forum=forum,
                text=record["text"], words=tuple(record["words"]),
                timestamps=stamps,
                activity=try_activity_profile(stamps)))
            if truth is not None:
                truth[record["doc_id"]] = record["truth"]
    return documents


class Workload:
    """Inputs, setup and op of one workload."""

    setup_repeats = 3
    ops_per_state = 1
    #: Messages read by setup (forum workloads only).
    messages = 0
    #: Size of the index snapshot setup wrote, in MB (index-query only).
    snapshot_mb = 0.0

    def __init__(self, inputs: Path, size: dict) -> None:
        self.inputs = inputs
        self.truth: Dict[str, str] = {}
        #: Seconds inside ``setup`` that are checks, not setup work.
        self.excluded_s = 0.0

    def setup(self, tracer):
        raise NotImplementedError

    def reset(self):
        """A state equal to a freshly set-up one (untimed)."""
        return self.setup(NO_TRACE)

    def op(self, state, j: int) -> OpOutcome:
        raise NotImplementedError

    def checks(self) -> List[str]:
        """Violations found during setup."""
        return []


def _timed_link(linker, unknowns) -> OpOutcome:
    start = time.perf_counter()
    result = linker.link(unknowns)
    return OpOutcome(time.perf_counter() - start, len(unknowns), result)


class DarkOpen(Workload):
    """Dark↔Open from raw dumps: ``LinkingPipeline().link_forums``."""

    # Loading two small dumps takes milliseconds; more repeats steady
    # the median.
    setup_repeats = 9

    def __init__(self, inputs, size):
        super().__init__(inputs, size)
        self.truth = json.loads((inputs / "truth.json").read_text())
        self._forums = None

    def setup(self, tracer):
        with tracer.span("storage.load"):
            reddit = load_forum(self.inputs / "reddit.jsonl")
            tmg = load_forum(self.inputs / "tmg.jsonl")
        self.messages = reddit.n_messages + tmg.n_messages
        self._forums = (reddit, tmg)
        return self._forums

    def reset(self):
        # The op only reads the forums, so they serve every op.
        return self._forums

    def op(self, state, j):
        reddit, tmg = state
        pipeline = LinkingPipeline()
        start = time.perf_counter()
        result = pipeline.link_forums(reddit, tmg)
        return OpOutcome(time.perf_counter() - start,
                         pipeline.report.refined_unknown, result)


class IndexQuery(Workload):
    """A known index at scale: fit, snapshot, cold load, then query."""

    def __init__(self, inputs, size):
        super().__init__(inputs, size)
        self.ops_per_state = size["batches"]
        self.per_op = size["per_op"]
        self.unknowns = read_documents(inputs / "unknown.jsonl", self.truth)
        self.snapshot = inputs / "index.snap"
        self.warm_vs_cold: Optional[bool] = None
        self._warm_result = None

    def setup(self, tracer):
        with tracer.span("inputs.decode"):
            known = read_documents(self.inputs / "known.jsonl")
        linker = AliasLinker().fit(known)
        with tracer.span("snapshot.save"):
            save_index(linker, self.snapshot)
        self.snapshot_mb = self.snapshot.stat().st_size / 1e6
        if self._warm_result is None:
            start = time.perf_counter()
            self._warm_result = linker.link(self._batch(0)).to_dict()
            self.excluded_s += time.perf_counter() - start
        del linker
        with tracer.span("snapshot.load"):
            return load_index(self.snapshot)

    def reset(self):
        return load_index(self.snapshot)

    def _batch(self, j):
        return self.unknowns[j * self.per_op:(j + 1) * self.per_op]

    def op(self, state, j):
        outcome = _timed_link(state, self._batch(j))
        if j == 0 and self.warm_vs_cold is None:
            self.warm_vs_cold = outcome.result.to_dict() == self._warm_result
        return outcome

    def checks(self):
        if self.warm_vs_cold is False:
            return ["cold-loaded linker linked the first batch differently "
                    "from the warm fitted linker"]
        return []


class IncrementalMix(Workload):
    """Appends beside reads: ``add_known`` then ``link`` per op."""

    def __init__(self, inputs, size):
        super().__init__(inputs, size)
        self.ops_per_state = size["cycles"]
        self.add = size["add"]
        self.per_op = size["per_op"]
        self.added = read_documents(inputs / "added.jsonl")
        self.unknowns = read_documents(inputs / "unknown.jsonl", self.truth)
        self._fitted = None

    def setup(self, tracer):
        with tracer.span("inputs.decode"):
            known = read_documents(self.inputs / "known.jsonl")
        self._fitted = IncrementalLinker(refit_after=10 ** 9).fit(known)
        start = time.perf_counter()
        state = self.reset()
        self.excluded_s += time.perf_counter() - start
        return state

    def reset(self):
        # Ops grow the known set, so each state is a copy of the fitted
        # linker; copying costs a tenth of refitting.
        return copy.deepcopy(self._fitted)

    def op(self, state, j):
        start = time.perf_counter()
        state.add_known(self.added[j * self.add:(j + 1) * self.add])
        add_s = time.perf_counter() - start
        outcome = _timed_link(
            state, self.unknowns[j * self.per_op:(j + 1) * self.per_op])
        outcome.add_s = add_s
        outcome.seconds += add_s
        return outcome


class BatchedIVJ(Workload):
    """The RAM-bounded batched procedure of §IV-J."""

    def __init__(self, inputs, size):
        super().__init__(inputs, size)
        self.ops_per_state = size["batches"]
        self.warm = size["warm"]
        self.per_op = size["per_op"]
        self.unknowns = read_documents(inputs / "unknown.jsonl", self.truth)

    def setup(self, tracer):
        with tracer.span("inputs.decode"):
            known = read_documents(self.inputs / "known.jsonl")
        linker = BatchedLinker(batch_size=100).fit(known)
        # One warm-up link fills the shared profile cache with every
        # known document's profiles, as a long-running service's would.
        linker.link(self.unknowns[:self.warm])
        return linker

    def op(self, state, j):
        start = self.warm + j * self.per_op
        return _timed_link(state, self.unknowns[start:start + self.per_op])


WORKLOADS = {"dark-open": DarkOpen, "index-query": IndexQuery,
             "incremental-mix": IncrementalMix, "batched-ivj": BatchedIVJ}


class Observations:
    """What the probes saw of the op's data, beside its spans."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.polish_reports = []
        self.refined_in = 0
        self.refined_out = 0
        self.reduced = 0
        self.candidates: Dict[str, List[str]] = {}
        self.added_rows = 0

    def polished(self, args, result):
        self.polish_reports.append(result[1])

    def refined(self, args, result):
        self.refined_in += args[0].n_users
        self.refined_out += len(result)

    def reduce(self, args, result):
        self.reduced += len(args[1])
        for candidates in result:
            # The last reduce that saw an unknown picked its final
            # candidate set (the batched procedure runs several).
            self.candidates[candidates.unknown.doc_id] = [
                d.doc_id for d in candidates.documents]

    def add(self, args, result):
        self.added_rows += len(args[1])


def probe_points(seen: Observations):
    """Every layer boundary the traced run records a span at."""
    return [
        (pipeline_module, "polish_forum", "textproc.polish", seen.polished),
        (pipeline_module, "refine_forum", "documents.refine", seen.refined),
        (MessagePolisher, "transform", "textproc.transform", None),
        (MessagePolisher, "drop_reason", "textproc.filter", None),
        (LanguageDetector, "is_english", "textproc.langdetect", None),
        (AliasLinker, "fit", "linker.fit", None),
        (AliasLinker, "link", "linker.link", None),
        (KAttributor, "fit", "kattribution.fit", None),
        (KAttributor, "reduce", "kattribution.reduce", seen.reduce),
        (ParallelExecutor, "map_shared", "linker.restage", None),
        (BatchedLinker, "link", "batch.link", None),
        (IncrementalLinker, "add_known", "incremental.add", seen.add),
    ]


def top1_hits(result: LinkResult, truth: Dict[str, str]):
    """``(hits, planted)`` over the matches whose unknown is planted."""
    planted = [m for m in result.matches if m.unknown_id in truth]
    hits = sum(m.candidate_id == truth[m.unknown_id] for m in planted)
    return hits, len(planted)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(wl: Workload, tracer: Tracer, op_id: int,
                  seen: Observations, traced: OpOutcome,
                  timed: List[OpOutcome], meta: dict,
                  top1: float) -> Dict[str, float]:
    """Per-layer metrics from the traced setup and op."""
    index = SpanIndex(tracer.spans)
    _, _, _, op_start, op_end = tracer.spans[op_id]
    op_s = op_end - op_start

    def in_op(name, *within, outside=()):
        return index.total(name, within=("op",) + within, outside=outside)

    reports = seen.polish_reports
    messages_in = sum(r.input_messages for r in reports)
    kept = sum(r.kept_messages for r in reports)
    add_s = in_op("incremental.add")
    adds = [o.add_s for o in timed if o.add_s is not None]
    matches = traced.result.matches
    recall_hits = sum(truth in seen.candidates[u]
                      for u, truth in wl.truth.items()
                      if u in seen.candidates)
    recall_base = sum(u in seen.candidates for u in wl.truth)
    reduce_s = in_op("kattribution.reduce")
    is_world = isinstance(wl, DarkOpen)
    return {
        "synth.build_world_s": meta["gen_s"] if is_world else 0.0,
        "gen.docs_s": 0.0 if is_world else meta["gen_s"],
        "storage.load_s": index.total("storage.load"),
        "storage.messages": wl.messages,
        "textproc.polish_s": in_op("textproc.polish"),
        "textproc.transform_s": in_op("textproc.transform"),
        "textproc.filter_s": in_op("textproc.filter"),
        "textproc.langdetect_s": in_op("textproc.langdetect"),
        "textproc.messages_in": messages_in,
        "textproc.kept_frac": _ratio(kept, messages_in),
        "textproc.drop.bots": sum(r.dropped_bot_accounts for r in reports),
        "textproc.drop.duplicates": sum(r.dropped_duplicates
                                        for r in reports),
        "textproc.drop.short": sum(r.dropped_short for r in reports),
        "textproc.drop.low_diversity": sum(r.dropped_low_diversity
                                           for r in reports),
        "textproc.drop.non_english": sum(r.dropped_non_english
                                         for r in reports),
        "textproc.drop.empty": sum(r.dropped_empty_after_cleaning
                                   for r in reports),
        "documents.refine_s": in_op("documents.refine"),
        "documents.refined_frac": _ratio(seen.refined_out, seen.refined_in),
        "features.fit_s": index.total("linker.fit", outside=("batch.link",)),
        "batch.kattr_fit_s": in_op("kattribution.fit", "batch.link",
                                   outside=("linker.fit",)),
        "kattribution.reduce_s": reduce_s,
        "kattribution.reduce_ms_per_unknown":
            _ratio(reduce_s * 1e3, seen.reduced),
        "kattribution.recall_at_k": _ratio(recall_hits, recall_base),
        "linker.restage_s": in_op("linker.restage"),
        "linker.link_s": in_op("linker.link", outside=("batch.link",)),
        "linker.accept_frac": _ratio(sum(m.accepted for m in matches),
                                     len(matches)),
        "snapshot.save_s": index.total("snapshot.save"),
        "snapshot.load_s": index.total("snapshot.load"),
        "snapshot.mb": wl.snapshot_mb,
        "incremental.add_s": add_s,
        "incremental.add_rows_per_s": _ratio(seen.added_rows, add_s),
        "incremental.add_p50_s": statistics.median(adds) if adds else 0.0,
        "batch.link_s": in_op("batch.link"),
        "batch.final_s": (in_op("linker.fit", "batch.link")
                          + in_op("linker.link", "batch.link")),
        "quality.top1_acc": top1,
        "trace.op_s": op_s,
        "trace.coverage": _ratio(index.children_total(op_id), op_s),
        "trace.overhead_frac": op_s / statistics.median(
            o.seconds for o in timed) - 1.0,
    }


def run(wl: Workload, seconds: float, mode: str, trace_out: Path,
        meta: dict, top1_floor: float) -> dict:
    """All four phases; returns the result ``main`` prints."""
    report_e2e = mode != "1"
    report_layers = mode != "0"
    violations: List[str] = []

    setup_times = []
    for _ in range(wl.setup_repeats if report_e2e else 1):
        state = None
        gc.collect()
        wl.excluded_s = 0.0
        start = time.perf_counter()
        state = wl.setup(NO_TRACE)
        setup_times.append(time.perf_counter() - start - wl.excluded_s)

    def check_op(outcome: OpOutcome, label: str) -> None:
        result = outcome.result
        if len(result.matches) + len(result.skipped) != outcome.submitted:
            violations.append(
                f"{label}: {len(result.matches)} matches + "
                f"{len(result.skipped)} skipped != {outcome.submitted} "
                f"unknowns submitted")

    reference = wl.op(state, 0)
    check_op(reference, "reference op")
    expected = reference.result.to_dict()
    # The traced op repeats the first timed op, op 1 on a fresh state,
    # so that it runs warm like the ops it is compared with.
    traced_j = min(1, wl.ops_per_state - 1)
    expected_traced = expected if traced_j == 0 else None

    timed: List[OpOutcome] = []
    attempted = failed = hits = planted = ops_run = 0
    j = 1
    first_state = True
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or ops_run < MIN_OPS:
        ops_run += 1
        if j >= wl.ops_per_state:
            state = None
            gc.collect()
            state = wl.reset()
            j = 0
            first_state = False
        gc.collect()
        try:
            outcome = wl.op(state, j)
        except Exception:  # noqa: BLE001 - counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            attempted += reference.submitted
            failed += reference.submitted
            j += 1
            continue
        check_op(outcome, f"op {len(timed)}")
        output = outcome.result.to_dict()
        if j == 0 and output != expected:
            violations.append(f"op {len(timed)} on a fresh state differs "
                              f"from the reference op")
        if first_state and j == traced_j:
            expected_traced = output
        result = outcome.result
        attempted += outcome.submitted
        failed += len(result.skipped) + len(result.degraded())
        op_hits, op_planted = top1_hits(result, wl.truth)
        hits += op_hits
        planted += op_planted
        timed.append(outcome)
        j += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    top1 = _ratio(hits, planted)
    if top1 < top1_floor:
        violations.append(f"top1_acc {top1:.4f} is below its floor "
                          f"{top1_floor}")
    violations.extend(wl.checks())
    if not timed:
        violations.append("no timed op succeeded")
        report_e2e = report_layers = False

    metrics: Dict[str, float] = {}
    if report_e2e:
        metrics.update({
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(o.seconds for o in timed),
            "unknowns_per_s": statistics.median(
                o.submitted / o.seconds for o in timed),
            "peak_rss_mb": peak_rss_mb,
        })
    if report_layers:
        state = None
        gc.collect()
        tracer = Tracer()
        seen = Observations()
        points = probe_points(seen)
        with tracer.probes(points), tracer.span("setup"):
            state = wl.setup(tracer)
        if traced_j:
            warm = wl.op(state, 0)
            check_op(warm, "warm-up op before the traced op")
            if warm.result.to_dict() != expected:
                violations.append("op 0 before the traced op differs from "
                                  "the reference op")
        seen.clear()
        gc.collect()
        with tracer.probes(points), tracer.span("op") as op_span:
            traced = wl.op(state, traced_j)
        check_op(traced, "traced op")
        if traced.result.to_dict() != expected_traced:
            violations.append("traced op output differs from the same op "
                              "untraced")
        layers = layer_metrics(wl, tracer, op_span[0], seen, traced, timed,
                               meta, top1)
        metrics.update(layers)
        tracer.write(trace_out, {
            "workload": meta["workload"], "seed": meta["seed"],
            "op_span": op_span[0],
            "self_s": SpanIndex(tracer.spans).self_times(),
            "metrics": layers})

    return {
        "correct": not violations,
        "violations": violations,
        "attempted": attempted,
        "failed": failed,
        "ops": len(timed),
        "setup_runs": setup_times,
        "metrics": metrics,
        "environment": environment(meta),
    }


def environment(meta: dict) -> dict:
    """Cores, versions, BLAS threads, git rev and seed of this run."""
    record = build_manifest(
        command="benchmarks/e2e/workload.py", seed=meta["seed"],
        extra={"workload": meta["workload"], "scipy": scipy.__version__,
               "blas_threads": {var: os.environ.get(var) for var in (
                   "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS")}})
    # The interpreter's install path says nothing the version does not.
    del record["executable"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"),
                        default="both")
    parser.add_argument("--trace-out", type=Path, required=True)
    parser.add_argument("--top1-floor", type=float, default=0.0)
    args = parser.parse_args(argv)
    meta = json.loads((args.inputs / "meta.json").read_text())
    wl = WORKLOADS[args.workload](args.inputs, meta["size"])
    outcome = run(wl, args.seconds, args.trace, args.trace_out, meta,
                  args.top1_floor)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
