"""Command-line interface: ``darklight``.

Six subcommands cover the end-to-end workflow of the paper:

* ``generate`` — build a synthetic world and save its forums as JSONL;
* ``polish`` — run the 12-step cleaning pipeline on a stored forum;
* ``calibrate`` — find the acceptance threshold on a forum's alter
  egos (Section IV-E);
* ``link`` — link the aliases of one forum against another
  (Sections IV-I/IV-J); ``--checkpoint FILE``/``--resume`` make long
  runs crash-safe (see ``docs/robustness.md``); ``--index SNAP``
  links against a prebuilt snapshot instead of refitting;
* ``index`` — ``build``/``verify``/``info`` for crash-safe persistent
  index snapshots: fit once, link many times from a
  checksum-verified on-disk image;
* ``eval episodes`` — run the deterministic episode-style evaluation
  harness (``docs/evaluation.md``): seeded N-way verification
  episodes scored per ``(drift, word-bucket)`` cell, with
  ``--write-golden``/``--check`` gating runs against the committed
  golden suite;
* ``profile`` — extract the §V-D personal profile of one alias;
* ``stats`` — pretty-print a ``--trace`` JSON file (per-stage totals,
  slowest spans, metric table with p50/p95/p99); ``--compare OTHER``
  diffs two trace files per stage instead;
* ``bench-diff`` — compare two end-to-end benchmark runs and exit
  nonzero on a changed count or a timing beyond ``--threshold``.

Global telemetry flags (before the subcommand): ``--trace FILE.json``
records every pipeline span plus a metrics snapshot to *FILE*;
``--trace-chrome FILE.json`` additionally exports the span tree as
Chrome Trace Event JSON for ``about://tracing``/Perfetto;
``--profile``/``--profile-alloc`` attach RSS/GC (and tracemalloc)
resource payloads to every span.
Every trace output gains a ``*.manifest.json`` sidecar recording
config, seeds, env knobs, versions, git rev and input digests.
``--log-level``/``--log-format`` configure structured logging (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.config import PAPER_THRESHOLD, PipelineConfig
from repro.core.threshold import ThresholdCalibrator
from repro.errors import DatasetError, ReproError
from repro.forums.storage import load_forum, save_forum, save_world
from repro.obs.diff import (
    DEFAULT_THRESHOLD,
    diff_benchmarks,
    diff_traces,
    render_diff,
    render_trace_diff,
)
from repro.obs.logging import LOG_FORMAT_ENV, LOG_LEVEL_ENV, configure_logging
from repro.obs.manifest import build_manifest, manifest_path_for, \
    write_manifest
from repro.obs.prof import disable_profiling, enable_profiling, \
    profiling_from_env
from repro.obs.report import load_trace, render_stats, \
    write_chrome_trace, write_trace
from repro.obs.spans import enable_tracing, reset_trace
from repro.pipeline import LinkingPipeline
from repro.profiling.extractor import ProfileExtractor
from repro.profiling.report import render_report
from repro.synth.world import WorldConfig, build_world
from repro.textproc.cleaning import CleaningConfig, polish_forum

#: Subcommands that only *read* telemetry; the global --trace /
#: --trace-chrome flags never record a trace of these.
_ANALYSIS_COMMANDS = ("stats", "bench-diff")


def _cmd_generate(args: argparse.Namespace) -> int:
    config = WorldConfig(
        seed=args.seed,
        reddit_users=args.reddit_users,
        tmg_users=args.tmg_users,
        dm_users=args.dm_users,
        tmg_dm_overlap=args.tmg_dm_overlap,
        reddit_dark_overlap=args.reddit_dark_overlap,
    )
    world = build_world(config)
    paths = save_world(list(world.forums.values()), args.out)
    for path in paths:
        forum = world.forums[path.stem]
        print(f"wrote {path} ({forum.n_users} users, "
              f"{forum.n_messages} messages)")
    print(f"ground-truth links: {len(world.links)}")
    return 0


def _cmd_polish(args: argparse.Namespace) -> int:
    forum = load_forum(args.input)
    polished, report = polish_forum(forum, CleaningConfig())
    save_forum(polished, args.output)
    print(f"wrote {args.output}")
    for key, value in report.as_dict().items():
        print(f"  {key}: {value}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.eval.alterego import build_alter_ego_dataset

    forum = load_forum(args.forum)
    polished, _ = polish_forum(forum, CleaningConfig())
    dataset = build_alter_ego_dataset(polished, seed=args.seed)
    if not dataset.alter_egos:
        print("no users eligible for alter-ego generation",
              file=sys.stderr)
        return 1
    pipeline = LinkingPipeline(PipelineConfig(threshold=0.0))
    result = pipeline.link_documents(dataset.originals,
                                     dataset.alter_egos)
    calibration = ThresholdCalibrator(
        target_recall=args.target_recall).calibrate(
        result.matches, dataset.truth)
    print(f"aliases: {dataset.n_originals} known, "
          f"{dataset.n_alter_egos} alter egos")
    print(f"threshold: {calibration.threshold:.4f}")
    print(f"precision: {calibration.precision:.2%}")
    print(f"recall:    {calibration.recall:.2%}")
    print(f"AUC:       {calibration.curve.auc():.3f}")
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    unknown = load_forum(args.unknown)
    if args.index is not None:
        from repro.resilience.snapshot import load_index

        linker = load_index(args.index)
        if args.threshold is not None:
            linker.threshold = args.threshold
        threshold = linker.threshold
        # The pipeline only refines the unknowns here, but it also
        # states the run's knobs in the manifest: record the loaded
        # linker's values, not the pipeline defaults.
        pipeline = LinkingPipeline(
            PipelineConfig(threshold=threshold),
            batch_size=getattr(linker, "batch_size", None),
        )
        unknown_docs = pipeline.prepare_forum(unknown, is_known=False)
        refined_known = len(linker._known or ())
        args.manifest_config = dict(pipeline.manifest_config(),
                                    index=str(args.index))
        result = linker.link(unknown_docs,
                             checkpoint=args.checkpoint,
                             resume=args.resume)
    else:
        threshold = args.threshold if args.threshold is not None \
            else PAPER_THRESHOLD
        known = load_forum(args.known)
        pipeline = LinkingPipeline(
            PipelineConfig(threshold=threshold),
            batch_size=args.batch_size,
        )
        args.manifest_config = pipeline.manifest_config()
        known_docs = pipeline.prepare_forum(known, is_known=True)
        unknown_docs = pipeline.prepare_forum(unknown, is_known=False)
        refined_known = len(known_docs)
        result = pipeline.link_documents(known_docs, unknown_docs,
                                         checkpoint=args.checkpoint,
                                         resume=args.resume)
    accepted = result.accepted()
    if args.json:
        document = result.to_dict()
        document["report"] = {
            "refined_known": refined_known,
            "refined_unknown": pipeline.report.refined_unknown,
            "threshold": threshold,
        }
        print(json.dumps(document, indent=2))
        return 0
    print(f"known aliases after refinement:   {refined_known}")
    print(f"unknown aliases after refinement: "
          f"{pipeline.report.refined_unknown}")
    print(f"pairs above threshold {threshold}: {len(accepted)}")
    for match in sorted(accepted, key=lambda m: -m.score):
        print(f"  {match.unknown_id} -> {match.candidate_id} "
              f"(score {match.score:.4f})")
    if result.skipped:
        print(f"skipped unknowns: {len(result.skipped)}")
        for entry in result.skipped:
            print(f"  {entry.unknown_id} [{entry.stage}] "
                  f"{entry.reason}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.resilience.snapshot import save_index, snapshot_info, \
        verify_index

    if args.index_command == "build":
        forum = load_forum(args.known)
        pipeline = LinkingPipeline(
            PipelineConfig(threshold=args.threshold),
            batch_size=args.batch_size,
        )
        known = pipeline.prepare_forum(forum, is_known=True)
        if not known:
            print("no known aliases survived refinement",
                  file=sys.stderr)
            return 1
        linker = pipeline._make_linker()
        build_start = time.perf_counter()
        linker.fit(known)
        build_wall_s = time.perf_counter() - build_start
        # Manifest provenance: what the build cost, so snapshot
        # manifests attribute the one-off fit separately from the many
        # loads that amortize it.
        args.manifest_config = dict(
            pipeline.manifest_config(),
            build_wall_s=round(build_wall_s, 6))
        info = save_index(linker, args.out)
        print(f"wrote {info['path']} ({info['bytes']} bytes, "
              f"{info['sections']} sections, {info['n_known']} known "
              f"aliases, algo {info['algo']}, "
              f"config {info['config_digest']})")
        print(f"build: {build_wall_s:.2f}s")
        return 0
    if args.index_command == "verify":
        report = verify_index(args.snapshot)
        for section in report.sections:
            status = "ok" if section.ok else \
                f"DAMAGED ({section.error})"
            print(f"  {section.name:28s} {section.nbytes:>10d}  "
                  f"{status}")
        if report.ok:
            print(f"{report.path}: all {len(report.sections)} "
                  f"sections verified")
            return 0
        print(f"{report.path}: {len(report.damaged())} damaged "
              f"section(s): {', '.join(report.damaged())}",
              file=sys.stderr)
        return 1
    header = snapshot_info(args.snapshot)
    for key in ("path", "format_version", "algo", "git_rev",
                "config_digest", "file_bytes", "expected_bytes"):
        if key in header:
            print(f"{key}: {header[key]}")
    config = header.get("config", {})
    for key in sorted(config):
        print(f"config.{key}: {config[key]}")
    print(f"sections: {len(header.get('sections', []))}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.config import FeatureConfig
    from repro.eval.episodes import (
        EpisodeConfig,
        GOLDEN_PATH,
        check_golden,
        golden_suite,
        golden_world_config,
        manifest_bytes,
        manifest_digest,
        run_episodes,
        sample_episodes,
        write_golden,
    )

    features = FeatureConfig.from_spec(args.features)
    golden_mode = (args.golden or args.check is not None
                   or args.write_golden is not None)
    if golden_mode:
        episodes, config = golden_suite(features=features)
    else:
        from repro.synth.world import build_world

        config = EpisodeConfig(
            seed=args.seed,
            n_way=args.n_way,
            episodes_per_cell=args.episodes_per_cell,
            buckets=tuple(int(b) for b in args.buckets.split(",")),
            open_fraction=args.open_fraction,
            features=features,
        )
        # Same world recipe as the golden suite, reseeded: the suite
        # is then a pure function of --seed (identical manifests and
        # scores on every rerun).
        world = build_world(replace(golden_world_config(),
                                    seed=args.seed))
        episodes = sample_episodes(world, config)
    digest = manifest_digest(episodes, config)
    args.manifest_config = dict(config.to_dict(),
                                variant=args.variant,
                                episode_manifest_sha256=digest)
    report = run_episodes(episodes, features=features,
                          variant=args.variant)
    if args.manifest_out is not None:
        Path(args.manifest_out).write_bytes(
            manifest_bytes(episodes, config))
        print(f"episode manifest written to {args.manifest_out}",
              file=sys.stderr)
    if args.out is not None:
        document = dict(report.to_dict(), config=config.to_dict(),
                        manifest_sha256=digest)
        Path(args.out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"episode report written to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(dict(report.to_dict(),
                              manifest_sha256=digest),
                         indent=2, sort_keys=True))
    else:
        print(f"episodes: {len(episodes)} "
              f"(variant {report.variant}, features {report.features}, "
              f"manifest sha256 {digest[:12]}...)")
        for cell, metrics in report.cells.items():
            print(f"  {cell:18s} auc {metrics['auc']:.3f}  "
                  f"a@1 {metrics['accuracy_at_1']:.3f}  "
                  f"a@3 {metrics['accuracy_at_3']:.3f}  "
                  f"brier {metrics['brier']:.3f}  "
                  f"({metrics['n_episodes']:.0f} episodes, "
                  f"{metrics['n_skipped']:.0f} skipped)")
    if args.write_golden is not None:
        path = args.write_golden or GOLDEN_PATH
        write_golden(path, report, episodes, config)
        print(f"golden suite written to {path}", file=sys.stderr)
    if args.check is not None:
        path = args.check or GOLDEN_PATH
        breaches = check_golden(path, report, episodes, config,
                                tolerance=args.tolerance)
        if breaches:
            print(f"golden check FAILED against {path}:",
                  file=sys.stderr)
            for breach in breaches:
                print(f"  {breach}", file=sys.stderr)
            return 1
        print(f"golden check passed against {path} "
              f"(tolerance {args.tolerance:g})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace_file)
    if args.compare is not None:
        other = load_trace(args.compare)
        result = diff_traces(trace, other,
                             threshold=args.compare_threshold)
        print(f"stage diff: {args.trace_file} -> {args.compare}")
        print(render_trace_diff(result))
        return 0
    print(render_stats(trace))
    return 0


def _load_bench_results(path: str) -> dict:
    """Load one ``benchmarks/e2e/run.py --out`` results JSON."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetError(f"benchmark file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise DatasetError(
            f"benchmark file {path} is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise DatasetError(
            f"benchmark file {path} is not a JSON object")
    return document


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    old = _load_bench_results(args.old)
    new = _load_bench_results(args.new)
    result = diff_benchmarks(old, new, threshold=args.threshold)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(f"bench diff: {args.old} -> {args.new}")
        print(render_diff(result))
    if result["mismatches"] or (result["regressions"]
                                and not args.warn_only):
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    forum = load_forum(args.forum)
    record = forum.users.get(args.alias)
    if record is None:
        print(f"alias {args.alias!r} not found in {args.forum}",
              file=sys.stderr)
        return 1
    profile = ProfileExtractor().extract(record)
    print(render_report(profile, dark_alias=args.dark_alias))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darklight",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--trace", metavar="FILE.json", default=None,
                        help="record a span trace + metrics snapshot "
                             "of this run to FILE.json")
    parser.add_argument("--trace-chrome", metavar="FILE.json",
                        default=None,
                        help="additionally export the span tree as "
                             "Chrome Trace Event JSON (open in "
                             "about://tracing or Perfetto)")
    parser.add_argument("--profile", action="store_true",
                        help="attach RSS/GC resource payloads to "
                             "every span (requires --trace or "
                             "--trace-chrome to be useful)")
    parser.add_argument("--profile-alloc", action="store_true",
                        help="like --profile, plus tracemalloc "
                             "net/peak allocation per span (slower)")
    parser.add_argument("--log-level", default=None,
                        help="structured-log level (DEBUG/INFO/...; "
                             "default from REPRO_LOG_LEVEL)")
    parser.add_argument("--log-format", default=None,
                        choices=("kv", "json"),
                        help="structured-log format "
                             "(default from REPRO_LOG_FORMAT)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate",
                         help="build a synthetic world (JSONL output)")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--reddit-users", type=int, default=400)
    gen.add_argument("--tmg-users", type=int, default=120)
    gen.add_argument("--dm-users", type=int, default=80)
    gen.add_argument("--tmg-dm-overlap", type=int, default=20)
    gen.add_argument("--reddit-dark-overlap", type=int, default=30)
    gen.set_defaults(func=_cmd_generate)

    pol = sub.add_parser("polish",
                         help="run the 12-step cleaning pipeline")
    pol.add_argument("--input", required=True)
    pol.add_argument("--output", required=True)
    pol.set_defaults(func=_cmd_polish)

    cal = sub.add_parser("calibrate",
                         help="find the threshold on alter egos (IV-E)")
    cal.add_argument("--forum", required=True)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--target-recall", type=float, default=0.80)
    cal.set_defaults(func=_cmd_calibrate)

    link = sub.add_parser("link",
                          help="link unknown forum aliases to known ones")
    source = link.add_mutually_exclusive_group(required=True)
    source.add_argument("--known",
                        help="known-aliases forum JSONL (fits a fresh "
                             "index)")
    source.add_argument("--index", metavar="SNAP",
                        help="link against a prebuilt snapshot from "
                             "'index build' (verified on load)")
    link.add_argument("--unknown", required=True)
    link.add_argument("--threshold", type=float, default=None,
                      help="acceptance threshold (default: the "
                           "snapshot's with --index, else the "
                           f"paper's {PAPER_THRESHOLD})")
    link.add_argument("--batch-size", type=int, default=None,
                      help="enable the IV-J batched pipeline (with "
                           "--known only: a snapshot fixes its own)")
    link.add_argument("--json", action="store_true",
                      help="print the full LinkResult as JSON")
    link.add_argument("--checkpoint", metavar="FILE", default=None,
                      help="persist each finished unknown to FILE "
                           "(atomic; enables --resume after a crash)")
    link.add_argument("--resume", action="store_true",
                      help="skip unknowns already completed in "
                           "--checkpoint FILE")
    link.set_defaults(func=_cmd_link)

    index = sub.add_parser(
        "index",
        help="build / verify / inspect persistent index snapshots")
    isub = index.add_subparsers(dest="index_command", required=True)
    ibuild = isub.add_parser(
        "build", help="fit a linker on a forum and snapshot it")
    ibuild.add_argument("--known", required=True,
                        help="known-aliases forum JSONL")
    ibuild.add_argument("--out", required=True, metavar="SNAP",
                        help="snapshot output path")
    ibuild.add_argument("--threshold", type=float,
                        default=PAPER_THRESHOLD)
    ibuild.add_argument("--batch-size", type=int, default=None,
                        help="snapshot a IV-J batched linker instead")
    ibuild.set_defaults(func=_cmd_index)
    iverify = isub.add_parser(
        "verify", help="check every section checksum of a snapshot")
    iverify.add_argument("snapshot", help="snapshot file to verify")
    iverify.set_defaults(func=_cmd_index)
    iinfo = isub.add_parser(
        "info", help="print a snapshot's manifest header")
    iinfo.add_argument("snapshot", help="snapshot file to inspect")
    iinfo.set_defaults(func=_cmd_index)

    ev = sub.add_parser(
        "eval",
        help="episode-style evaluation harness (docs/evaluation.md)")
    esub = ev.add_subparsers(dest="eval_command", required=True)
    eep = esub.add_parser(
        "episodes",
        help="sample and score a deterministic episode suite")
    eep.add_argument("--seed", type=int, default=7,
                     help="suite seed; the same seed always produces "
                          "byte-identical manifests and scores")
    eep.add_argument("--n-way", type=int, default=8,
                     help="candidate-panel size per episode")
    eep.add_argument("--episodes-per-cell", type=int, default=12,
                     help="episodes per (drift, bucket) cell")
    eep.add_argument("--buckets", default="300,800", metavar="W1,W2",
                     help="comma-separated per-alias word budgets "
                          "(the text-size axis)")
    eep.add_argument("--open-fraction", type=float, default=0.25,
                     help="fraction of episodes whose true author is "
                          "held out of the panel")
    eep.add_argument("--features", default="stylometry,activity",
                     metavar="FAMILIES",
                     help="comma list of feature families "
                          "(stylometry,activity,structure)")
    eep.add_argument("--variant", default="full",
                     choices=("full", "stage1"),
                     help="linker variant: the paper's two-stage "
                          "pipeline, or the reduction stage alone "
                          "(deliberately degraded)")
    eep.add_argument("--out", metavar="REPORT.json", default=None,
                     help="write the full episode report as JSON")
    eep.add_argument("--manifest-out", metavar="FILE.json",
                     default=None,
                     help="write the canonical episode manifest "
                          "(byte-identical across same-seed runs)")
    eep.add_argument("--json", action="store_true",
                     help="print the full report as JSON instead of "
                          "the per-cell table")
    eep.add_argument("--golden", action="store_true",
                     help="run the committed golden suite instead of "
                          "sampling from --seed")
    eep.add_argument("--write-golden", nargs="?", const="",
                     default=None, metavar="PATH",
                     help="refresh the golden suite file (default "
                          "location when PATH is omitted)")
    eep.add_argument("--check", nargs="?", const="", default=None,
                     metavar="PATH",
                     help="gate this run against the committed golden "
                          "suite; exit 1 on any tolerance breach")
    eep.add_argument("--tolerance", type=float, default=0.05,
                     help="absolute per-metric tolerance of --check")
    eep.set_defaults(func=_cmd_eval)

    stats = sub.add_parser("stats",
                           help="summarize a --trace JSON file")
    stats.add_argument("trace_file",
                       help="trace file written by --trace")
    stats.add_argument("--compare", metavar="OTHER.json", default=None,
                       help="diff per-stage wall time against a "
                            "second trace file instead of rendering")
    stats.add_argument("--compare-threshold", type=float,
                       default=DEFAULT_THRESHOLD, metavar="FRACTION",
                       help="relative slowdown flagged as a "
                            "regression in --compare output "
                            "(default 0.20)")
    stats.set_defaults(func=_cmd_stats)

    bdiff = sub.add_parser(
        "bench-diff",
        help="compare two benchmarks/e2e/run.py --out JSONs; exit 1 "
             "on a changed count or a timing beyond the threshold")
    bdiff.add_argument("old", help="baseline run JSON (e.g. committed "
                                   "benchmarks/results/e2e_smoke.json)")
    bdiff.add_argument("new", help="freshly produced run JSON")
    bdiff.add_argument("--threshold", type=float,
                       default=DEFAULT_THRESHOLD, metavar="FRACTION",
                       help="relative worsening tolerated per metric "
                            "(default 0.20 = 20%%)")
    bdiff.add_argument("--warn-only", action="store_true",
                       help="exit 0 on timing regressions "
                            "(PR-gate mode); counts still gate")
    bdiff.add_argument("--json", action="store_true",
                       help="print the full diff document as JSON")
    bdiff.set_defaults(func=_cmd_bench_diff)

    prof = sub.add_parser("profile",
                          help="extract a personal profile (V-D)")
    prof.add_argument("--forum", required=True)
    prof.add_argument("--alias", required=True)
    prof.add_argument("--dark-alias", default=None,
                      help="linked dark alias to name in the report")
    prof.set_defaults(func=_cmd_profile)
    return parser


def _manifest_inputs(args: argparse.Namespace) -> dict:
    """Input files of this invocation, by role, for the manifest."""
    inputs = {}
    for role in ("known", "unknown", "forum", "input", "index",
                 "snapshot"):
        path = getattr(args, role, None)
        if path is not None:
            inputs[role] = path
    return inputs


def _write_run_artifacts(args: argparse.Namespace,
                         argv: Optional[Sequence[str]],
                         started: float) -> None:
    """Persist the trace, Chrome trace and their manifest sidecars."""
    metadata = {
        "command": args.command,
        "argv": list(argv) if argv is not None else sys.argv[1:],
    }
    manifest = build_manifest(
        command=args.command,
        argv=metadata["argv"],
        config=getattr(args, "manifest_config", None),
        seed=getattr(args, "seed", None),
        inputs=_manifest_inputs(args),
        elapsed_s=time.perf_counter() - started,
    )
    written = []
    if args.trace is not None:
        written.append(write_trace(args.trace, metadata=metadata))
    if args.trace_chrome is not None:
        written.append(write_chrome_trace(args.trace_chrome,
                                          metadata=metadata))
    for path in written:
        write_manifest(manifest_path_for(path), manifest)
        print(f"trace written to {path} "
              f"(manifest: {manifest_path_for(path)})", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "link" and args.index is not None \
            and args.batch_size is not None:
        parser.error("--batch-size cannot be combined with --index: the "
                     "snapshot fixes the procedure (set it with "
                     "'index build --batch-size')")
    tracing = False
    profiling = False
    started = time.perf_counter()
    try:
        if (args.log_level or args.log_format
                or os.environ.get(LOG_LEVEL_ENV)
                or os.environ.get(LOG_FORMAT_ENV)):
            configure_logging(level=args.log_level, fmt=args.log_format)
        if args.command not in _ANALYSIS_COMMANDS:
            if args.trace is not None or args.trace_chrome is not None:
                reset_trace()
                enable_tracing()
                tracing = True
            if args.profile or args.profile_alloc:
                enable_profiling(alloc=args.profile_alloc)
                profiling = True
            elif profiling_from_env() is not None:
                profiling = True
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if profiling:
            disable_profiling()
        if tracing:
            _write_run_artifacts(args, argv, started)


if __name__ == "__main__":
    sys.exit(main())
