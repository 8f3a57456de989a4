"""End-to-end linking benchmark: every workload, one command.

    python3 benchmarks/e2e/run.py [--workload W]... [--seed N]
        [--seconds S] [--trace 0|1] [--sets K] [--smoke] [--out FILE]

For each workload the runner generates the inputs from the seed in a
child process (``gen.py``), checks their sha256 against ``pins.json``
when the seed is pinned, then measures in a fresh child process
(``workload.py``) with every ``REPRO_*`` variable removed, so the
default configuration is what gets timed.  Workloads run one at a time.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones; without ``--trace`` both.  ``--sets
K`` runs every workload K times, interleaved, and reports whether the
sets agree within each end-to-end metric's bound.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "e2e"
RESULTS = HERE / "results"
DEFAULT_SEED = 7
#: Whole-run cap per workload process, inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    """A run that cannot produce a trustworthy result."""


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def input_digest(directory: Path) -> str:
    """sha256 over every generated input file, names included."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name == "meta.json":
            continue
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def run_child(argv: List[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left to run {argv[1]}")
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{Path(argv[0]).name} timed out") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{Path(argv[0]).name} exited with {proc.returncode}")
    return proc.stdout


def run_workload(workload: str, seed: int, seconds: float, trace: str,
                 smoke: bool, pins: dict, trace_dir: Path) -> dict:
    """Generate, verify and measure one workload; return its result."""
    mode = "smoke" if smoke else "full"
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work = WORK / f"{workload}-{mode}-{seed}-{os.getpid()}"
    inputs = work / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen_argv = [str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(inputs)]
        run_child(gen_argv + (["--smoke"] if smoke else []), deadline)
        digest = input_digest(inputs)
        pinned = pins["inputs"].get(f"{workload}/{mode}/{seed}")
        if pinned is not None and pinned != digest:
            raise BenchmarkError(
                f"{workload} seed {seed}: generated inputs have sha256 "
                f"{digest}, pinned {pinned}; the input generator changed")
        stdout = run_child([
            str(HERE / "workload.py"), "--workload", workload,
            "--inputs", str(inputs), "--seconds", str(seconds),
            "--trace", trace,
            "--trace-out", str(trace_dir / f"{workload}.trace.json"),
            "--top1-floor", str(pins["top1_floor"][mode][workload]),
        ], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(stdout.strip().splitlines()[-1])
    result.update({"workload": workload, "seed": seed,
                   "inputs_sha256": digest, "inputs_pinned": pinned})
    return result


def print_run(result: dict, units: Dict[str, str], set_no: int) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"set {set_no + 1}): {result['ops']} timed ops, "
          f"{result['attempted']} unknowns, {result['failed']} failed, "
          f"correct={result['correct']}")
    for violation in result["violations"]:
        print(f"   VIOLATION {violation}")
    for name, value in result["metrics"].items():
        print(f"   {name:38s} {value:14.6g} {units[name]}")


def agreement(runs: List[List[dict]], bench: dict) -> List[dict]:
    """Per workload and end-to-end metric: the value of each set and
    whether every set is within the bound of the first."""
    rows = []
    for workload in [r["workload"] for r in runs[0]]:
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]] for rs in runs for r in rs
                      if r["workload"] == workload
                      and metric["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            change = max(abs(v - values[0]) / values[0] for v in values[1:])
            rows.append({"workload": workload, "metric": metric["name"],
                         "sets": values, "change": change,
                         "bound": metric["bound"],
                         "agree": change <= metric["bound"]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload (default: "
                             "run_seconds of BENCHMARK.json, 1 with "
                             "--smoke)")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end metrics, 1: per-layer "
                             "metrics (default: both)")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="about 10x smaller inputs, same code paths")
    parser.add_argument("--out", type=Path,
                        help="write every run's full result here; traces "
                             "go beside it (default: results/)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'repro'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(HERE / "pins.json")
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown or args.sets < 1:
        parser.error(f"unknown workloads {unknown}" if unknown
                     else "--sets must be at least 1")
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(bench["run_seconds"]))
    trace = args.trace or "both"
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    trace_dir = args.out.parent if args.out is not None else RESULTS

    runs: List[List[dict]] = []
    try:
        for set_no in range(args.sets):
            runs.append([])
            for workload in workloads:
                result = run_workload(workload, args.seed, seconds, trace,
                                      args.smoke, pins, trace_dir)
                print_run(result, units, set_no)
                runs[-1].append(result)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    rows = agreement(runs, bench) if args.sets > 1 else []
    for row in rows:
        print(f"   {row['workload']:16s} {row['metric']:16s} "
              + " ".join(f"{v:12.6g}" for v in row["sets"])
              + f"  change {row['change']:.3f} bound {row['bound']}"
              + ("" if row["agree"] else "  DISAGREE"))
    every = [r for rs in runs for r in rs]
    env = every[0]["environment"]
    print(f"   environment: {env['cores']} cores, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, "
          f"git {env['git_rev'] or 'unknown'}, seed {args.seed}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
             "runs": runs, "agreement": rows}, indent=1) + "\n",
            encoding="utf-8")

    def metric_block(results: List[dict]) -> dict:
        names = results[0]["metrics"]
        return {name: {"value": statistics.median(
                    r["metrics"][name] for r in results),
                    "unit": units[name]} for name in names}

    if len(every) == 1:
        metrics = metric_block(every)
    else:
        metrics = {w: metric_block([r for r in every if r["workload"] == w])
                   for w in workloads}
    correct = all(r["correct"] for r in every)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
