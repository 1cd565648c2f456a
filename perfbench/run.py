"""Cold-process benchmark of the edgering classify pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload theorem_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

Each measurement is a fresh interpreter (``child.py``) that imports
``edgering`` from ``src/``, drives ``edgering.cli.main`` in-process on one
workload, serially, and checks the outputs.  With ``--trace 0`` the run
repeats three set-up-only starts and one workload start until the
``--seconds`` budget would be exceeded (at least three workload starts),
and reports medians of ``setup_s``, ``wall_s`` and ``peak_rss_mb`` plus
the error rate.  With ``--trace 1`` it makes one untraced and one traced
process on the same input and reports the per-layer metrics and the
tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every output check passed.  NOTES.md describes the
workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
SETUP_ONLY = 3  # set-up-only starts before each workload process
# Times are reported in reference seconds: measured seconds scaled by
# CAL_REF_S / (the process's own calibrate() time).  The machine's speed
# drifts by up to 2x over minutes on shared hosts; the scaling cancels
# that drift.
CAL_REF_S = 0.1
MIN_RUNS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a process hangs


class BenchError(Exception):
    """The benchmark cannot run here at all (no source tree, import fails)."""


def spawn(name: str, mode: str, work: Path, limit: float, graphs=(), smoke=False, spans=None,
          importtime=False):
    """Start one child interpreter and wait for it, at most until the
    monotonic time ``limit``.  Returns its JSON result (None when it
    crashed or timed out) and its stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(HERE / "child.py"),
           "--workload", name, "--mode", mode, "--work", str(work)]
    if graphs:
        cmd += ["--graphs", *map(str, graphs)]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", str(spans)]
    # Bytecode caches are allowed, as in normal use; warm_up fills them.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, limit - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        return None, f"timed out after {exc.timeout} s"
    if proc.returncode != 0:
        return None, proc.stderr
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr
    except (IndexError, ValueError):
        return None, proc.stderr


def write_inputs(name: str, seed: int, smoke: bool, work: Path) -> tuple[list[Path], dict | None]:
    """Graph files for localization_search and the record of them.

    Every workload process of a run reads the same files, so the inputs
    of a run do not depend on how many processes fit in ``--seconds``.
    The files of the default and the held-out seed must match the digests
    recorded in expected.json.
    """
    if name != "localization_search":
        return [], None
    recorded = workloads.EXPECTED[name]
    texts = workloads.select_graphs(recorded["pool"], seed, smoke)
    sha = workloads.digest(texts)
    if not smoke and recorded["graphs_sha256"].get(str(seed), sha) != sha:
        raise BenchError(f"the graphs of seed {seed} differ from the recorded ones")
    paths = []
    for i, text in enumerate(texts):
        path = work / f"g{i}.graph"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths, {"default_seed": workloads.DEFAULT_SEED, "heldout_seed": workloads.HELDOUT_SEED,
                   "seed": seed, "graphs_sha256": sha}


def warm_up(name: str, work: Path, limit: float, smoke: bool) -> None:
    """One unmeasured start, so bytecode caches exist before timing."""
    result, err = spawn(name, "setup", work, limit, smoke=smoke)
    if result is None:
        raise BenchError(f"cannot start the program: {err.strip()[-2000:]}")


def measure(name: str, seed: int, seconds: float, smoke: bool, work: Path) -> dict:
    deadline = time.monotonic() + seconds
    limit = time.monotonic() + RUN_LIMIT_S
    graphs, inputs = write_inputs(name, seed, smoke, work)
    items = workloads.item_count(name, smoke, graphs)
    warm_up(name, work, limit, smoke)
    setup_runs, runs, notes = [], [], []
    attempted = failed = 0
    last = 0.0
    while len(runs) < (1 if smoke else MIN_RUNS) or time.monotonic() + last <= deadline:
        t0 = time.monotonic()
        for _ in range(SETUP_ONLY):
            result, err = spawn(name, "setup", work, limit, smoke=smoke)
            if result is None:
                raise BenchError(f"set-up failed: {err.strip()[-2000:]}")
            setup_runs.append(result)
        result, err = spawn(name, "run", work, limit, graphs, smoke)
        last = time.monotonic() - t0
        if result is None:
            result = {"attempted": items, "failed": items, "notes": [f"process failed: {err.strip()[-500:]}"]}
        attempted += result["attempted"]
        failed += result["failed"]
        notes += result["notes"]
        runs.append(result)
    good = [r for r in runs if r["failed"] == 0]
    samples = {
        "setup_s": [scaled_setup(r) for r in setup_runs + good],
        "wall_s": [scaled_wall(r) for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    values = {m: statistics.median(v) for m, v in samples.items()} if good else {}
    return {
        "workload": name, "attempted": attempted, "failed": failed, "notes": notes,
        "values": values, "units": dict(END_TO_END), "samples": samples,
        "inputs": inputs,
    }


def scaled_setup(result: dict) -> float:
    return result["setup_s"] * CAL_REF_S / result["cal_s"][0]


def scaled_wall(result: dict) -> float:
    """The summed command times, each scaled by the mean of the loop
    times just before and just after it."""
    cal = result["cal_s"]
    return sum(t * CAL_REF_S * 2 / (cal[i] + cal[i + 1]) for i, t in enumerate(result["command_s"]))


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import ms of edgering and numpy from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        module = parts[2].strip()
        key = f"import.{module}.ms"
        if module in ("edgering", "numpy") and key not in out:
            out[key] = int(parts[1]) / 1000
    return out


# name -> [(description, metrics it reads, predicate on (layers, hits))]
COVERAGE = {
    "theorem_sweep": [
        ("serre.in_SF_bounded.calls == 0", ["serre.in_SF_bounded.calls"],
         lambda m, hits: m["serre.in_SF_bounded.calls"] == 0),
        ("certificate hits == semigroup.gap_elements.out",
         ["serre.vertex_parity_certificate.calls", "semigroup.gap_elements.out"],
         lambda m, hits: hits == m["semigroup.gap_elements.out"]),
    ],
    "refutation_additions": [
        ("semigroup.gap_elements.calls == 0", ["semigroup.gap_elements.calls"],
         lambda m, hits: m["semigroup.gap_elements.calls"] == 0),
    ],
    "localization_search": [
        ("serre.in_SF_bounded.calls > 0", ["serre.in_SF_bounded.calls"],
         lambda m, hits: m["serre.in_SF_bounded.calls"] > 0),
    ],
}


def coverage(name: str, layers: dict, hits: float) -> list[tuple[str, str]]:
    """(check, "pass" | "FAIL" | "skipped: ... absent") per layer-coverage check."""
    out = []
    for text, needs, pred in COVERAGE[name]:
        missing = [m for m in needs if m not in layers]
        if missing:
            out.append((text, f"skipped: {', '.join(missing)} absent"))
        else:
            out.append((text, "pass" if pred(layers, hits) else "FAIL"))
    return out


def trace(name: str, seed: int, smoke: bool, work: Path) -> dict:
    limit = time.monotonic() + RUN_LIMIT_S
    graphs, inputs = write_inputs(name, seed, smoke, work)
    items = workloads.item_count(name, smoke, graphs)
    warm_up(name, work, limit, smoke)
    reference, err_ref = spawn(name, "run", work, limit, graphs, smoke)
    spans = HERE / ".work" / "spans" / f"{name}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced, err = spawn(name, "trace", work, limit, graphs, smoke, spans=spans, importtime=True)
    notes, failed = [], 0
    for result, stderr in ((reference, err_ref), (traced, err)):
        if result is None:
            failed += items
            notes.append(f"process failed: {stderr.strip()[-500:]}")
        else:
            failed += result["failed"]
            notes += result["notes"]
    values, absent, checks = {}, [], []
    if reference and traced and not failed:
        measured = dict(traced["layers"], **import_times(err))
        measured["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(reference)
        values = {m: measured[m] for m, _ in PER_LAYER if m in measured}
        absent = traced["absent"] + [m for m, _ in PER_LAYER if m not in values and m not in traced["absent"]]
        checks = coverage(name, values, traced["vertex_parity_certificate_hits"])
        failed_checks = [c for c, status in checks if status == "FAIL"]
        if failed_checks:
            failed += items
            notes += [f"layer coverage check failed: {c}" for c in failed_checks]
    return {
        "workload": name, "attempted": 2 * items, "failed": failed, "notes": notes,
        "values": values, "units": dict(PER_LAYER), "absent": absent, "coverage": checks,
        "spans": str(spans.relative_to(ROOT)), "inputs": inputs,
    }


def print_report(res: dict, trace_mode: bool) -> None:
    name = res["workload"]
    print(f"== {name} ({'traced' if trace_mode else 'untraced'}, serial, cold processes)")
    if res["inputs"]:
        print(f"  inputs {json.dumps(res['inputs'])}")
    if trace_mode:
        for metric, unit in PER_LAYER:
            shown = "absent" if metric in res["absent"] else f"{res['values'].get(metric, float('nan')):.6g}"
            print(f"  {metric:44s} {shown:>14s} {unit}")
        for check, status in res["coverage"]:
            print(f"  coverage: {check}: {status}")
        print(f"  spans written to {res['spans']}")
    else:
        for metric, unit in END_TO_END:
            value = res["values"].get(metric)
            shown = "n/a" if value is None else f"{value:.4f}"
            runs = sorted(res["samples"][metric])
            print(f"  {metric:12s} {shown:>10s} {unit:5s} median of {len(runs)}: "
                  + " ".join(f"{v:.4g}" for v in runs))
    rate = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'error_rate':12s} {rate:10.4f} ratio {res['failed']} of {res['attempted']} items failed")
    for note in res["notes"][:20]:
        print(f"  ! {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, one process each")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "edgering" / "__init__.py").is_file():
        print(f"error: no edgering source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        results = []
        for name in names:
            if args.trace:
                res = trace(name, args.seed, args.smoke, work)
            else:
                res = measure(name, args.seed, args.seconds, args.smoke, work)
            print_report(res, bool(args.trace))
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["values"] for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for metric, value in r["values"].items():
            metrics[prefix + metric] = {"value": value, "unit": r["units"][metric]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
