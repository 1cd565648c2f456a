"""One cold benchmark process: import ``edgering`` from the checkout's
``src``, prepare one workload, drive ``edgering.cli.main`` in-process,
check the outputs and print one JSON line of measurements.

Started by ``run.py``; not meant to be run by hand.  ``--spawned-ns`` is
the parent's ``time.monotonic_ns()`` just before it started this
interpreter, so ``setup_s`` covers interpreter start-up, the import and
reading the inputs.

Modes: ``setup`` stops once the workload is ready; ``run`` also runs and
checks it; ``trace`` does the same with the per-layer tracer installed
and writes the spans to ``--spans``.

Every process also times ``calibrate`` once after set-up and, when it
runs the workload, once more after each command (``cal_s``), so that
``run.py`` can cancel the machine's speed drift out of the times it
reports.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAL_ROUNDS = 50


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop of tuple,
    set and dict operations, the kind the pipeline spends its time on.
    It calls nothing from the program, so no change to the program can
    move it; only the machine's speed can."""
    t0 = time.perf_counter()
    seen = set()
    counts: dict = {}
    for r in range(CAL_ROUNDS):
        for i in range(1000):
            v = (i & 7, (i >> 3) & 7, (i + r) % 5, i % 3)
            w = tuple(a + b for a, b in zip(v, (1, 0, 1, 0)))
            if w not in seen:
                seen.add(w)
            counts[v] = counts.get(v, 0) + 1
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--graphs", type=Path, nargs="*", default=[])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import edgering.cli

    if not Path(edgering.__file__).resolve().is_relative_to(src):
        print(f"edgering imported from {edgering.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads

    graph_texts = [p.read_text(encoding="utf-8") for p in args.graphs]
    argvs = workloads.commands(args.workload, args.smoke, args.work, args.graphs)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    result = {"setup_s": setup_s, "cal_s": [calibrate()]}
    if args.mode == "setup":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
    outcomes, command_s = [], []
    for argv in argvs:
        t0 = time.perf_counter()
        try:
            outcomes.append((edgering.cli.main(argv), None))
        except Exception as exc:  # a crash is a failed item, not a crashed benchmark
            outcomes.append((None, repr(exc)))
        command_s.append(time.perf_counter() - t0)
        result["cal_s"].append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    failed, notes = workloads.check(args.workload, args.smoke, argvs, outcomes, graph_texts)
    result.update(
        command_s=command_s,
        peak_rss_mb=peak_rss_mb,
        attempted=workloads.item_count(args.workload, args.smoke, args.graphs),
        failed=failed,
        notes=notes,
    )
    if tracer is not None:
        result["layers"], result["absent"] = tracer.metrics()
        result["vertex_parity_certificate_hits"] = tracer.counts["vertex_parity_certificate.hits"]
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
