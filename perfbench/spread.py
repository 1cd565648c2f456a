"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --seeds 1-10                      # every workload
    python3 perfbench/spread.py --workload localization_search --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --record perfbench/baseline.json

Runs ``run.py`` once per seed and workload with the settings of
``BENCHMARK.json``, then prints for each end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to a third
of the metric's bound.  Times also get the same figures unscaled (see
CAL_REF_S in run.py).  Exits 1 when a run fails its checks or a spread
(other than ``setup_s``) reaches its bound.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int) -> dict:
    """The run's result line."""
    cmd = [sys.executable if c == "python3" else c for c in bench["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, action="append")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--record", type=Path, help="write medians and quartiles here as the baseline")
    args = ap.parse_args(argv)

    ok = True
    record = {"workloads": {}}
    for workload in args.workload or names:
        series: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            result = run_once(bench, workload, seed)
            if not result["correct"]:
                print(f"{workload} seed {seed}: checks failed", file=sys.stderr)
                ok = False
                continue
            for name in series:
                series[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4f}" for k, v in series.items()),
                  flush=True)
        record["workloads"][workload] = {}
        for metric in bench["end_to_end"]:
            values = series[metric["name"]]
            if len(values) < 2:
                continue
            s = summarize(values)
            record["workloads"][workload][metric["name"]] = {**s, "unit": metric["unit"]}
            steady = s["spread"] < metric["bound"] / 3
            if metric["name"] != "setup_s" and s["spread"] >= metric["bound"]:
                ok = False
            print(f"  {workload:22s} {metric['name']:12s} median {s['median']:10.4f} {metric['unit']:3s} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}{'' if steady else ', NOT steady'}) n={len(values)}")
    if args.record:
        record["environment"] = {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "numpy": importlib.metadata.version("numpy"),
            "machine": platform.machine(),
        }
        record["settings"] = {"run_seconds": bench["run_seconds"], "seeds": args.seeds}
        args.record.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
