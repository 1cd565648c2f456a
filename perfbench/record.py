"""Record the expected outputs every benchmark run is checked against.

    python3 perfbench/record.py

Run from the root of a checkout whose program is trusted (the commit the
benchmark was defined on).  It rewrites ``perfbench/expected.json``:

- for ``theorem_sweep`` and ``refutation_additions``, at full and smoke
  size, the SHA-256 and the row count of each command's report, after
  checking the report's summary flag;
- for ``localization_search``, a pool of POOL_SIZE graphs drawn by
  ``workloads.generate_graphs(POOL_SEED)``, each with the SHA-256 of its
  ``analyze`` report, after ``workloads.analyze_problems`` found nothing
  wrong with it; and the digest of the graphs that the default and the
  held-out seed select.

Re-record only when a change to the program is meant to change its
reports, and say so where the change is described.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import edgering.cli  # noqa: E402
import workloads  # noqa: E402


def run(argv: list[str]) -> tuple[bytes, dict]:
    rc = edgering.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    data = Path(argv[argv.index("--output") + 1]).read_bytes()
    return data, json.loads(data)


def main() -> int:
    work = HERE / ".work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    expected = {}
    try:
        for name, flag in workloads.SUMMARY_FLAG.items():
            expected[name] = {}
            for size in ("full", "smoke"):
                reports = []
                for argv in workloads.commands(name, size == "smoke", work, []):
                    data, report = run(argv)
                    if report.get(flag) is not True:
                        raise SystemExit(f"{' '.join(argv)}: {flag} is not true")
                    reports.append({"sha256": hashlib.sha256(data).hexdigest(), "rows": len(report["rows"])})
                expected[name][size] = {"reports": reports}
        pool = []
        for i, text in enumerate(workloads.generate_graphs(workloads.POOL_SEED, workloads.POOL_SIZE)):
            path = work / f"pool-{i}.graph"
            path.write_text(text, encoding="utf-8")
            (argv,) = workloads.commands("localization_search", False, work, [path])
            data, report = run(argv)
            problems = workloads.analyze_problems(report, text)
            if problems:
                raise SystemExit(f"pool graph {i}: {'; '.join(problems)}")
            pool.append({"graph": text, "report_sha256": hashlib.sha256(data).hexdigest()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expected["localization_search"] = {
        "pool_seed": workloads.POOL_SEED,
        "graphs_sha256": {
            str(seed): workloads.digest(workloads.select_graphs(pool, seed, smoke=False))
            for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED)
        },
        "pool": pool,
    }
    out = HERE / "expected.json"
    out.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
