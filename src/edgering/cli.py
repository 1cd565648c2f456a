"""Command line front end.

Commands:
  analyze         classify one graph file and emit a JSON report
  family          write a canonical family graph file (plus JSON sidecar)
  verify-theorem  classify the whole edge-count range for one dimension
  additions       classify all cross-edge augmentations of a family graph

Exit codes: 0 success, 1 property violation, 2 bad input, 3 unsupported
graph (disconnected, bipartite, or past the 16-vertex limit of
fundamental set enumeration), 4 unknown verdict.  Reports are
byte-deterministic for a given configuration; worker parallelism never
changes them, and a JSON report has the bytes of json.dumps(report,
indent=2, sort_keys=True) plus a newline.  Every report and sidecar is
streamed to its file (or stdout) in bounded chunks, never held whole as
text; a graph file, one line per edge, is built whole by ``write_graph``
and written line by line.  The argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import sys
import time
from json.encoder import encode_basestring_ascii

from .families import (
    FamilyGraph,
    add_cross_edges,
    build_gab,
    cross_edge_orbits,
    cross_pairs,
    family_graph,
    graph_for_theorem,
    max_family_edges,
    removal_schedule,
    theorem_edge_range,
)
from .graph import Graph, GraphFormatError, UnsupportedGraphError, parse_graph, write_graph
from .semigroup import DEGREE_BOUND, check_degree_bound
from .serre import (
    VERDICT_NORMAL,
    VERDICT_NOT_S2,
    VERDICT_S2_VERIFIED,
    VERDICT_UNKNOWN,
    ClassificationReport,
    classify,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_UNKNOWN = 4

# --search-bound decides nothing; it is validated and echoed because the
# pinned report digests (analyze, verify-theorem JSON) hold its value
SEARCH_BOUND = 12

# the most cross-edge subsets `additions` takes, as each is a report row: at
# this limit, (4,4) with all 16 cross pairs (65,535 subsets) peaks at about
# 51 MB RSS, JSON or TSV, as the report is streamed and a row holds the very
# subset tuple listed here, so what is left per row is its dict
ADDITIONS_SUBSET_LIMIT = 1 << 16

# report pieces joined into one _emit call (see _ReportWriter)
CHUNK_PIECES = 4096


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _ReportWriter:
    """The one writer of CLI reports: it joins report pieces and hands them
    to ``_emit`` ``CHUNK_PIECES`` at a time, so no more than one chunk of a
    report is held as text.  A piece is a JSON token (a key, a scalar, an
    int array) or one TSV or graph-file line, so a chunk is bounded by the
    longest report row.

    ``write_json`` writes ``json.dumps(obj, indent=2, sort_keys=True) +
    "\\n"``, byte for byte, for what a report holds: dicts with str keys;
    lists and tuples, each a JSON array; str, int, bool and None.  These
    are exact types, so a named tuple, as any other type or key type,
    raises TypeError.  The chunks before it are already written, so a
    TypeError part-way leaves a truncated file.  With ``indent`` set, json skips its C
    encoder for a pure-Python one, most of the time of a large report, so
    the tests keep it only as the oracle of these bytes."""

    def __init__(self, stream):
        self.stream = stream
        self.parts: list[str] = []

    def write_lines(self, lines) -> None:
        for line in lines:
            self.parts.append(line)
            self.spill()

    def write_json(self, obj) -> None:
        _write_json(obj, "\n", self)
        self.parts.append("\n")

    def spill(self) -> None:
        """Flush once ``CHUNK_PIECES`` pieces are held."""
        if len(self.parts) >= CHUNK_PIECES:
            self.flush()

    def flush(self) -> None:
        if self.parts:
            _emit("".join(self.parts), self.stream)
            self.parts.clear()


def _write_json(value, newline: str, writer: _ReportWriter) -> None:
    """Append the JSON of ``value`` to ``writer``, a container's items each
    after ``newline`` plus two spaces and its closing bracket after
    ``newline``; an array may spill a chunk after each item."""
    out = writer.parts
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif kind in (list, tuple) and all(type(v) is int for v in value):
        inner = newline + "  "
        out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]" if value else "[]")
    elif kind in (list, tuple):
        inner = newline + "  "
        for i, item in enumerate(value):
            out.append(("," if i else "[") + inner)
            _write_json(item, inner, writer)
            writer.spill()
        out.append(newline + "]")
    elif kind is dict:
        inner = newline + "  "
        for i, (key, item) in enumerate(sorted(value.items())):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, writer)
        out.append(newline + "}" if value else "{}")
    else:
        raise TypeError(f"{kind.__name__} has no place in a report")


def _emit(text: str, stream) -> None:
    """Write one chunk of a report: the one place report bytes leave the process."""
    stream.write(text)


@contextlib.contextmanager
def _report(output: str | None):
    """A ``_ReportWriter`` over the file ``output``, opened once, or over
    stdout when it is None; what it holds is flushed on a normal exit."""
    with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext(sys.stdout) as stream:
        writer = _ReportWriter(stream)
        yield writer
        writer.flush()


# -- sweeps ------------------------------------------------------------


def _classify_all(graphs: list[Graph], degree_bound: int, jobs: int) -> list[ClassificationReport]:
    """``classify`` on each graph, in input order: serially when one worker
    would do, with no pool, else in a pool of min(``jobs``, len(graphs))
    processes, as a fork pool starts all its workers at once; four chunks
    per worker keep the per-task cost low, yet uneven graphs balance."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    job = functools.partial(classify, degree_bound=degree_bound)
    workers = min(jobs, len(graphs))
    if workers <= 1:
        return list(map(job, graphs))
    from concurrent.futures import ProcessPoolExecutor  # here, so a serial run never loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, graphs, chunksize=max(1, len(graphs) // (4 * workers))))


def _tsv_cell(value) -> str:
    """A report value as one TSV cell; an edge list reads 1-5;2-6."""
    if isinstance(value, tuple):
        return ";".join(f"{i}-{j}" for i, j in value)
    return str(value)


def _sweep(args, label: str, rows_of, expected: set[str], header: dict, flag: str, cols: list[str]) -> int:
    """Time ``rows_of()``; write ``header``, the rows and ``flag`` (every
    verdict in ``expected``) as JSON, or the rows as TSV columns ``cols``,
    and a summary on stderr.  Exits 0 iff the flag holds."""
    t0 = time.perf_counter()
    rows = rows_of()
    elapsed = time.perf_counter() - t0
    all_ok = all(r["verdict"] in expected for r in rows)
    with _report(args.output) as out:
        if args.format == "tsv":
            out.write_lines(["\t".join(cols) + "\n"])
            out.write_lines("\t".join([_tsv_cell(r[c]) for c in cols]) + "\n" for r in rows)
        else:
            out.write_json({**header, "rows": rows, flag: all_ok})
    print(
        f"{label}: {len(rows)} rows, {'all' if all_ok else 'NOT all'} "
        f"{' or '.join(sorted(expected))}, {elapsed:.1f}s",
        file=sys.stderr,
    )
    return EXIT_OK if all_ok else EXIT_VIOLATION


# -- verify-theorem ----------------------------------------------------


def theorem_results(
    d: int,
    n_values: list[int],
    degree_bound: int = DEGREE_BOUND,
    jobs: int = 1,
) -> list[tuple[dict, ClassificationReport]]:
    """Rows and full reports for the given edge counts, in input order."""
    graphs = [graph_for_theorem(d, n).graph for n in n_values]
    reports = _classify_all(graphs, degree_bound, jobs)
    return [
        ({"d": d, "n": n, "edges": g.n_edges, "verdict": report.verdict, "exhaustive": report.exhaustive,
          "certificate_count": len(report.certificates)}, report)
        for n, g, report in zip(n_values, graphs, reports)
    ]


def _cmd_verify_theorem(args) -> int:
    valid = theorem_edge_range(args.d)
    if args.n is not None and (args.n_min is not None or args.n_max is not None):
        raise ValueError("give either --n or --n-min/--n-max, not both")
    lo = next(v for v in (args.n, args.n_min, valid.start) if v is not None)
    hi = next(v for v in (args.n, args.n_max, valid.stop - 1) if v is not None)
    if lo > hi or lo not in valid or hi not in valid:
        counts = f"n={lo}" if args.n is not None else f"range [{lo}, {hi}]"
        raise ValueError(f"{counts} outside the valid interval [{valid.start}, {valid.stop - 1}] for d={args.d}")
    ns = list(range(lo, hi + 1))
    return _sweep(
        args,
        f"verify-theorem d={args.d}",
        lambda: [row for row, _ in theorem_results(args.d, ns, args.degree_bound, args.jobs)],
        {VERDICT_S2_VERIFIED},
        {"command": "verify-theorem", "d": args.d, "degree_bound": args.degree_bound,
         "search_bound": args.search_bound},
        "all_s2_verified",
        ["d", "n", "edges", "verdict", "exhaustive", "certificate_count"],
    )


# -- additions ---------------------------------------------------------


def addition_rows(
    fam: FamilyGraph,
    max_extra: int,
    degree_bound: int = DEGREE_BOUND,
    jobs: int = 1,
) -> list[dict]:
    """One row per cross-edge subset of the full member ``fam`` with 1..
    ``max_extra`` edges, in ``itertools.combinations`` order.  Only each
    orbit's representative (``cross_edge_orbits``) is classified; its
    verdict and exhaustive flag hold for the whole orbit.  More than
    ``ADDITIONS_SUBSET_LIMIT`` subsets, counted before any is listed,
    raise ValueError."""
    count = sum(math.comb(len(cross_pairs(fam)), k) for k in range(1, max_extra + 1))
    if count > ADDITIONS_SUBSET_LIMIT:
        raise ValueError(f"{count:,} cross-edge subsets of 1..{max_extra} edges exceed the limit of "
                         f"{ADDITIONS_SUBSET_LIMIT:,}; lower --max-extra")
    subsets = [s for size in range(1, max_extra + 1) for s in itertools.combinations(cross_pairs(fam), size)]
    reps = cross_edge_orbits(fam, max_extra)
    firsts = [x for x, r in enumerate(reps) if r == x]
    graphs = [add_cross_edges(fam, subsets[x]) for x in firsts]
    decided = dict(zip(firsts, _classify_all(graphs, degree_bound, jobs)))
    return [
        {
            "extra_edges": subset,
            "edges": fam.graph.n_edges + len(subset),
            "verdict": decided[r].verdict,
            "exhaustive": decided[r].exhaustive,
        }
        for subset, r in zip(subsets, reps)
    ]


def _cmd_additions(args) -> int:
    fam = build_gab(args.a, args.b)
    pairs = cross_pairs(fam)
    max_extra = args.max_extra if args.max_extra is not None else len(pairs)
    if not (1 <= max_extra <= len(pairs)):
        raise ValueError(f"--max-extra must be in 1..{len(pairs)}")
    return _sweep(
        args,
        f"additions ({args.a},{args.b}) max_extra={max_extra}",
        lambda: addition_rows(fam, max_extra, args.degree_bound, args.jobs),
        {VERDICT_NORMAL, VERDICT_NOT_S2},
        {"command": "additions", "a": args.a, "b": args.b, "max_extra": max_extra},
        "all_rows_expected",
        ["extra_edges", "edges", "verdict", "exhaustive"],
    )


# -- analyze -----------------------------------------------------------


def _cmd_analyze(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    report = classify(g, degree_bound=args.degree_bound)
    with _report(args.output) as out:
        out.write_json({**report.to_json_dict(), "search_bound": args.search_bound})
    timings = report.timings_ms
    stages = ", ".join(
        f"{stage} {timings[stage]:.1f}"
        for stage in ("cycles", "hk", "gap", "exclusion")
        if stage in timings
    )
    print(
        f"analyze {args.input}: {report.verdict} ({timings.get('total', 0.0):.0f} ms; {stages} ms)",
        file=sys.stderr,
    )
    return EXIT_UNKNOWN if report.verdict == VERDICT_UNKNOWN else EXIT_OK


# -- family ------------------------------------------------------------


def _cmd_family(args) -> int:
    if args.d is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("give either --d/--n or --a/--b, not both")
        if args.n is None:
            raise ValueError("--d needs --n")
        fam = graph_for_theorem(args.d, args.n)
    elif args.a is not None and args.b is not None:
        fam = family_graph(args.a, args.b, max_family_edges(args.a, args.b) if args.n is None else args.n)
    else:
        raise ValueError("need --d/--n or --a/--b")
    n = fam.graph.n_edges
    removed = removal_schedule(fam.a, fam.b)[: max_family_edges(fam.a, fam.b) - n]
    with _report(args.output) as out:
        out.write_lines(write_graph(fam.graph).splitlines(keepends=True))
    if args.output:
        sidecar = {
            "a": fam.a,
            "b": fam.b,
            "d": fam.graph.n_vertices,
            "n": n,
            "labels": fam.labels,
            "removed_edges": removed,
        }
        with _report(args.output + ".meta.json") as out:
            out.write_json(sidecar)
    return EXIT_OK


# -- parser ------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and kept for the process:
    ``parse_args`` returns a fresh namespace each call and changes no
    parser state."""
    parser = argparse.ArgumentParser(
        prog="edgering",
        description="Normality and Serre depth condition analysis for edge rings of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--degree-bound", type=int, default=DEGREE_BOUND)
    bounds.add_argument("--search-bound", type=int, default=SEARCH_BOUND)
    sweep = argparse.ArgumentParser(add_help=False, parents=[bounds])
    sweep.add_argument("--jobs", type=_positive_int, default=1)
    sweep.add_argument("--format", choices=["json", "tsv"], default="json")
    sweep.add_argument("--output")

    p_analyze = sub.add_parser("analyze", parents=[bounds], help="classify one graph file")
    p_analyze.add_argument("--input", required=True, help="graph file to read")
    p_analyze.add_argument("--output", help="write the JSON report here (default stdout)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_family = sub.add_parser("family", help="write a canonical family graph file")
    p_family.add_argument("--a", type=int)
    p_family.add_argument("--b", type=int)
    p_family.add_argument("--d", type=int)
    p_family.add_argument("--n", type=int)
    p_family.add_argument("--output", help="graph file path; sidecar goes to <path>.meta.json")
    p_family.set_defaults(func=_cmd_family)

    p_thm = sub.add_parser("verify-theorem", parents=[sweep], help="classify a whole edge-count range")
    p_thm.add_argument("--d", type=int, required=True)
    p_thm.add_argument("--n", type=int, help="single edge count instead of a range")
    p_thm.add_argument("--n-min", type=int)
    p_thm.add_argument("--n-max", type=int)
    p_thm.set_defaults(func=_cmd_verify_theorem)

    p_add = sub.add_parser("additions", parents=[sweep], help="classify cross-edge augmentations")
    p_add.add_argument("--a", type=int, required=True)
    p_add.add_argument("--b", type=int, required=True)
    p_add.add_argument("--max-extra", type=int,
                       help=f"most cross edges per subset (default: all); at most "
                            f"{ADDITIONS_SUBSET_LIMIT:,} subsets in all, else exit 2")
    p_add.set_defaults(func=_cmd_additions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "search_bound", 0) < 0:
            raise ValueError(f"search bound must be nonnegative, got {args.search_bound}")
        check_degree_bound(getattr(args, "degree_bound", DEGREE_BOUND))
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
