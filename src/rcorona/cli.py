"""Command-line front end: construction, spectra, verification, and
cospectral certification as reproducible batch runs.

Exit codes: 0 success / spectra match / verdict cospectral; 1 mismatch or
negative verdict; 2 usage error (bad flags, parameters, or input files, or
a graph whose dense computation, corona assembly or generation, or a
closed-form spectrum whose printing, would not fit in memory);
3 violated mathematical hypothesis (disconnected base, non-regular input,
the m<n closed-form regime, ...); 4 internal error (an eigensolve that did
not converge, or closed-form families inconsistent with the corona).  All
numeric output uses 17 significant digits; pass --json where available for
the machine-readable form.  Each command refuses (exit 2 or 3) before it
assembles a corona or solves a matrix.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .closedform import CoronaParams, _refuse_fewer_edges, closed_form_spectrum, flatten
from .corona import _KIND_COPIES, CoronaLayout, double_corona
from .cospectral import build_cospectral_pair
from .errors import ConvergenceError, HypothesisError, InternalConsistencyError
from .graphs import (Graph, _refuse_beyond_memory, _refuse_dense, build_graph, format_graph, generate,
                     load_graph, save_graph)
from .invariants import _spectral_invariants, spanning_trees_matrix_tree
from .spectra import _MATCH_TOL, _WRITE_CHUNK, _write_runs, compare_spectra, nl_spectrum

__all__ = ["main"]

# Peak memory of `spectrum --corona ... --method closed-form`, as growth of
# the peak resident memory in a fresh process over the whole call, printing
# included.  Each estimate is the largest measured with a quarter more.
# Plain stdout is printed from the spectrum's runs (spectra._write_runs), so
# it is charged per family row, and per line of one piece of text, which
# also pays for the lines and the formatter's temporaries of one block of
# runs: 256 bytes for each of up to _WRITE_CHUNK lines, 16 MiB in all.  Over
# C_100000 with {K4, C5} and {K300, K300} (1.1 and 60.2 million values,
# 50004 rows) and C_1000000 with {K4, C5} and {null, null} (500004 and
# 500002 rows) it grew by 28.0, 30.3, 225 and 113 MB, at most 417 bytes per
# row over 16 MiB; C_10000 with {K300, K300} (6 million values, 5004 rows)
# grew by 9.7 MB.  A cycle base has a row for every two vertices, whose
# loading and checks are counted in.
# Output expanded to the values (--json, --method both) is charged per
# value: expanded plain stdout took 77, 85, 126 and 107 bytes per value over
# C_100000 with {K4, C5}, {K4, null} and {null, null} and C_1000000 with
# {null, null}, the most for the R-graphs, whose base graph is loaded and
# solved for only two values per vertex.  --json adds the values' text and
# the family table: at most 884 bytes per row over that (C_1000000's
# R-graph, 500001 rows for 2 million values, its values' text charged to
# the rows too), and where the values dominate it stays under 88 bytes per
# value all told.
_CLOSED_FORM_BYTES_PER_ROW = 520
_CLOSED_FORM_BYTES_PER_LINE = 256
_CLOSED_FORM_BYTES_PER_VALUE = 165
_FAMILY_ROW_BYTES = 1100


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite positive number, got {text!r}")
    return tol


def _load(path: str) -> Graph:
    if path == "null":
        return build_graph(0, [])
    return load_graph(path)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _write_graph(g: Graph, out: str | None, fmt: str) -> None:
    if out:
        save_graph(g, out, fmt)
    else:
        sys.stdout.write(format_graph(g, fmt))


def _closed_form_print_bytes(cf, as_json: bool, expanded: bool) -> int:
    """The estimated peak memory of printing the closed-form spectrum cf:
    per family row and one piece of text when it is printed from its runs,
    per value when it is expanded (--json, --method both), with its family
    table too when as_json."""
    rows = len(cf.fixed_families) + len(cf.roots.mu) + (cf.excess is not None)
    if not expanded:
        return (rows * _CLOSED_FORM_BYTES_PER_ROW
                + min(cf.total_multiplicity, _WRITE_CHUNK) * _CLOSED_FORM_BYTES_PER_LINE)
    need = cf.total_multiplicity * _CLOSED_FORM_BYTES_PER_VALUE
    if as_json:
        need += rows * _FAMILY_ROW_BYTES
    return need


def _cmd_generate(args) -> int:
    _write_graph(generate(args.family, *map(int, args.params)), args.out, args.format)
    return 0


# the corona kinds the command line offers: those that take a copy graph
_CORONA_CHOICES = [kind for kind, copies in _KIND_COPIES.items() if copies]


def _corona_inputs(kind: str, files: list[str]) -> tuple[Graph, Graph, Graph]:
    """Load the base and copy graphs of a corona kind."""
    copies = _KIND_COPIES[kind]
    if len(files) != 1 + len(copies):
        raise ValueError(f"corona {kind} takes {1 + len(copies)} graphs: g {' '.join(copies)} "
                         "('null' allowed)")
    paths = {"g1": "null", "g2": "null", **dict(zip(("g", *copies), files))}
    return _load(paths["g"]), _load(paths["g1"]), _load(paths["g2"])


def _cmd_corona(args) -> int:
    corona, layout = double_corona(
        *_corona_inputs(args.kind, args.graphs),
        allow_disconnected=args.allow_disconnected,
    )
    _write_graph(corona, args.out, args.format)
    if args.emit_layout:
        _write_or_print(layout.to_json(), args.emit_layout)
    print(f"vertices={corona.vertex_count} edges={corona.edge_count}", file=sys.stderr)
    return 0


def _cmd_spectrum(args) -> int:
    wants_numeric, wants_closed = args.method != "closed-form", args.method != "numeric"
    # refusals first: the route (before any file is read), the hypotheses, the dense pre-flight
    if args.corona:
        inputs = _corona_inputs(args.corona, args.graphs)
        if wants_closed:
            _refuse_fewer_edges(CoronaParams.from_graphs(*inputs))
        if wants_numeric:
            _refuse_dense(CoronaLayout.of(*inputs).vertex_count)
    elif len(args.graphs) != 1:
        raise ValueError("spectrum takes one graph file unless --corona is given")
    elif wants_closed:
        raise HypothesisError("closed-form spectra exist only for coronas; pass --corona")

    numeric = closed = None
    # plain closed-form output is printed from its runs, never expanded to N values
    expanded = args.json or wants_numeric
    if wants_closed:
        # solved, and its printing refused rather than failing mid-print, before the corona is built
        cf = closed_form_spectrum(*inputs)
        _refuse_beyond_memory(_closed_form_print_bytes(cf, args.json, expanded), 1,
                              f"a closed-form spectrum of {cf.total_multiplicity} values")
        if expanded:
            closed = flatten(cf)
    if wants_numeric:
        numeric = nl_spectrum(double_corona(*inputs)[0] if args.corona else _load(args.graphs[0]))
    report = compare_spectra(closed, numeric, args.tol) if args.method == "both" else None
    code = 1 if report is not None and not report.matched else 0

    # the payload, families included, is built only when it is printed
    if args.json:
        # either spectrum has one value per vertex
        payload: dict = {"vertices": len(numeric if numeric is not None else closed),
                         "method": args.method}
        if numeric is not None:
            payload["numeric"] = numeric.values.tolist()
        if closed is not None:
            payload["closed_form"] = closed.values.tolist()
            payload["families"] = cf.to_dict()
        if report is not None:
            payload["match"] = report.matched
            payload["max_deviation"] = report.max_deviation
        sys.stdout.write(json.dumps(payload) + "\n")
    elif report is not None:
        print(f"{'numeric':>24}  {'closed-form':>24}  {'|diff|':>12}")
        rows = np.column_stack((numeric.values, closed.values, np.abs(numeric.values - closed.values)))
        sys.stdout.write("%24.17g  %24.17g  %12.3e\n" * len(rows) % tuple(rows.ravel().tolist()))
        print(f"verdict: {'MATCH' if report.matched else 'MISMATCH'}")
        print(f"max deviation: {report.max_deviation:.17g} (tol {args.tol:.17g})")
    elif numeric is not None:
        sys.stdout.write(numeric.to_csv())
    else:
        _write_runs(*cf.runs(), sys.stdout.write)
    return code


def _cmd_cospectral(args) -> int:
    graphs = [_load(p) for p in args.graphs]
    cert = build_cospectral_pair(*graphs, tol=args.tol)
    text = cert.to_json() if args.out or args.json else None
    if args.out:
        _write_or_print(text, args.out)
    if args.json:
        sys.stdout.write(text + "\n")
    else:
        print(f"verdict: {cert.verdict}")
        print(f"max deviation: {cert.max_deviation:.17g} (tol {cert.tolerance:.17g})")
        print(f"sizes: {cert.graph_a.vertex_count} and {cert.graph_b.vertex_count} vertices")
        print(f"non-regular: {cert.non_regular[0]} and {cert.non_regular[1]}")
    return 0 if cert.cospectral else 1


def _cmd_invariants(args) -> int:
    g = _load(args.graph)
    # spanning_trees_spectral(g) and degree_kirchhoff(g), checked and solved first
    log_trees, kirchhoff = _spectral_invariants(g)
    trees = spanning_trees_matrix_tree(g)
    try:
        trees_spectral = math.exp(log_trees)
    except OverflowError:  # beyond the largest float: printed as null
        trees_spectral = None
    payload = json.dumps(
        {
            "spanning_trees": trees,
            "spanning_trees_spectral": trees_spectral,
            "degree_kirchhoff": kirchhoff,
        }
    )
    _write_or_print(payload, args.out)
    return 0


# Built once per process: main runs many times in one process (the benchmark,
# the tests), and the handlers look up their callees when they run, so
# rebinding those names still takes effect.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcorona",
        description="R-graph corona constructions and their normalized Laplacian spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a catalog graph")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--out")
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("corona", help="construct an R-graph corona")
    p.add_argument("kind", choices=_CORONA_CHOICES)
    p.add_argument("graphs", nargs="+", help="graph files ('null' for the null graph)")
    p.add_argument("--out")
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    p.add_argument("--emit-layout", metavar="PATH", help="write the block layout JSON")
    p.add_argument("--allow-disconnected", action="store_true")
    p.set_defaults(func=_cmd_corona)

    p = sub.add_parser("spectrum", help="normalized Laplacian spectrum")
    p.add_argument("graphs", nargs="+", help="graph file, or corona inputs with --corona")
    p.add_argument("--corona", choices=_CORONA_CHOICES)
    p.add_argument("--method", choices=("numeric", "closed-form", "both"), default="numeric")
    p.add_argument("--tol", type=_tolerance, default=_MATCH_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("cospectral", help="build and certify a cospectral corona pair")
    p.add_argument("graphs", nargs=6, metavar="G",
                   help="gA gB g1A g1B g2A g2B ('null' allowed for attachments)")
    p.add_argument("--tol", type=_tolerance, default=_MATCH_TOL)
    p.add_argument("--out", metavar="CERT_JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cospectral)

    p = sub.add_parser("invariants", help="spanning trees and degree-Kirchhoff index")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_invariants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the commands that solve import the oracle before they read any input:
    # compiled after a large input is allocated, it would raise the peak memory
    if args.command in ("cospectral", "invariants") or args.command == "spectrum" and args.method != "closed-form":
        from . import oracle  # noqa: F401
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, InternalConsistencyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
