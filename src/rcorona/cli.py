"""Command-line front end: construction, spectra, verification, and
cospectral certification as reproducible batch runs.

Exit codes: 0 success / spectra match / verdict cospectral; 1 mismatch or
negative verdict; 2 usage error (bad flags, parameters, or input files, or
a graph whose dense computation, corona assembly or generation would not
fit in memory);
3 violated mathematical hypothesis (disconnected base, non-regular input,
the m<n closed-form regime, ...); 4 internal error (an eigensolve that did
not converge, or closed-form families inconsistent with the corona).  All
numeric output uses 17 significant digits; pass --json where available for
the machine-readable form.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .closedform import closed_form_spectrum, flatten
from .corona import _KIND_COPIES, double_corona
from .cospectral import build_cospectral_pair
from .errors import ConvergenceError, HypothesisError, InternalConsistencyError
from .graphs import Graph, build_graph, format_graph, generate, load_graph, save_graph
from .invariants import degree_kirchhoff, spanning_trees_matrix_tree, spanning_trees_spectral
from .spectra import _MATCH_TOL, compare_spectra, nl_spectrum

__all__ = ["main"]


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
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_generate(args) -> int:
    params = [int(p) for p in args.params]
    g = generate(args.family, *params)
    if args.out:
        save_graph(g, args.out, args.format)
    else:
        sys.stdout.write(format_graph(g, args.format))
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
    if args.out:
        save_graph(corona, args.out, args.format)
    else:
        sys.stdout.write(format_graph(corona, args.format))
    if args.emit_layout:
        _write_or_print(layout.to_json(), args.emit_layout)
    print(f"vertices={corona.vertex_count} edges={corona.edge_count}", file=sys.stderr)
    return 0


def _cmd_spectrum(args) -> int:
    if args.corona:
        inputs = _corona_inputs(args.corona, args.graphs)
    elif len(args.graphs) != 1:
        raise ValueError("spectrum takes one graph file unless --corona is given")
    else:
        graph, inputs = _load(args.graphs[0]), None

    numeric = closed = None
    if args.method in ("numeric", "both"):
        # only the numeric route builds the corona: the closed form reads
        # just the base and copy graphs
        if inputs is not None:
            graph, _ = double_corona(*inputs)
        numeric = nl_spectrum(graph)
    if args.method in ("closed-form", "both"):
        if inputs is None:
            raise HypothesisError(
                "closed-form spectra exist only for coronas; pass --corona"
            )
        cf = closed_form_spectrum(*inputs)
        closed = flatten(cf)

    # either spectrum has one value per vertex
    spectrum = numeric if numeric is not None else closed
    report = compare_spectra(closed, numeric, args.tol) if args.method == "both" else None
    code = 1 if report is not None and not report.matched else 0

    # the payload, families included, is built only when it is printed
    if args.json:
        payload: dict = {"vertices": len(spectrum), "method": args.method}
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
    else:
        sys.stdout.write(spectrum.to_csv())
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
    payload = json.dumps(
        {
            "spanning_trees": spanning_trees_matrix_tree(g),
            "spanning_trees_spectral": spanning_trees_spectral(g),
            "degree_kirchhoff": degree_kirchhoff(g),
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
