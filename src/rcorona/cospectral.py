"""Construction and certification of normalized-Laplacian-cospectral,
non-regular graph pairs.

The closed-form spectrum of a corona depends only on the parameters that
``CoronaParams.from_graphs`` checks and reads off the seed graphs, and on
their spectra; coronas over seed triples with equal parameters and
cospectral inputs are therefore cospectral.  That holds for every corona
kind, the bare R-graph (both attachments null) included; a certificate's
recipe names the kind as ``corona._KIND_COPIES`` does.  This module builds
such pairs and certifies them with the numeric eigensolver.
"""

from dataclasses import dataclass
import json

import numpy as np

from .closedform import CoronaParams
from .corona import _kind_of, double_corona
from .errors import HypothesisError
from .graphs import Graph, _graph_dict, adjacency_matrix, generate
from .spectra import _MATCH_TOL, Spectrum, compare_spectra, nl_spectrum, numeric_spectrum

__all__ = [
    "CospectralCertificate",
    "adjacency_cospectral",
    "nl_cospectral",
    "regular_cospectrality_agrees",
    "build_cospectral_pair",
    "verified_seed_pairs",
]


@dataclass(frozen=True)
class CospectralCertificate:
    """Replayable record of a constructed pair and its numeric verification."""

    graph_a: Graph
    graph_b: Graph
    spectrum_a: Spectrum
    spectrum_b: Spectrum
    max_deviation: float
    tolerance: float
    recipe: dict
    verdict: str  # "cospectral" | "not cospectral"
    non_regular: tuple[bool, bool]
    edge_sets_differ: bool

    @property
    def cospectral(self) -> bool:
        return self.verdict == "cospectral"

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": self.verdict,
                "max_deviation": self.max_deviation,
                "tolerance": self.tolerance,
                "graph_a": _graph_dict(self.graph_a),
                "graph_b": _graph_dict(self.graph_b),
                "spectrum_a": self.spectrum_a.values.tolist(),
                "spectrum_b": self.spectrum_b.values.tolist(),
                "non_regular": list(self.non_regular),
                "edge_sets_differ": self.edge_sets_differ,
                "recipe": self.recipe,
            }
        )


def adjacency_cospectral(g: Graph, h: Graph, tol: float = _MATCH_TOL) -> bool:
    """True iff the adjacency spectra agree as multisets at tol."""
    sa = numeric_spectrum(adjacency_matrix(g).astype(float))
    sb = numeric_spectrum(adjacency_matrix(h).astype(float))
    return compare_spectra(sa, sb, tol).matched


def nl_cospectral(g: Graph, h: Graph, tol: float = _MATCH_TOL) -> bool:
    """True iff the normalized Laplacian spectra agree as multisets at tol."""
    return compare_spectra(nl_spectrum(g), nl_spectrum(h), tol).matched


def regular_cospectrality_agrees(g: Graph, h: Graph, tol: float = _MATCH_TOL) -> bool:
    """For two regular graphs, adjacency cospectrality and normalized
    Laplacian cospectrality are equivalent; returns True iff both tests
    deliver the same verdict here."""
    for tag, gi in (("first", g), ("second", h)):
        if gi.regular_degree is None:
            raise HypothesisError(f"{tag} graph is not regular")
    return adjacency_cospectral(g, h, tol) == nl_cospectral(g, h, tol)


def _sorted_rows(ends: np.ndarray) -> np.ndarray:
    """The rows of an edge array in lexicographic order: the edge set."""
    return ends[np.lexsort(ends.T[::-1])]


def build_cospectral_pair(
    g: Graph,
    h: Graph,
    g1: Graph,
    h1: Graph,
    g2: Graph,
    h2: Graph,
    tol: float = _MATCH_TOL,
) -> CospectralCertificate:
    """Build the corona over each seed triple and certify cospectrality.

    Both triples must pass ``CoronaParams.from_graphs``, the closed form's
    hypotheses, with equal parameters (so null attachments pair up), and
    each pair that is not null must be adjacency-cospectral at tol.  One null
    pair gives the vertex or edge corona, two give the bare R-graph; every
    kind is built by ``double_corona``.
    """
    pa = CoronaParams.from_graphs(g, g1, g2)
    pb = CoronaParams.from_graphs(h, h1, h2)
    if pa != pb:
        raise HypothesisError(f"seed triples do not fit the cospectral construction: their sizes, "
                              f"degrees or null attachments differ ({pa} vs {pb})")
    for tag, ga, gb in (("seeds g, h", g, h), ("attachments g1, h1", g1, h1),
                        ("attachments g2, h2", g2, h2)):
        if not ga.is_null and not adjacency_cospectral(ga, gb, tol):
            raise HypothesisError(f"{tag} are not adjacency-cospectral")
    if g == h and g1.is_null and g2.is_null:
        raise HypothesisError(
            "identical seed with both attachments null would produce the "
            "same labeled graph twice"
        )

    corona_a, _ = double_corona(g, g1, g2)
    corona_b, _ = double_corona(h, h1, h2)
    sa = nl_spectrum(corona_a)
    sb = nl_spectrum(corona_b)
    report = compare_spectra(sa, sb, tol)
    recipe = {
        "kind": _kind_of(g1, g2),
        "g": _graph_dict(g),
        "h": _graph_dict(h),
        "g1": _graph_dict(g1),
        "h1": _graph_dict(h1),
        "g2": _graph_dict(g2),
        "h2": _graph_dict(h2),
        "tolerance": tol,
    }
    return CospectralCertificate(
        graph_a=corona_a,
        graph_b=corona_b,
        spectrum_a=sa,
        spectrum_b=sb,
        max_deviation=report.max_deviation,
        tolerance=tol,
        recipe=recipe,
        verdict="cospectral" if report.matched else "not cospectral",
        non_regular=(
            corona_a.regular_degree is None,
            corona_b.regular_degree is None,
        ),
        edge_sets_differ=not np.array_equal(_sorted_rows(corona_a.ends), _sorted_rows(corona_b.ends)),
    )


def verified_seed_pairs(tol: float = _MATCH_TOL) -> list[tuple[Graph, Graph, str]]:
    """The shipped cospectral seed catalog, re-verified by the solver.

    Every returned pair has been confirmed adjacency-cospectral at tol;
    a catalog entry failing its own verification raises.
    """
    catalog = [("shrikhande", "rook4x4")]
    out = []
    for name_a, name_b in catalog:
        a, b = generate(name_a), generate(name_b)
        if not adjacency_cospectral(a, b, tol):
            raise HypothesisError(
                f"seed catalog entry ({name_a}, {name_b}) failed cospectrality verification"
            )
        out.append((a, b, f"{name_a}/{name_b}"))
    return out
