"""R-graph and corona constructions with a fixed vertex-ordering contract.

``double_corona`` builds every corona kind: a null second (first) copy
graph gives the R-vertex (R-edge) corona, and both null the bare R-graph
of a connected base.  ``r_graph`` builds the R-graph of any base,
including a null or disconnected one.

Output vertex order is always: the base graph's vertices ("old",
0..n-1), then one new vertex per base edge ("new", n..n+m-1), then n
contiguous copies of the first attachment graph, then m contiguous copies
of the second.  Copy i of the first graph is joined completely to old
vertex i; copy j of the second to new vertex j.  Copies preserve the
input's internal vertex order, so the output adjacency matrix read in
this order has the expected block structure.

The copies are written in one loop over the copy blocks, each a centre
with its copy graph, and the output is not passed through ``build_graph``
again: it is canonical and distinct by construction.
"""

from dataclasses import dataclass
import itertools
import json

from .errors import HypothesisError
from .graphs import Graph, _refuse_beyond_memory, is_connected

__all__ = [
    "CoronaLayout",
    "r_graph",
    "double_corona",
]


# Peak memory of an assembly per layout entry (one per old and new vertex)
# or output edge, as growth of ru_maxrss in a fresh process: 121 bytes over
# double_corona(C_5000, K4, C5) and up to 143 with complete copies (C_200, K60).
_ASSEMBLY_BYTES_PER_ENTRY = 145


@dataclass(frozen=True)
class CoronaLayout:
    """Index intervals (half-open) locating each vertex group in the output."""

    old_vertex_range: tuple[int, int]
    new_vertex_range: tuple[int, int]
    g1_copy_ranges: tuple[tuple[int, int], ...]
    g2_copy_ranges: tuple[tuple[int, int], ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "old": list(self.old_vertex_range),
                "new": list(self.new_vertex_range),
                "g1_copies": [list(r) for r in self.g1_copy_ranges],
                "g2_copies": [list(r) for r in self.g2_copy_ranges],
            }
        )


def _assemble(g: Graph, g1: Graph, g2: Graph) -> tuple[Graph, CoronaLayout]:
    n, m = g.vertex_count, g.edge_count
    n1, n2 = g1.vertex_count, g2.vertex_count
    total = n + m + n * n1 + m * n2
    edge_count = 3 * m + n * (g1.edge_count + n1) + m * (g2.edge_count + n2)
    _refuse_beyond_memory(
        n + m + edge_count,
        _ASSEMBLY_BYTES_PER_ENTRY,
        f"a corona with {total} vertices and {edge_count} edges",
    )

    edges: list[tuple[int, int]] = list(g.edges)
    for j, (u, v) in enumerate(g.edges):
        edges.append((u, n + j))
        edges.append((v, n + j))

    # one copy block per centre: old vertex i with g1, then new vertex n + j with g2
    blocks = itertools.chain(((i, g1) for i in range(n)), ((n + j, g2) for j in range(m)))
    copy_ranges: list[tuple[int, int]] = []
    offset = n + m
    for centre, copy in blocks:
        edges.extend((offset + a, offset + b) for a, b in copy.edges)
        edges.extend((centre, offset + t) for t in range(copy.vertex_count))
        copy_ranges.append((offset, offset + copy.vertex_count))
        offset += copy.vertex_count

    layout = CoronaLayout(
        old_vertex_range=(0, n),
        new_vertex_range=(n, n + m),
        g1_copy_ranges=tuple(copy_ranges[:n]),
        g2_copy_ranges=tuple(copy_ranges[n:]),
    )
    # No second build_graph pass: from validated inputs every edge comes out
    # canonical (each centre lies below every copy offset, and copies keep
    # a < b) and distinct (the blocks are disjoint).
    return Graph(total, tuple(edges)), layout


def r_graph(g: Graph) -> tuple[Graph, CoronaLayout]:
    """Add one vertex per edge, joined to that edge's two endpoints.

    The null graph maps to itself.  Output: n+m vertices, 3m edges.
    """
    return _assemble(g, Graph(0, ()), Graph(0, ()))


def double_corona(
    g: Graph, g1: Graph, g2: Graph, *, allow_disconnected: bool = False
) -> tuple[Graph, CoronaLayout]:
    """Corona of the R-graph: each old vertex joined to its own copy of g1,
    each new vertex to its own copy of g2.  Either copy graph may be null.

    The base graph must be connected and nonempty; pass
    ``allow_disconnected=True`` to bypass the connectivity check for
    exploration (closed-form results are then unguaranteed).
    """
    if g.is_null:
        raise HypothesisError("corona base graph must be nonempty")
    if not allow_disconnected and not is_connected(g):
        raise HypothesisError("corona base graph must be connected")
    return _assemble(g, g1, g2)

