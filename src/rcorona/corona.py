"""R-graph corona constructions with a fixed vertex-ordering contract.

This module decides what a corona kind is, and builds every kind one way.
``_KIND_COPIES`` names each kind and the copy graphs it takes; the others
are null.  The R-vertex (R-edge) corona is the double corona with a null
second (first) copy graph, and the bare R-graph, kind "r_graph", has both
null.  ``double_corona`` builds them all; it reads connectivity from
``Graph.connected``, which a graph computes once, so the closed form's own
check of the same base costs nothing more.

Output vertex order is always: the base graph's vertices ("old",
0..n-1), then one new vertex per base edge ("new", n..n+m-1), then n
contiguous copies of the first attachment graph, then m contiguous copies
of the second.  Copy i of the first graph is joined completely to old
vertex i; copy j of the second to new vertex j.  Copies preserve the
input's internal vertex order, so the output adjacency matrix read in
this order has the expected block structure.

The output's edge array (``Graph.ends``) is written as whole blocks: the
base edges, the two spokes of every new vertex, and then, for each copy
kind, one broadcast of the copy's edges and spokes over its copy offsets
(offset + k * i for copy i of a k-vertex graph).  It is not passed through
``build_graph`` again: it is canonical and distinct by construction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
from .graphs import Graph, _json_pairs, _refuse_beyond_memory

__all__ = [
    "CoronaLayout",
    "double_corona",
]


# Each corona kind and the copy graphs it takes after its base, in that
# order; a copy graph it does not take is null.  The command line offers
# the kinds that take a copy graph: the bare R-graph is `double G null null`.
_KIND_COPIES = {
    "double": ("g1", "g2"),
    "vertex": ("g1",),
    "edge": ("g2",),
    "r_graph": (),
}


def _kind_of(g1: Graph, g2: Graph) -> str:
    """The kind of the corona with copy graphs g1 and g2."""
    taken = tuple(name for name, copy in (("g1", g1), ("g2", g2)) if not copy.is_null)
    return next(kind for kind, copies in _KIND_COPIES.items() if copies == taken)


# Peak memory of a corona per layout entry (one per old and new vertex) or
# output edge, as growth of ru_maxrss in a fresh process over the whole
# `corona double ... --emit-layout L` call, the writer's buffers included,
# over C_5000 and C_100000 with {K4, C5} and C_200 with {K60, K1} either way
# round.  With --out F, where the writer holds one chunk of text at a time:
# 34.3 to 42.8 bytes as an edge list and 34.3 to 49.4 as JSON.  To stdout,
# where the whole text is joined, decoded and encoded again: 40.1 to 48.0
# bytes as an edge list and 48.6 to 58.0 as JSON.  The estimate is the
# largest with a quarter more.
_ASSEMBLY_BYTES_PER_ENTRY = 73


def _copy_ranges(start: int, count: int, size: int) -> np.ndarray:
    """The (count, 2) half-open ranges of count contiguous size-vertex
    copies from start on."""
    first = start + size * np.arange(count)
    return np.column_stack((first, first + size))


@dataclass(frozen=True)
class CoronaLayout:
    """Where each vertex group lies in the output, as half-open index
    ranges; the layout is fixed by the base's vertex and edge counts n and
    m and the copy graphs' orders n1 and n2."""

    n: int
    m: int
    n1: int
    n2: int

    @classmethod
    def of(cls, g: Graph, g1: Graph, g2: Graph, *, allow_disconnected: bool = False) -> "CoronaLayout":
        """The layout of the corona of g with g1 and g2, after double_corona's base checks."""
        if g.is_null:
            raise HypothesisError("corona base graph must be nonempty")
        if not allow_disconnected and not g.connected:
            raise HypothesisError("corona base graph must be connected")
        return cls(g.vertex_count, g.edge_count, g1.vertex_count, g2.vertex_count)

    @property
    def vertex_count(self) -> int:
        return self.n + self.m + self.n * self.n1 + self.m * self.n2

    @property
    def old_vertex_range(self) -> tuple[int, int]:
        return (0, self.n)

    @property
    def new_vertex_range(self) -> tuple[int, int]:
        return (self.n, self.n + self.m)

    @property
    def g1_copy_ranges(self) -> np.ndarray:
        """(n, 2) array: the range of the copy of G1 at old vertex i in row i."""
        return _copy_ranges(self.n + self.m, self.n, self.n1)

    @property
    def g2_copy_ranges(self) -> np.ndarray:
        """(m, 2) array: the range of the copy of G2 at new vertex n + j in row j."""
        return _copy_ranges(self.n + self.m + self.n * self.n1, self.m, self.n2)

    def to_json(self) -> str:
        """{"old": [a, b], "new": [a, b], "g1_copies": [[a, b], ...],
        "g2_copies": [...]}, spaced as json.dumps spaces it."""
        (a, b), (c, d) = self.old_vertex_range, self.new_vertex_range
        return (
            f'{{"old": [{a}, {b}], "new": [{c}, {d}], '
            f'"g1_copies": {_json_pairs(self.g1_copy_ranges)}, '
            f'"g2_copies": {_json_pairs(self.g2_copy_ranges)}}}'
        )


def _copy_block(centres: np.ndarray, start: int, copy: Graph) -> np.ndarray:
    """The edges of one copy of `copy` per centre, the copy for centres[i]
    at offset start + i * k for a k-vertex copy: first the copy's own edges,
    then the spokes (centres[i], offset + t), t = 0..k-1."""
    k, e = copy.vertex_count, copy.edge_count
    offsets = (start + k * np.arange(len(centres)))[:, None]
    block = np.empty((len(centres), e + k, 2), dtype=np.int64)
    block[:, :e] = offsets[:, :, None] + copy.ends
    block[:, e:, 0] = centres[:, None]
    block[:, e:, 1] = offsets + np.arange(k)
    return block.reshape(-1, 2)


def double_corona(
    g: Graph, g1: Graph, g2: Graph, *, allow_disconnected: bool = False
) -> tuple[Graph, CoronaLayout]:
    """Corona of the R-graph: each old vertex joined to its own copy of g1,
    each new vertex to its own copy of g2.  Either copy graph may be null,
    and both null give the R-graph itself.

    The base graph must be connected and nonempty; pass
    ``allow_disconnected=True`` to bypass the connectivity check for
    exploration (closed-form results are then unguaranteed).
    """
    layout = CoronaLayout.of(g, g1, g2, allow_disconnected=allow_disconnected)
    n, m, n1, n2 = layout.n, layout.m, layout.n1, layout.n2
    edge_count = 3 * m + n * (g1.edge_count + n1) + m * (g2.edge_count + n2)
    _refuse_beyond_memory(
        n + m + edge_count,
        _ASSEMBLY_BYTES_PER_ENTRY,
        f"a corona with {layout.vertex_count} vertices and {edge_count} edges",
    )

    new = np.arange(n, n + m)
    # base edge j = (u, v) gives the spokes (u, n + j) and (v, n + j), in that order
    spokes = np.empty((m, 2, 2), dtype=np.int64)
    spokes[:, :, 0] = g.ends
    spokes[:, :, 1] = new[:, None]
    ends = np.concatenate((
        g.ends,
        spokes.reshape(-1, 2),
        # one copy block per centre: old vertex i with g1, then new vertex n + j with g2
        _copy_block(np.arange(n), n + m, g1),
        _copy_block(new, n + m + n * n1, g2),
    ))
    # No second build_graph pass: from validated inputs every edge comes out
    # canonical (each centre lies below every copy offset, and copies keep
    # u < v) and distinct (the blocks are disjoint).
    return Graph(layout.vertex_count, ends), layout
