"""Finite simple undirected graphs with a fixed vertex ordering.

Vertices are dense integers 0..n-1 and the edge list order is canonical:
it is fixed at construction (endpoints normalized to (min, max)) and every
downstream construction indexes new vertices by it.  The graph with no
vertices (the null graph) is a legal value.
"""

import contextlib
from dataclasses import dataclass
import functools
import json
import math
import os

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .errors import (
    DenseMemoryError,
    DuplicateEdgeError,
    EndpointRangeError,
    GraphValidationError,
    HypothesisError,
    SelfLoopError,
)

__all__ = [
    "Graph",
    "DegreeProfile",
    "build_graph",
    "adjacency_matrix",
    "degree_profile",
    "incidence_matrix",
    "is_connected",
    "generate",
    "GENERATOR_FAMILIES",
    "parse_edge_list",
    "to_edge_list",
    "parse_graph_json",
    "to_graph_json",
    "format_graph",
    "load_graph",
    "save_graph",
]


@dataclass(frozen=True)
class Graph:
    """Immutable labeled graph: vertex count plus a canonical edge tuple."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_null(self) -> bool:
        return self.vertex_count == 0


@dataclass(frozen=True)
class DegreeProfile:
    """Vertex degrees plus the common degree when the graph is regular."""

    degrees: tuple[int, ...]
    regular_degree: int | None


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Endpoints are normalized to (min, max); edge order is the order of
    first occurrence.  Raises a distinct error for each violation:
    out-of-range endpoint, self-loop, duplicate edge.
    """
    if n < 0:
        raise GraphValidationError(f"vertex count must be non-negative, got {n}")
    canonical: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise EndpointRangeError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        canonical.append((u, v))
    return Graph(n, tuple(canonical))


# Peak memory of the dense path (adjacency, normalized Laplacian, eigensolve)
# in N x N float64 matrices: 4.11 at N = 612 and 4.04 at N = 1105, for the
# numeric oracle and for LAPACK alike (growth of ru_maxrss over the call).
_DENSE_PEAK_MATRICES = 4.1
# this process's cgroup v2 memory limit as a container sees it ("max": none)
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"


def _physical_memory() -> int | None:
    """Memory available to this process in bytes: physical memory, or the
    cgroup v2 limit or the soft address-space limit (RLIMIT_AS) where one
    is smaller; None where none is known.

    The limits are read once per process (once per value of
    _CGROUP_MEMORY_MAX); later calls return the first answer."""
    return _memory_limits(_CGROUP_MEMORY_MAX)


@functools.lru_cache(maxsize=8)
def _memory_limits(cgroup_memory_max: str) -> int | None:
    limits = []
    with contextlib.suppress(AttributeError, ValueError, OSError):
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
        # sysconf reports -1 for a value it does not know
        if pages > 0 and page_size > 0:
            limits.append(pages * page_size)
    with contextlib.suppress(OSError), open(cgroup_memory_max, encoding="ascii") as fh:
        text = fh.read().strip()
        if text.isdigit():
            limits.append(int(text))
    if resource is not None:
        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    return min(limits, default=None)


def _refuse_beyond_memory(count: float, bytes_each: float, what: str) -> None:
    """Raise DenseMemoryError when count items of bytes_each bytes exceed
    the available memory.  A need beyond any float exceeds any memory."""
    memory = _physical_memory()
    if memory is None:
        return
    try:
        need = float(bytes_each * count)
    except OverflowError:
        need = math.inf
    if need > memory:
        raise DenseMemoryError(
            f"{what} needs about {need / 2**30:.1f} GiB, more than the "
            f"{memory / 2**30:.1f} GiB available (physical memory, cgroup or address-space limit)"
        )


def _refuse_dense(n: int) -> None:
    """The dense pre-flight: raise DenseMemoryError when the dense path of
    an order-n graph would not fit in physical memory, or in a smaller
    cgroup or address-space limit."""
    _refuse_beyond_memory(n * n, _DENSE_PEAK_MATRICES * 8, f"a dense {n}x{n} computation")


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with zero diagonal (integer dtype).

    The dense pre-flight runs before anything is allocated.
    """
    n = g.vertex_count
    _refuse_dense(n)
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


def degree_profile(g: Graph) -> DegreeProfile:
    deg = [0] * g.vertex_count
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    regular = deg[0] if deg and all(d == deg[0] for d in deg) else None
    return DegreeProfile(tuple(deg), regular)


def incidence_matrix(g: Graph) -> np.ndarray:
    """n x m vertex-edge incidence matrix; column order = canonical edge order."""
    m = np.zeros((g.vertex_count, g.edge_count), dtype=np.int64)
    for j, (u, v) in enumerate(g.edges):
        m[u, j] = 1
        m[v, j] = 1
    return m


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from vertex 0; undefined for the null graph."""
    if g.is_null:
        raise HypothesisError("connectivity is undefined for the null graph")
    # a connected graph has at least n - 1 edges; checked before any O(n) work
    if g.edge_count < g.vertex_count - 1:
        return False
    neighbors: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = [False] * g.vertex_count
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for w in neighbors[u]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


# --- generator catalog ---------------------------------------------------

# The two strongly regular (16,6,2,2) graphs are shipped as explicit edge
# lists.  Construction provenance: Z4 x Z4 with differences
# {±(1,0), ±(0,1), ±(1,1)} for the first; same row / same column on a 4x4
# grid for the second.  Both are re-verified in the test suite (regularity,
# neighborhood counts, cospectrality).
_SHRIKHANDE_EDGES = (
    (0, 1), (0, 3), (0, 4), (0, 5), (0, 12), (0, 15), (1, 2), (1, 5),
    (1, 6), (1, 12), (1, 13), (2, 3), (2, 6), (2, 7), (2, 13), (2, 14),
    (3, 4), (3, 7), (3, 14), (3, 15), (4, 5), (4, 7), (4, 8), (4, 9),
    (5, 6), (5, 9), (5, 10), (6, 7), (6, 10), (6, 11), (7, 8), (7, 11),
    (8, 9), (8, 11), (8, 12), (8, 13), (9, 10), (9, 13), (9, 14),
    (10, 11), (10, 14), (10, 15), (11, 12), (11, 15), (12, 13), (12, 15),
    (13, 14), (14, 15),
)

_ROOK4X4_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 8), (0, 12), (1, 2), (1, 3),
    (1, 5), (1, 9), (1, 13), (2, 3), (2, 6), (2, 10), (2, 14), (3, 7),
    (3, 11), (3, 15), (4, 5), (4, 6), (4, 7), (4, 8), (4, 12), (5, 6),
    (5, 7), (5, 9), (5, 13), (6, 7), (6, 10), (6, 14), (7, 11), (7, 15),
    (8, 9), (8, 10), (8, 11), (8, 12), (9, 10), (9, 11), (9, 13),
    (10, 11), (10, 14), (11, 15), (12, 13), (12, 14), (12, 15), (13, 14),
    (13, 15), (14, 15),
)


def _complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete(n) requires n >= 1")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle(n) requires n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path(n) requires n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite(a, b) requires a, b >= 1")
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _circulant(n: int, *connections: int) -> Graph:
    if n < 1:
        raise ValueError("circulant(n, ...) requires n >= 1")
    conn = sorted(int(s) for s in connections)
    if len(set(conn)) != len(conn):
        raise ValueError("circulant connection set contains duplicates")
    edges = []
    for s in conn:
        if not 1 <= s <= n // 2:
            raise ValueError(f"circulant connection {s} outside 1..{n // 2}")
        # s = n/2 on even n pairs each vertex once; smaller s gives n edges
        if 2 * s == n:
            edges.extend((i, i + s) for i in range(s))
        else:
            edges.extend((i, (i + s) % n) for i in range(n))
    return build_graph(n, edges)


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def _hypercube(d: int) -> Graph:
    if d < 0:
        raise ValueError("hypercube(d) requires d >= 0")
    n = 1 << d
    edges = [(i, i ^ (1 << b)) for i in range(n) for b in range(d) if i < i ^ (1 << b)]
    return build_graph(n, edges)


# family: (builder, parameter count, edge count from the parameters); None
# as the count means n followed by at least one connection.  The edge
# counts are exact (circulant: an upper bound) and 0 for a size the builder
# rejects, so that its own error is raised.
_GENERATORS = {
    "complete": (_complete, 1, lambda n: max(n, 0) * (n - 1) // 2),
    "cycle": (_cycle, 1, lambda n: max(n, 0)),
    "path": (_path, 1, lambda n: max(n - 1, 0)),
    "complete_bipartite": (_complete_bipartite, 2, lambda a, b: max(a, 0) * max(b, 0)),
    "circulant": (_circulant, None, lambda n, *connections: max(n, 0) * len(connections)),
    "petersen": (_petersen, 0, lambda: 15),
    # a float, so that a huge d overflows instead of building 2**d
    "hypercube": (_hypercube, 1, lambda d: d * 2.0 ** (d - 1) if d > 0 else 0),
    "shrikhande": (lambda: build_graph(16, _SHRIKHANDE_EDGES), 0, lambda: len(_SHRIKHANDE_EDGES)),
    "rook4x4": (lambda: build_graph(16, _ROOK4X4_EDGES), 0, lambda: len(_ROOK4X4_EDGES)),
    "null": (lambda: build_graph(0, []), 0, lambda: 0),
}

GENERATOR_FAMILIES = tuple(_GENERATORS)

# Peak memory of a generator per edge: the growth of ru_maxrss over
# generate() in a fresh process was 282 bytes for complete 2000 and
# hypercube 17, 314 for cycle and path 2 000 000 and 320 for circulant
# 300 000 with seven connections; the CLI's output adds nothing to it.
_GENERATED_BYTES_PER_EDGE = 320


def generate(family: str, *params: int) -> Graph:
    """Build a catalog graph by family name.

    Families: complete(n), cycle(n), path(n), complete_bipartite(a, b),
    circulant(n, s1, s2, ...), petersen, hypercube(d), shrikhande,
    rook4x4, null.  A graph whose edges would not fit in the available
    memory is refused (DenseMemoryError) before it is built.
    """
    if family not in _GENERATORS:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(GENERATOR_FAMILIES)}")
    builder, arity, edge_count = _GENERATORS[family]
    if arity is None:
        if len(params) < 2:
            raise ValueError("circulant takes n followed by at least one connection")
    elif arity == 0 and params:
        raise ValueError(f"{family} takes no parameters")
    elif len(params) != arity:
        raise ValueError(f"{family} takes {arity} parameter(s), got {len(params)}")
    try:
        edges = edge_count(*params)
    except OverflowError:  # hypercube's float count beyond any float
        edges = math.inf
    _refuse_beyond_memory(edges, _GENERATED_BYTES_PER_EDGE, f"{family}({', '.join(map(str, params))})")
    return builder(*params)


# --- file formats ---------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: "n m" then m lines "u v"."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphValidationError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphValidationError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise GraphValidationError(f"header declares {m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphValidationError(f"edge line must be 'u v', got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph_json(text: str) -> Graph:
    """Parse the JSON format {"n": int, "edges": [[u, v], ...]}.

    Any other shape, including non-integer or boolean values, raises
    GraphValidationError.
    """
    try:
        obj = json.loads(text)
    except RecursionError:
        raise GraphValidationError("graph JSON is nested too deeply") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphValidationError('graph JSON must be an object with keys "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if not _is_int(n):
        raise GraphValidationError(f'graph JSON "n" must be an integer, got {n!r}')
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e) for e in edges
    ):
        raise GraphValidationError('graph JSON "edges" must be a list of integer pairs [u, v]')
    return build_graph(n, [tuple(e) for e in edges])


def _graph_dict(g: Graph) -> dict:
    """The graph JSON format, as the dict that ``to_graph_json`` dumps."""
    return {"n": g.vertex_count, "edges": [list(e) for e in g.edges]}


def to_graph_json(g: Graph) -> str:
    return json.dumps(_graph_dict(g))


def format_graph(g: Graph, fmt: str) -> str:
    """The text of g in one file format: "edgelist" or "json"."""
    if fmt == "edgelist":
        return to_edge_list(g)
    if fmt == "json":
        return to_graph_json(g) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def load_graph(path: str) -> Graph:
    """Read a graph file, sniffing JSON vs edge-list by the leading brace."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_edge_list(text)


def save_graph(g: Graph, path: str, fmt: str = "edgelist") -> None:
    payload = format_graph(g, fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
