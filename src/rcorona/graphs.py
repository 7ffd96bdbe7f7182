"""Finite simple undirected graphs with a fixed vertex ordering.

Vertices are dense integers 0..n-1.  A graph stores its edges as one
read-only (m, 2) int64 array, ``Graph.ends``: row k holds the k-th edge
(u, v) with u < v, and the row order is canonical.  It is fixed at
construction (endpoints normalized to (min, max), edges in order of first
occurrence) and every downstream construction indexes new vertices by it.
Validation, the matrix views and both file formats work on that array
directly.  The facts the corona hypotheses and the closed form read off a
graph, its degrees, its regular degree and whether it is connected or
bipartite, are properties of the Graph, each computed at most once per
object.  The graph with no vertices (the null graph) is a legal value.
"""

from collections.abc import Iterator
import contextlib
from dataclasses import dataclass
import functools
import itertools
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
    "build_graph",
    "adjacency_matrix",
    "incidence_matrix",
    "generate",
    "GENERATOR_FAMILIES",
    "parse_edge_list",
    "parse_graph_json",
    "format_graph",
    "load_graph",
    "save_graph",
]

# the range of an int64 edge array's entries
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable labeled graph: vertex count plus the canonical edges as a
    read-only (m, 2) int64 array, u < v in each row.

    The constructor trusts its input; ``build_graph`` validates.  Two graphs
    are equal when they have the same vertex count and the same edge rows in
    the same order.
    """

    vertex_count: int
    ends: np.ndarray

    def __post_init__(self):
        # a read-only view: the caller's own array keeps its flags
        ends = np.asarray(self.ends, dtype=np.int64).reshape(-1, 2).view()
        ends.flags.writeable = False
        object.__setattr__(self, "ends", ends)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and np.array_equal(self.ends, other.ends)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.ends.tobytes()))

    @property
    def edge_count(self) -> int:
        return len(self.ends)

    @property
    def is_null(self) -> bool:
        return self.vertex_count == 0

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        """The vertex degrees as a read-only int64 array, in vertex order."""
        deg = np.bincount(self.ends.ravel(), minlength=self.vertex_count)
        deg = deg.astype(np.int64, copy=False)
        deg.flags.writeable = False
        return deg

    @functools.cached_property
    def regular_degree(self) -> int | None:
        """The common degree of a regular graph; None when the degrees
        differ, and for the null graph."""
        deg = self.degrees
        return int(deg[0]) if deg.size and (deg == deg[0]).all() else None

    @functools.cached_property
    def connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0; undefined
        (HypothesisError) for the null graph."""
        if self.is_null:
            raise HypothesisError("connectivity is undefined for the null graph")
        # a connected graph has at least n - 1 edges; checked before any O(n) work
        if self.edge_count < self.vertex_count - 1:
            return False
        return not _component_labels(self.vertex_count, self.ends).any()

    @functools.cached_property
    def bipartite(self) -> bool:
        """Whether the vertices split into two classes that no edge joins
        within; true for the null graph.

        The bipartite double cover has the vertices v and v + n and, for each
        edge (u, v), the edges (u, v + n) and (v, u + n).  A walk in it from v
        to v + n is an odd closed walk through v in the graph, so the graph is
        bipartite exactly when no component of the cover holds both v and
        v + n.
        """
        n, (u, v) = self.vertex_count, self.ends.T
        cover = np.concatenate((np.column_stack((u, v + n)), np.column_stack((v, u + n))))
        label = _component_labels(2 * n, cover)
        return not (label[:n] == label[n:]).any()


def _component_labels(n: int, ends: np.ndarray) -> np.ndarray:
    """One label per vertex of the graph on 0..n-1 with the edge rows ends,
    u < v in each: a vertex of its component, the same for every vertex of
    the component, and 0 on the component of vertex 0.

    Label propagation with pointer jumping, in the manner of Shiloach and
    Vishkin.  Every vertex's label names a vertex of its own component, no
    larger than itself, so vertex 0 keeps label 0.  Each round hooks the
    larger label of every edge onto the smaller one, then jumps each label two
    steps along the labels; the label sum falls every round while some edge
    joins two different labels.  The labels are final when they are all 0, or
    when every edge joins equal labels.
    """
    label = np.arange(n)
    # the first round's labels are the vertices, and u < v in every row
    lo, hi = ends.T
    while True:
        np.minimum.at(label, hi, lo)
        label = label[label[label]]
        if not label.any():
            return label
        lu, lv = label[ends].T
        if (lu == lv).all():
            return label
        lo, hi = np.minimum(lu, lv), np.maximum(lu, lv)


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    ``edges`` is any iterable of (u, v) pairs, or an (m, 2) array; an
    endpoint is an integer, or a string that ``int`` reads as one.
    Endpoints are normalized to (min, max); edge order is the order of
    first occurrence.  The first offending edge in input order raises,
    with a distinct error for each violation, checked in this order:
    out-of-range endpoint, self-loop, duplicate edge.  An endpoint is out
    of range outside 0..n-1, and also beyond 2**63 - 1, the largest index
    the edge array stores.
    """
    if not isinstance(edges, (np.ndarray, list, tuple)):
        edges = list(edges)
    try:
        ends = np.asarray(edges, dtype=np.int64)
    except OverflowError:
        ends = None
        pairs = [(int(u), int(v)) for u, v in edges]
    if n < 0:
        raise GraphValidationError(f"vertex count must be non-negative, got {n}")
    if ends is None:
        _raise_beyond_int64(n, pairs)
    if ends.size == 0:
        ends = ends.reshape(0, 2)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise GraphValidationError("edges must be pairs (u, v)")
    return Graph(n, _canonical(n, ends))


# the largest n for which the key lo * n + hi of every pair 0 <= lo, hi < n
# fits int64: 3 037 000 499
_KEY_MAX_N = math.isqrt(_INT64_MAX)


def _row_order(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The stable order of the rows (lo[i], hi[i]) by lo, then by hi."""
    return np.lexsort((hi, lo))


def _canonical(n: int, ends: np.ndarray) -> np.ndarray:
    """The rows of ends as (min, max) pairs, after raising the first
    offending edge's error, if any."""
    canonical = np.empty_like(ends)
    u, v, lo, hi = ends[:, 0], ends[:, 1], canonical[:, 0], canonical[:, 1]
    np.minimum(u, v, out=lo)
    np.maximum(u, v, out=hi)
    if not len(ends):
        return canonical
    if lo.min() >= 0 and hi.max() < n and (lo < hi).all() and n <= _KEY_MAX_N:
        # the rows are distinct when their keys are, and any sort puts
        # equal keys side by side
        keys = lo * n + hi
        keys.sort()
        if not (keys[1:] == keys[:-1]).any():
            return canonical
    # each row equal to the one before it in the stable order repeats an
    # earlier edge
    order = _row_order(lo, hi)
    rows = canonical[order]
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    bad[order[1:][(rows[1:] == rows[:-1]).all(axis=1)]] = True
    if not bad.any():
        return canonical
    k = int(np.argmax(bad))
    u, v = ends[k].tolist()
    if not (0 <= u < n and 0 <= v < n):
        raise EndpointRangeError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}")
    raise DuplicateEdgeError(f"duplicate edge ({min(u, v)},{max(u, v)})")


def _raise_beyond_int64(n: int, pairs: list) -> None:
    """Raise the first error of edges (Python int pairs) of which one has
    an endpoint that does not fit int64."""
    k = next(i for i, (u, v) in enumerate(pairs)
             if not _INT64_MIN <= min(u, v) <= max(u, v) <= _INT64_MAX)
    # an error of an earlier edge comes first
    _canonical(n, np.array(pairs[:k], dtype=np.int64).reshape(-1, 2))
    u, v = pairs[k]
    if not (0 <= u < n and 0 <= v < n):
        raise EndpointRangeError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
    raise EndpointRangeError(f"edge ({u},{v}) has an endpoint beyond {_INT64_MAX}, the largest vertex index")


# Peak memory of the dense path (adjacency, normalized Laplacian, eigensolve)
# in N x N float64 matrices: the growth of the peak resident memory over the
# resident memory before the call, from a built graph, at N = 612, 1105 and
# 2040 on circulant coronas with {K4, C5}.  The oracle (nl_spectrum, whose
# first panel reads the sparse Laplacian's nonzeros) grew by 2.59, 2.50 and
# 2.42; on K_n, which takes its dense route, by 2.13, 1.79 and 1.60.
# LAPACK's eigvalsh of the Laplacian, as the closed form solves a base, grew
# by 2.39, 2.10 and 2.04, and the oracle on the adjacency matrix
# (adjacency_cospectral) by 2.73, 2.56 and 2.45.  A whole `spectrum --method
# numeric` process grew by 2.46 at N = 1105 and, with the file's n(n - 1)/2
# edges read as well, by 3.38 on K_1000.  Divide and conquer's merges take
# the k eigenvalues that do not deflate in blocks of roots, k x 64 to
# k x 127 arrays, so a Laplacian with few repeated ones stays within the
# reduction's peak: 2.47 on a random connected graph of order 1105 with
# 3315 edges (2.46 to 2.47 over five runs; 8.5 while the merges held k x k
# arrays).
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
    u, v = g.ends.T
    a[u, v] = a[v, u] = 1
    return a


def incidence_matrix(g: Graph) -> np.ndarray:
    """n x m vertex-edge incidence matrix; column order = canonical edge order.

    A matrix too large for memory is refused (DenseMemoryError) before it
    is allocated.
    """
    n, e = g.vertex_count, g.edge_count
    _refuse_beyond_memory(n * e, 8, f"a {n}x{e} incidence matrix")
    m = np.zeros((n, e), dtype=np.int64)
    u, v = g.ends.T
    columns = np.arange(e)
    m[u, columns] = m[v, columns] = 1
    return m


# --- generator catalog ---------------------------------------------------


def _complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete(n) requires n >= 1")
    return build_graph(n, np.column_stack(np.triu_indices(n, 1)))


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle(n) requires n >= 3")
    return _circulant(n, 1)


def _path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path(n) requires n >= 1")
    i = np.arange(n - 1)
    return build_graph(n, np.column_stack((i, i + 1)))


def _complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite(a, b) requires a, b >= 1")
    return build_graph(a + b, np.column_stack((np.repeat(np.arange(a), b), a + np.tile(np.arange(b), a))))


def _circulant(n: int, *connections: int) -> Graph:
    if n < 1:
        raise ValueError("circulant(n, ...) requires n >= 1")
    conn = sorted(int(s) for s in connections)
    if len(set(conn)) != len(conn):
        raise ValueError("circulant connection set contains duplicates")
    blocks = []
    for s in conn:
        if not 1 <= s <= n // 2:
            raise ValueError(f"circulant connection {s} outside 1..{n // 2}")
        # s = n/2 on even n pairs each vertex once; smaller s gives n edges
        i = np.arange(s if 2 * s == n else n)
        blocks.append(np.column_stack((i, (i + s) % n)))
    return build_graph(n, np.concatenate(blocks))


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def _hypercube(d: int) -> Graph:
    if d < 0:
        raise ValueError("hypercube(d) requires d >= 0")
    n = 1 << d
    # the edges (i, i ^ 2^b) with i < i ^ 2^b, in order of i, then of b
    i = np.arange(n)[:, None]
    j = i ^ (1 << np.arange(d))
    i, j = np.broadcast_arrays(i, j)
    below = i < j
    return build_graph(n, np.column_stack((i[below], j[below])))


def _z4_squared(joined) -> Graph:
    """The Cayley graph of Z4 x Z4, cell (a, b) as vertex 4a + b, that joins
    two cells where joined holds for their difference (da, db) mod 4, as it
    must for its negative too; its edges in lexicographic order."""
    pairs = itertools.combinations(itertools.product(range(4), repeat=2), 2)
    edges = [(4 * a + b, 4 * c + d) for (a, b), (c, d) in pairs if joined((c - a) % 4, (d - b) % 4)]
    return build_graph(16, edges)


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
    # the two strongly regular (16, 6, 2, 2) graphs (Brouwer & Haemers,
    # Spectra of Graphs): Z4 x Z4 on {±(1,0), ±(0,1), ±(1,1)}, -1 being 3,
    # and the 4 x 4 grid's cells joined when they share a row or a column
    "shrikhande": (
        lambda: _z4_squared(lambda da, db: (da, db) in {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}),
        0,
        lambda: 48,
    ),
    "rook4x4": (lambda: _z4_squared(lambda da, db: da == 0 or db == 0), 0, lambda: 48),
    "null": (lambda: build_graph(0, []), 0, lambda: 0),
}

GENERATOR_FAMILIES = tuple(_GENERATORS)

# Peak memory of a generator per edge, as growth of ru_maxrss in a fresh
# process over the whole `generate ...` call, the writer's buffers
# included: 57.2 to 77.1 bytes, as an edge list or as JSON, with --out F or
# to stdout, over complete 2000 and 3000, hypercube 17, cycle and path
# 2 000 000, cycle 4 000 000 and circulant 300 000 with seven connections;
# the estimate is the largest with a quarter more.  build_graph's
# validation sets the peak, ahead of the text even where it is held whole.
_GENERATED_BYTES_PER_EDGE = 97


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


def _plain_values(raw: bytes) -> np.ndarray | None:
    """The tokens of raw as one int64 array, header first, where raw has
    the form ``save_graph`` writes: lines of two ASCII digit runs joined by
    one space, one LF after each line but perhaps the last, a header whose
    edge count is the number of lines after it, and no token at or beyond
    INT64_MAX; None for any other bytes.

    Deleting the digits must leave " \\n" once per line, its last LF
    perhaps missing; then one numpy call reads every token."""
    shape = raw.translate(None, b"0123456789")
    lines = (len(shape) + 1) // 2
    if not lines or shape != (b" \n" * lines)[: len(shape)]:
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    # an empty token reads as no value, and numpy clamps a token beyond
    # int64 to INT64_MAX
    if len(values) != 2 * lines or values[1] != lines - 1 or values.max() >= _INT64_MAX:
        return None
    return values


def _plain_graph(values: np.ndarray) -> Graph:
    """The graph of _plain_values' tokens."""
    return build_graph(int(values[0]), values[2:].reshape(-1, 2))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: "n m" then m lines "u v".

    Blank lines are skipped.  A malformed line, a token that is not an
    integer and an invalid edge raise, the first in input order.  Text in
    the form ``save_graph`` writes is read in one pass over its bytes; any
    other text by a tokenizer that gives the same graph or error.
    """
    values = _plain_values(text.encode("ascii")) if text.isascii() else None
    if values is None:
        return _tokenized_edge_list(text)
    return _plain_graph(values)


def _tokenized_edge_list(text: str) -> Graph:
    """``parse_edge_list`` for any text: every form that ``str.split`` and
    ``int`` read."""
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise GraphValidationError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphValidationError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise GraphValidationError(f"header declares {m} edges but {len(lines) - 1} lines follow")
    if set(map(len, map(str.split, lines))) != {2}:
        k = next(k for k, ln in enumerate(lines) if len(ln.split()) != 2)
        # a token of an earlier line that is not an integer comes first
        for token in " ".join(lines[1:k]).split():
            int(token)
        raise GraphValidationError(f"edge line must be 'u v', got {lines[k]!r}")
    # every line holds two tokens: the text's tokens after the header's
    # are the edges' endpoints, in order.  They go to build_graph as Python
    # strings in an object array, so that a token that is no integer is
    # quoted as int() quotes it; the token list is freed first.
    del lines
    tokens = text.split()
    del tokens[:2]
    ends = np.array(tokens, dtype=object).reshape(-1, 2)
    del tokens
    return build_graph(n, ends)


# rows per chunk of _decimal_rows: a chunk's temporaries (the gathered cells
# and their bytes) stay at a few hundred kilobytes, in a core's cache,
# however large the graph, and no buffer but the text grows
_CHUNK_ROWS = 1 << 13

_ASCII_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _label_digits(digits: np.ndarray) -> None:
    """Write the labels 0..count-1 into digits, a (count, width) uint8
    array, in decimal, right-aligned, with zero bytes left of each label's
    leading digit.

    No division: the digit at place p runs through 0-9, each held for 10**p
    labels, so each place is a few broadcast writes over blocks of 10**p
    labels; the labels below 10**p, p > 0, have no digit there."""
    count, width = digits.shape
    for p in range(width):
        hold = 10**p
        place = digits[:, width - 1 - p]
        whole = count - count % hold
        # block b of hold labels shows digit b % 10, and the labels after
        # the last whole block show the next block's digit
        blocks = place[:whole].reshape(-1, hold)
        cycles = len(blocks) - len(blocks) % 10
        blocks[:cycles].reshape(-1, 10, hold)[...] = _ASCII_DIGITS[:, None]
        blocks[cycles:] = _ASCII_DIGITS[: len(blocks) - cycles, None]
        place[whole:] = _ASCII_DIGITS[len(blocks) % 10]
        if p:
            place[:hold] = 0


def _decimal_rows(values: np.ndarray, *separators: bytes) -> Iterator[bytes]:
    """The rows of a non-negative (m, k) int64 array as text, each row
    separators[0], its first entry in decimal, separators[1], ..., its
    last entry, separators[k]; the rows in order, in chunks of bytes.

    Each value is formatted into a cell: separators[0] in column 0 only,
    the digits right-aligned, the column's own trailing separator, and zero
    bytes up to a power-of-two slot, which numpy gathers fastest.  Where
    there are fewer labels 0..top than entries, each column has one table
    of cells over the labels, its digits written by ``_label_digits``, and
    a chunk's rows are one gather per column; otherwise the table is the
    rows, one cell per entry by repeated division, so no table is larger
    than the data.  One ``bytes.translate`` per chunk removes the zero
    bytes.
    """
    m, k = values.shape
    if m == 0:
        return
    top = int(values.max())
    width = len(str(top))
    lead, trails = separators[0], separators[1:]
    slot = 1 << (len(lead) + width + max(map(len, trails)) - 1).bit_length()
    at = len(lead) + width
    if top < values.size:
        # column c's table holds label x's cell at x
        tables = np.zeros((k, top + 1, slot), dtype=np.uint8)
        _label_digits(tables[0, :, len(lead) : at])
        tables[1:] = tables[0]
        _separate(tables.transpose(1, 0, 2), lead, trails, at)
        tables = tables.view(f"V{slot}")[..., 0]
        rows = np.empty((min(m, _CHUNK_ROWS), k), dtype=tables.dtype)
        for start in range(0, m, _CHUNK_ROWS):
            chunk = values[start : start + _CHUNK_ROWS]
            out = rows[: len(chunk)]
            # every value is a label of the table: "clip" clips nothing, and
            # unlike "raise" it takes straight into out, without a buffer
            for c in range(k):
                tables[c].take(chunk[:, c], out=out[:, c], mode="clip")
            yield out.tobytes().translate(None, b"\0")
        return
    cells = np.zeros((m, k, slot), dtype=np.uint8)
    # the digits from the right by repeated division, in the narrowest
    # unsigned type that holds every entry
    digits = cells[:, :, len(lead) : at]
    q = values.astype(np.min_scalar_type(top))
    for p in range(width - 1, -1, -1):
        # a digit is shown when its place is at most the entry; the units
        # digit always is, and a place not shown stays a zero byte
        shown = np.minimum(q, 1) if p < width - 1 else 1
        q, digit = np.divmod(q, 10)
        digit += ord("0")
        digit *= shown
        digits[..., p] = digit
    _separate(cells, lead, trails, at)
    rows = cells.view(f"V{slot}")[..., 0]
    for start in range(0, m, _CHUNK_ROWS):
        yield rows[start : start + _CHUNK_ROWS].tobytes().translate(None, b"\0")


def _separate(cells: np.ndarray, lead: bytes, trails: tuple[bytes, ...], at: int) -> None:
    """Write the separators into (count, k, slot) cells whose digits end
    before byte at: lead at the start of column 0, trails[c] from at on in
    column c."""
    cells[:, 0, : len(lead)] = np.frombuffer(lead, dtype=np.uint8)
    for c, trail in enumerate(trails):
        cells[:, c, at : at + len(trail)] = np.frombuffer(trail, dtype=np.uint8)


def _json_pair_chunks(values: np.ndarray) -> Iterator[bytes]:
    """The (m, 2) array as the JSON list of pairs json.dumps writes, in
    chunks of bytes."""
    rows = _decimal_rows(values, b"[", b", ", b"], ")
    # every pair but the last is followed by ", "
    last = next(rows, b", ")
    yield b"["
    for chunk in rows:
        yield last
        last = chunk
    yield last[:-2] + b"]"


def _json_pairs(values: np.ndarray) -> str:
    """The (m, 2) array as the JSON list of pairs json.dumps writes."""
    return b"".join(_json_pair_chunks(values)).decode("ascii")


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
    # JSON gives lists, ints, bools and other types: type(x) is int excludes bool
    if not (
        isinstance(edges, list)
        and set(map(type, edges)) <= {list}
        and set(map(len, edges)) <= {2}
        and set(map(type, itertools.chain.from_iterable(edges))) <= {int}
    ):
        raise GraphValidationError('graph JSON "edges" must be a list of integer pairs [u, v]')
    return build_graph(n, edges)


def _graph_dict(g: Graph) -> dict:
    """The graph JSON format as a dict, as ``format_graph`` writes it."""
    return {"n": g.vertex_count, "edges": g.ends.tolist()}


def _graph_bytes(g: Graph, fmt: str) -> Iterator[bytes]:
    """The file bytes of g in one format, "edgelist" or "json", as chunks
    to write in order; an unknown format raises here, before any is made."""
    n, m = g.vertex_count, g.edge_count
    if fmt == "edgelist":
        return itertools.chain((f"{n} {m}\n".encode(),), _decimal_rows(g.ends, b"", b" ", b"\n"))
    if fmt == "json":
        return itertools.chain((f'{{"n": {n}, "edges": '.encode(),), _json_pair_chunks(g.ends), (b"}\n",))
    raise ValueError(f"unknown format {fmt!r}")


def format_graph(g: Graph, fmt: str) -> str:
    """The text of g in one file format: "edgelist" or "json"."""
    return b"".join(_graph_bytes(g, fmt)).decode("ascii")


def load_graph(path: str) -> Graph:
    """Read a graph file, sniffing JSON vs edge-list by the leading brace.

    The file is read as bytes.  Bytes in the form ``save_graph`` writes go
    to ``build_graph`` as one int64 array, with the bytes freed first; any
    other file is decoded as UTF-8 text with universal newlines, as text
    mode reads it, for the JSON reader or the edge-list tokenizer."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # text mode's newlines, on the bytes: no UTF-8 character holds a CR or
    # LF byte (a search for CR is much faster than a replace that finds none)
    values = _plain_values(raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in raw else raw)
    if values is not None:
        del raw
        return _plain_graph(values)
    text = raw.decode("utf-8")
    del raw
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return _tokenized_edge_list(text)


def save_graph(g: Graph, path: str, fmt: str = "edgelist") -> None:
    chunks = _graph_bytes(g, fmt)
    with open(path, "wb") as fh:
        fh.writelines(chunks)
