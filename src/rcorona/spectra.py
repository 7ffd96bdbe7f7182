"""Normalized Laplacian matrices, a dense symmetric eigensolver, and
tolerance-aware spectrum comparison.

The eigensolver is the package's independent numeric oracle: a Householder
reduction to tridiagonal form (Golub & Van Loan, *Matrix Computations*,
§8.3), blocked in panels while the trailing matrix is large and unblocked
for its last columns, as LAPACK's dsytrd hands them to dsytd2, then divide
and conquer over QL leaves on the tridiagonal.  A panel keeps its
reflectors' v and 2w rows in one array, and each correction pairs the rows
by a gather of their entries.  A sparse input (at most _SPARSE_DENSITY n^2
nonzeros) starts with a wider panel whose products take the input's
nonzero list in place of the trailing square, which is still the input
while that panel runs; its finiteness and symmetry checks run over the
same list.  Orders up to _DC_CROSSOVER go to root-free QL directly
(LAPACK's dsterf), which finds eigenvalues only; larger ones are torn in
half recursively (Cuppen 1981) down to implicit-shift QL leaves, which
also carry the eigenvector matrix's first and last rows, and each merge
deflates and solves a secular equation for the rest (Gu & Eisenstat 1995;
LAPACK's dstedc).  The multiple eigenvalues of a corona deflate, so they
cost no secular solve.  The merges run bottom up, one height at a time, and
all the secular sets of a height are solved together on numpy arrays, a
column per root, one block of columns at a time, so that they hold k x block
arrays instead of k x k.  Both QL loops split the tridiagonal where a
coupling is at most eps ||T||.
It uses numpy's matrix products but never ``numpy.linalg``, and fails
loudly on non-convergence.  It is deterministic for fixed input on a given
numpy/BLAS build, whatever the BLAS thread count: the panels' trailing
update runs tile by tile over the lower triangle, each panel decides once,
from its shapes, whether its matrix-vector and dot products fit one call
or go in blocks (_panel), the unblocked loop's matrix has at most
_UNBLOCKED + _PANEL rows, and so every BLAS call stays within OpenBLAS's
threading thresholds (_BLAS_CALL_BOUND multiply-adds, a sum over
_INNER_ENTRIES entries); the sums over the nonzero list and the merges
make no BLAS call.  The normalized Laplacian is written straight from the
edge list.  The oracle serves the numeric route (the corona's spectrum in
``spectrum --method numeric|both``), the cospectral certificates and the
spectral invariants; the closed form solves its input spectra with LAPACK
instead, so a cross-check never runs both sides through this solver.

``Spectrum.to_csv`` prints the bytes of ``"%.17g"`` through the run writer
(``_write_runs``), which the closed form's plain output shares: it takes
sorted values with counts, formats the value of each run of equal bits
once, and writes its line repeated in pieces of bounded size.  A value with
1e-4 <= |v| < 1e16, where %g writes fixed notation, goes through a numpy
kernel (_fixed_g17): it gets |v| 10**(16 - E) exactly by Dekker's product,
rounds it half to even as CPython's dtoa does, and lays its 17 digits out
from a table of four-digit words.  Every other value, zeros and non-finite
values among them, keeps Python's own format.
"""

from dataclasses import dataclass
import functools
import itertools
import math
import operator

import numpy as np

from .errors import ConvergenceError, HypothesisError
from .graphs import Graph, _refuse_dense, adjacency_matrix

__all__ = [
    "Spectrum",
    "SpectrumComparison",
    "normalized_laplacian",
    "normalized_laplacian_regular",
    "numeric_spectrum",
    "nl_spectrum",
    "compare_spectra",
    "summarize",
]

# Agreement of two spectra, value by value: the 1e-8 to which the closed
# form and the numeric oracle must agree, and the CLI's default --tol.
_MATCH_TOL = 1e-8
# The CLI's Laplacians are symmetric bit for bit, so this bounds only the
# matrices that library callers pass to numeric_spectrum.
_SYMMETRY_TOL = 1e-12
_QL_MAX_ITER = 100
# per secular root, as LAPACK's dlaed4 (MAXIT)
_SECULAR_MAX_ITER = 30
# The secular solve takes the roots of all the sets of one merge height,
# and each merge's Loewner products and rows its own roots, in blocks of
# _SECULAR_BLOCK to 2 _SECULAR_BLOCK - 1 (see _blocks), so that the arrays
# are k x block, not k x k: a relabelled corona of order 612 has about 154
# roots at its first height, in two blocks.  On random symmetric matrices,
# whose merges deflate almost nothing, the peak traced memory of divide and
# conquer was 0.92, 0.45 and 0.24 N x N matrices at N = 612, 1105 and 2040
# (1.77, 0.95 and 0.49 with blocks of 128; 8.26, 7.71 and 7.38 when each
# merge held k x k arrays), and its time 66, 179 and 509 ms (60, 166 and 496
# with 128; 32 was 8 to 21% slower).
_SECULAR_BLOCK = 64
# Orders above _DC_CROSSOVER take divide and conquer.  Against root-free QL
# (medians of 7 to 9 runs of the tridiagonal stage alone), it was slower at
# every order up to 256 on random, circulant and relabelled circulant
# matrices and on 110 relabelled corona Laplacians of orders 150 to 340
# (at 208, the {null, K3} certificate corona: 3.6 ms for QL, 4.9 ms for
# divide and conquer); from 264 on, divide and conquer won some coronas,
# and the {K3, C4} certificate corona at 304 (8.0 ms against 9.2 ms).
# Re-measured with the merges' secular sets solved a merge height at a time
# (medians of three rounds of 9 runs): {K4, C5} coronas favour divide and
# conquer at 204 and 340 (4.39 ms against QL's 5.23, 7.64 against 13.27),
# as does the {K3, C4} certificate corona at 304 (5.38 against 7.85), but
# the {null, K3} certificate corona at 208 (3.43 against 3.01) and a
# relabelled circulant(60; 1, 2) with {P2, null} at 300 (7.33 against 6.55)
# still favour QL, so the crossover stays.
# Leaves have at most _DC_LEAF rows (48 and 64 ran equally fast; 32 was
# slower).  Re-measured on the same coronas above 256: 24 and 32 were
# slower on every family (at 340, 11.1 ms against 9.4), and 64 won the
# certificate and {K3, C4} coronas by up to 6% but lost {P2, null} at 300
# and one of three N = 612 coronas, so the leaf stays.
_DC_CROSSOVER = 256
_DC_LEAF = 48
# Columns per panel of the blocked Householder reduction (16 and 64 run
# equally fast).
_PANEL = 32
# The reduction runs a panel only while the trailing matrix after it has
# more than _UNBLOCKED rows, and reduces the columns left one at a time: a
# panel pays about 20 us of numpy calls per column for its corrections,
# which only a large trailing update repays.  In a sweep of 64, 96, 128 and
# 160 (medians of 16 runs), 96 was fastest at orders 208 and 304 (5.2 and
# 10.4 ms, against up to 6.4 and 11.7) and within 4% of the fastest at 160
# and 612; at 125 and 128, which 96 and above reduce unblocked, all four
# read 2.6 to 2.8 ms.  Re-swept once the panels decided their BLAS bounds
# once per panel (medians of 12 runs of the reduction, one BLAS thread):
# 64/96/128/160 took 6.43/6.34/6.60/7.13 ms on the N = 304 certificate
# coronas, 28.6/28.9/29.1/31.3 and 138.9/139.4/140.9/139.1 ms on relabelled
# {K4, C5} coronas of orders 612 and 1020, and 6.15/6.11/6.28/6.66,
# 28.7/28.9/28.5/29.9 and 145.1/144.6/143.4/144.3 ms on random sparse
# matrices (1% nonzeros) of orders 300, 612 and 1020: no value won every
# family, so 96 stays.
_UNBLOCKED = 96
# A BLAS call's last bits depend on the thread count once OpenBLAS splits
# it over threads.  It does not split a product of m*n*k <= 2**18
# multiply-adds (its threshold for matrix products), nor the sum of a
# matrix-vector or dot product over at most 10 000 entries (found by
# comparing 1 and 2 threads over every product shape of the reduction up to
# a trailing size of 16 400), so the reduction keeps every call within both.
_BLAS_CALL_BOUND = 2**18
_INNER_ENTRIES = 10_000
# Rows and columns per tile of the trailing update, at most: a tile's product
# is _TILE * _TILE * 2 _PANEL <= _BLAS_CALL_BOUND (56 ran faster than 32 and
# 48); the sparse route's wider first panel takes smaller tiles (_update).
_TILE = 56
# A matrix with at most _SPARSE_DENSITY n^2 nonzeros takes the sparse first
# panel (see _householder_tridiagonal).  On random sparse symmetric
# matrices (medians of 5 to 15 runs of the reduction, one BLAS thread) the
# sparse route broke even at about 2.5% nonzeros at order 300, 3% at 400,
# 3.5% at 1020 and 5.5% at 612; at 1 to 2% it was 3 to 17% faster at orders
# 400 to 1020 (one run at 2.2% and order 612 read 4% slower), and at 7 to
# 10% it was 10 to 15% slower.
_SPARSE_DENSITY = 0.02
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalue multiset: one read-only float64 array, ``values``.

    Two spectra are equal when their values are, -0.0 and 0.0 alike; a
    spectrum is not hashable.
    """

    values: np.ndarray

    def __post_init__(self):
        # one stable sort (a copy, so the caller's array keeps its flags):
        # equal values, -0.0 and 0.0 among them, keep their input order
        values = np.sort(np.asarray(self.values, dtype=np.float64), kind="stable")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self) -> str:
        """The values in order, one per line, each as ``"%.17g"`` prints it,
        through the run writer (``_write_runs``)."""
        pieces = []
        _write_runs(self.values, np.ones_like(self.values, np.int64), pieces.append)
        return "".join(pieces)


# Lines per write of _write_runs.  A line takes at most 24 bytes, so a piece
# of text stays under 1.6 MB however long the runs are.
_WRITE_CHUNK = 1 << 16


def _write_runs(values: np.ndarray, counts: np.ndarray, write) -> None:
    """Write ``"%.17g\\n" % v``, ``counts[i]`` times, for each of the sorted
    ``values``, through ``write``, in pieces of at most _WRITE_CHUNK lines.

    Neighbours with equal bits form one run (-0.0 and 0.0 do not), whose
    value is formatted once, by ``_g17_lines``: values with
    1e-4 <= |v| < 1e16, where ``%g`` uses fixed notation, through
    ``_fixed_g17``; the rest through Python's own format.  The runs are
    formatted _FIXED_CHUNK at a time and written as one piece when their
    lines fit in one, else run by run, a long run in several pieces; so
    neither the text nor the lines of the values are ever held whole.
    """
    # a run starts where the bits change, the first at 0 (~b differs from b)
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.diff(bits, prepend=~bits[:1]))
    values, counts = values[starts], np.add.reduceat(counts, starts)
    for i in range(0, len(values), _FIXED_CHUNK):
        lines = _g17_lines(values[i : i + _FIXED_CHUNK])
        runs = counts[i : i + _FIXED_CHUNK].tolist()
        if sum(runs) <= _WRITE_CHUNK:
            write("".join(map(operator.mul, lines, runs)))
            continue
        for line, count in zip(lines, runs):
            for start in range(0, count, _WRITE_CHUNK):
                write(line * min(count - start, _WRITE_CHUNK))


# Sorted values below these edges are those <= -1e16, <= -1e-4, < 1e-4 and
# < 1e16, so one search finds the two slices in _fixed_g17's range,
# 1e-4 <= |v| < 1e16.
_FIXED_EDGES = np.array([math.nextafter(-1e16, math.inf), math.nextafter(-1e-4, math.inf), 1e-4, 1e16])
# Values per call of _g17_lines in _write_runs, and so of _fixed_g17, whose
# temporaries take about 250 bytes a value.  Printing C_100000 with {K4, C5}
# (1.1 million values, 200 000 distinct) peaked at 77 bytes per value with
# chunks of 8192, 83 with 65536 and 89 in one call, against 83 for Python's
# format.
_FIXED_CHUNK = 1 << 13
# Veltkamp's splitting constant 2**27 + 1, and the bytes per line of
# _fixed_g17: a sign, 17 digits, "0." and three zeros at most, a newline.
_SPLIT = 134217729.0
_SLOT = 24
_ZERO_POINT = np.frombuffer(b"0.000", dtype=np.uint8)


def _g17_lines(values: np.ndarray) -> list[str]:
    """``"%.17g\\n" % v`` for each of the sorted values, as a list."""
    # the values in range are two slices, the negative and the positive ones
    a, b, c, d = np.searchsorted(values, _FIXED_EDGES).tolist()
    lines = _fixed_g17(np.concatenate((values[a:b], values[c:d]))).splitlines(keepends=True)
    rest = np.concatenate((values[:a], values[b:c], values[d:]))
    other = ("%.17g\n" * len(rest) % tuple(rest.tolist())).splitlines(keepends=True)
    # each value out of range back in its place
    lines[b - a : b - a] = other[a : a + c - b]
    lines[:0] = other[:a]
    lines += other[a + c - b :]
    return lines


@functools.cache
def _g17_tables():
    """_fixed_g17's read-only tables, built on first use:

    - the least double >= 10**E for E = -3..16, so that a searchsorted
      index is E + 4 for 1e-4 <= |v| < 1e16;
    - 10**(16 - E) by that index, whole and as Veltkamp's two halves;
    - "0000" to "9999" as four-byte words;
    - for each of the four words after the leading digit, by its value,
      the count of N's significant digits if its last nonzero digit is in
      that word (1, the leading digit alone, for a zero word), so that the
      count is their maximum;
    - the bytes that a slot keeps, by (E + 4, significant digits): the
      sign, the integer part, and the point and fraction up to the last
      significant digit, or the "0." and zeros and the digits for E < 0,
      and the newline.
    """
    # 1e-3, 1e-2 and 1e-1 parse to the doubles just above their powers of
    # ten (as 1e-4, the range's lower edge, does); from 1e0 on they are exact
    thresholds = np.array([float(f"1e{e}") for e in range(-3, 17)])
    scale = np.array([float(10**k) for k in range(20, 0, -1)])
    c = scale * _SPLIT
    scale_hi = c - (c - scale)
    # in the narrowest types, as they stay resident
    w = np.arange(10_000, dtype=np.int16)
    digits = (w[:, None] // 10 ** np.arange(3, -1, -1, dtype=np.int16) % 10).astype(np.uint8)
    words = digits + np.uint8(ord("0"))
    zeros = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1, dtype=np.int8)
    significant = np.where(w > 0, np.arange(5, 18, 4, dtype=np.int8)[:, None] - zeros, np.int8(1))
    x = np.arange(-4, 16)[:, None, None]
    sig = np.arange(18)[:, None]
    col = np.arange(_SLOT)
    kept = ((col == _SLOT - 1) | (col < 2 + abs(x))
            | ((col < 2 + sig - np.minimum(x, 0)) & (sig > x + 1)))
    tables = (thresholds, scale, scale_hi, scale - scale_hi,
              words.view(np.uint32).ravel(), significant.ravel(),
              (kept * np.uint8(255)).view(f"V{_SLOT}").ravel())
    for t in tables:
        t.flags.writeable = False
    return tables


def _fixed_g17(values: np.ndarray) -> str:
    """``"%.17g\\n" % v`` for each of the sorted values, all with
    1e-4 <= |v| < 1e16, where %g writes fixed notation, as one string.

    With E = floor(log10 |v|), found exactly by a search over the least
    double at or above each power of ten, the 17 digits are
    N = |v| 10**(16 - E) rounded half to even, as CPython's correctly
    rounded dtoa gives them.  10**(16 - E) <= 10**20 is a double, so
    Dekker's product gives |v| 10**(16 - E) exactly as hi + lo;
    hi >= 10**16 > 2**53 is an even integer, so N = hi + rint(lo), summed in int64.  N never
    rounds up to 10**17: the largest double below 10**(E + 1) lies more than
    8e-17 of it below, and the 17th digit rounds at 5e-18.  The digits come
    from a table of four-digit words and are laid out in zero-padded slots,
    one block of equal E at a time (the values are sorted, so a block is a
    slice); a mask keyed by E and the count of significant digits clears
    the trailing zeros of the fraction, and the point of a whole number,
    and one translate drops the zero bytes.
    """
    k = len(values)
    if not k:
        return ""
    thresholds, scale, scale_hi, scale_lo, words, significant, masks = _g17_tables()
    a = np.abs(values)
    index = np.searchsorted(thresholds, a, side="right")
    b, b_hi, b_lo = scale[index], scale_hi[index], scale_lo[index]
    hi = a * b
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    # the leading digit and four words, by divisions by a constant
    upper, lower = n // 10**8, n % 10**8
    top = upper // 10**8
    upper -= top * 10**8
    digit_words = np.stack((top, upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4))
    digits = words.take(digit_words.T).view(np.uint8)[:, 3:]
    sig = significant.take(digit_words[1:] + np.arange(0, 40_000, 10_000)[:, None]).max(axis=0)
    out = np.zeros((k, _SLOT), dtype=np.uint8)
    out[: np.searchsorted(values, 0.0), 0] = ord("-")
    out[:, -1] = ord("\n")
    edges = (np.flatnonzero(np.diff(index)) + 1).tolist()
    for start, stop in itertools.pairwise([0, *edges, k]):
        e = int(index[start]) - 4
        slots, block = out[start:stop], digits[start:stop]
        if e >= 0:
            slots[:, 1 : e + 2] = block[:, : e + 1]
            slots[:, e + 2] = ord(".")
            slots[:, e + 3 : 19] = block[:, e + 1 :]
        else:
            slots[:, 1 : 2 - e] = _ZERO_POINT[: 1 - e]
            slots[:, 2 - e : 19 - e] = block
    out &= masks.take(index * 18 + sig).view(np.uint8).reshape(k, _SLOT)
    return out.tobytes().translate(None, b"\0").decode("ascii")


@dataclass(frozen=True)
class SpectrumComparison:
    matched: bool
    max_deviation: float
    worst_index: int
    reason: str

    def __bool__(self) -> bool:
        return self.matched


def normalized_laplacian(g: Graph) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2}; requires every vertex to have degree >= 1.

    Built from the edges: the identity, then -1/sqrt(d_u d_v) at (u, v) and
    (v, u) for each edge uv.  That is the entry of I - A / sqrt(d d^T) bit
    for bit, so the regular case equals the I - A/r shortcut (the sqrt of a
    perfect square is exact).
    """
    # the dense pre-flight comes first: an order too large for memory is
    # refused before the O(n) degree list is built
    n = g.vertex_count
    _refuse_dense(n)
    deg = g.degrees
    isolated = np.flatnonzero(deg == 0)
    if isolated.size:
        bad = int(isolated[0])
        raise HypothesisError(
            f"normalized Laplacian undefined for degree-0 vertex (vertex {bad})"
        )
    d = deg.astype(np.float64)
    u, v = g.ends.T
    lap = np.eye(n)
    lap[u, v] = lap[v, u] = -1.0 / np.sqrt(d[u] * d[v])
    return lap


def normalized_laplacian_regular(g: Graph) -> np.ndarray:
    """The regular-graph shortcut I - A/r; kept as a distinct code path so
    its entrywise agreement with the general formula can be tested."""
    r = g.regular_degree
    if r is None:
        raise HypothesisError("graph is not regular")
    if r < 1:
        raise HypothesisError("regular degree must be >= 1")
    n = g.vertex_count
    return np.eye(n) - adjacency_matrix(g).astype(np.float64) / float(r)


# The panels' matrix-vector product where they have found it within both
# BLAS bounds (see _panel): x @ y as one call, under a name of its own so
# that the products a panel makes directly can be counted.
_matvec = np.matmul


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The matrix-vector product x @ y, in blocks of rows of x and chunks
    of at most _INNER_ENTRIES of its columns, so that each BLAS call stays
    within both bounds; the chunks' partial products are added in order.
    A panel calls it only for the products it has not found within both
    bounds (see _panel)."""
    rows = _BLAS_CALL_BOUND // max(1, min(x.shape[1], _INNER_ENTRIES))
    if x.shape[0] <= rows and x.shape[1] <= _INNER_ENTRIES:
        return x @ y
    out = np.zeros(x.shape[0])
    for c in range(0, x.shape[1], _INNER_ENTRIES):
        for r in range(0, x.shape[0], rows):
            out[r : r + rows] += x[r : r + rows, c : c + _INNER_ENTRIES] @ y[c : c + _INNER_ENTRIES]
    return out


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """The dot product x . y, summed over chunks of _INNER_ENTRIES entries.
    A panel calls it only where its longest dot product is beyond the
    bound (see _panel)."""
    if x.size <= _INNER_ENTRIES:
        return float(np.dot(x, y))
    return sum(float(np.dot(x[c : c + _INNER_ENTRIES], y[c : c + _INNER_ENTRIES]))
               for c in range(0, x.size, _INNER_ENTRIES))


def _panel(a: np.ndarray, p: int, width: int, d: np.ndarray, e: np.ndarray, times=None):
    """Reduce columns p to p + width - 1 of the symmetric a as one panel,
    writing their diagonal and coupling into d and e; returns vw.

    Row j of a is read un-updated and corrected by the panel's earlier
    reflectors; so is each product of the trailing square a[j + 1:, j + 1:]
    by v, or times(j, v) where the caller has a cheaper way to form it.
    Rows 2k and 2k + 1 of vw hold v and 2w of the panel's k-th reflector,
    and column c is row p + c of a.  A correction pairs each row with its
    partner (v with 2w), so it takes the k entries of a column, or of a
    product by vw's rows, in the swapped order.

    The BLAS bounds are decided here, once per panel, from its shapes: a
    panel whose largest correction product (2 width rows by s columns, s
    the columns of vw) and longest dot product (s entries) fit both bounds
    calls _matvec and ndarray.dot directly; one that does not hands them to
    _product and _dot.  A product by the trailing square is one _matvec
    call while the square has at most sqrt(_BLAS_CALL_BOUND) (and
    _INNER_ENTRIES) rows, and goes to _product before that.  Either way a
    product is the one BLAS call, or the same blocks, that _product would
    make, and a dot product the same sum, so the choice changes no bit.
    """
    s = a.shape[0] - p
    if 2 * width * s <= _BLAS_CALL_BOUND and max(s, 2 * width) <= _INNER_ENTRIES:
        product, dot = _matvec, np.ndarray.dot
    else:
        product, dot = _product, _dot
    square_bound = min(math.isqrt(_BLAS_CALL_BOUND), _INNER_ENTRIES)
    vw = np.zeros((2 * width, s))
    swap = np.arange(2 * width) ^ 1
    for i, j in enumerate(range(p, p + width)):
        k = 2 * i
        partners = swap[:k]
        # row j of the symmetric A is its column j, from the diagonal on,
        # corrected in one product; at k = 0 every correction sums over no
        # reflectors and is an exact 0.0
        row = a[j, j:] - product(vw[:k, i:].T, vw[:k, i][partners])
        d[j], x = row[0], row[1:]
        norm_x, x0 = math.sqrt(dot(x, x)), float(x[0])
        # v = x - alpha e_1 with alpha = -sign(x_0) ||x||, so
        # ||v||^2 = 2 ||x|| (||x|| + |x_0|)
        vnorm = math.sqrt(2.0 * norm_x * (norm_x + abs(x0)))
        if vnorm == 0.0:
            continue
        alpha = -math.copysign(norm_x, x0) if x0 != 0.0 else -norm_x
        e[j] = alpha
        v = vw[k, i + 1 :]
        np.divide(x, vnorm, out=v)
        v[0] = (x0 - alpha) / vnorm
        if times is None:
            square = a[j + 1 :, j + 1 :]
            u = _matvec(square, v) if len(square) <= square_bound else _product(square, v)
        else:
            u = times(j, v)
        earlier = vw[:k, i + 1 :]
        u -= product(earlier.T, product(earlier, v)[partners])
        u -= dot(v, u) * v
        np.multiply(u, 2.0, out=vw[k + 1, i + 1 :])
    return vw


def _update(t: np.ndarray, vw: np.ndarray) -> None:
    """t -= vw^T vw' for a square t, where vw' is vw with each pair of rows
    swapped (one gather per panel), tile by tile over its lower triangle
    (diagonal tiles whole); each finished block of rows is then mirrored to
    the upper triangle.  A tile's product is tile * tile * len(vw)
    multiply-adds, within _BLAS_CALL_BOUND."""
    tile = min(_TILE, math.isqrt(_BLAS_CALL_BOUND // len(vw)))
    left = vw.T
    wv = vw[np.arange(len(vw)) ^ 1]
    for r in range(0, len(t), tile):
        rows = slice(r, r + tile)
        for c in range(0, r + 1, tile):
            t[rows, c : c + tile] -= left[rows] @ wv[:, c : c + tile]
        t[:r, rows] = t[rows, :r].T


def _first_width(n: int) -> int:
    """Columns of the sparse route's first panel at order n: the multiple
    of _PANEL nearest n / 6, at least one _PANEL.

    On relabelled circulant coronas with {K4, C5} (medians of 9 to 25 runs
    of the reduction, one BLAS thread), widths of 32/64/96/128/160/192 took
    49.6/47.6/43.3/43.4/45.3/48.1 ms at order 612 (dense route 55.8);
    64/96/128/160/192/224 took 213/199/193/195/201/203 ms at 1020 (dense
    233); 192/256/352/448 took 1.61/1.58/1.55/1.61 s at 2040 (dense 1.80).
    At 204 and 340 every width ran within noise of the dense route.
    Re-swept once the panels decided their BLAS bounds once per panel
    (medians of 12 runs, one BLAS thread): on the N = 304 certificate
    coronas 32/64/96/128 took 6.46/6.66/6.81/7.21 ms; on relabelled {K4, C5}
    coronas 32/64/96/128/160 took 35.2/32.6/28.3/27.4/28.3 ms at 612 and
    96/128/160/192/224 took 150.7/140.7/139.0/138.9/142.6 ms at 1020; on
    random sparse matrices (1% nonzeros) 32/64/96/128 took
    6.13/6.29/6.36/6.90 ms at 300, 32/64/96/128/160 took
    33.2/29.7/28.2/27.9/29.6 ms at 612 and 96/128/160/192/224 took
    148.2/153.6/150.1/148.7/152.5 ms at 1020.  Order 300 leans to 32, 612 to
    128 and 1020 to no width, each by at most 3%, so no width wins every
    family and n / 6 stays (another width would also move the oracle's last
    bits)."""
    return _PANEL * max(1, round(n / (6 * _PANEL)))


def _sparse_nonzeros(mat: np.ndarray) -> np.ndarray | None:
    """The flat indices of the nonzero entries of the square mat, in row
    order, where there are at most _SPARSE_DENSITY n^2 of them; else None.
    NaN is nonzero."""
    nonzero = mat.ravel() != 0
    if np.count_nonzero(nonzero) > _SPARSE_DENSITY * nonzero.size:
        return None
    return np.flatnonzero(nonzero)


def _householder_tridiagonal(mat: np.ndarray, nonzeros: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix of order n >= 2 to tridiagonal form;
    returns (diag, subdiag).  nonzeros, from _sparse_nonzeros(mat), lists
    the nonzero entries of a sparse mat; None takes the dense route.

    Blocked, then unblocked (Golub & Van Loan, *Matrix Computations*, §8.3;
    LAPACK's dsytrd, which runs dlatrd panels while the trailing matrix is
    larger than its crossover and finishes with dsytd2).  Column j is
    annihilated by the reflector I - 2vv^T with v a unit vector; its
    two-sided application is the rank-2 update A -= v(2w)^T + (2w)v^T with
    w = Av - (v^T A v)v.

    A panel of _PANEL columns runs only while the trailing matrix after it
    has more than _UNBLOCKED rows.  Within a panel the updates are only
    recorded (_panel): each column of A, and each product Av, is read from
    the un-updated matrix and corrected by the panel's earlier reflectors
    with one product each.  After the panel the trailing matrix takes all
    of them in one update (_update).  The columns left, at most
    _UNBLOCKED + _PANEL, are reduced one at a time as in dsytd2: one
    product Av and one rank-2 update of the whole trailing matrix, B^T B'
    with B the rows v and 2w and B' the same rows swapped, with no
    corrections to make.  So orders up to _UNBLOCKED + _PANEL, every corona
    of the acceptance sweep among them, run no panel.

    A sparse matrix that runs a panel takes a wider first one, of
    _first_width(n) columns, on the caller's matrix itself: during it A is
    still the input, so each product Av is one sum over the nonzero list
    (np.bincount, in a fixed order and with no BLAS call) instead of a read
    of the whole trailing square, which is what the dense route's panels
    spend most of their time on.  Only the trailing block after it is
    copied and updated; the later panels and the unblocked finish run as
    on the dense route.

    Every BLAS call stays within _BLAS_CALL_BOUND multiply-adds and sums
    over at most _INNER_ENTRIES entries, so the result is the same whatever
    the BLAS thread count.
    """
    mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[0]
    d = np.zeros(n)
    e = np.zeros(n - 1)
    start = 0
    if nonzeros is not None and n > _UNBLOCKED + _PANEL:
        start = _first_width(n)
        rows, cols = np.divmod(nonzeros, n)
        values = mat.ravel()[nonzeros]

        def times(j, v):
            padded = np.zeros(n)
            padded[j + 1 :] = v
            return np.bincount(rows, weights=values * padded[cols], minlength=n)[j + 1 :]

        vw = _panel(mat, 0, start, d, e, times)
        a = mat[start:, start:].copy()
        _update(a, vw[:, start:])
    else:
        a = np.array(mat)
    # a is the trailing matrix from row start on, and d and e its part
    d_rest, e_rest = d[start:], e[start:]
    panels = range(0, n - start - _UNBLOCKED - _PANEL, _PANEL)
    for p in panels:
        q = p + _PANEL
        vw = _panel(a, p, _PANEL, d_rest, e_rest)
        _update(a[q:, q:], vw[:, _PANEL:])
    # The columns left, on a contiguous copy t of the trailing matrix: each
    # rank-2 update is a product of whole rows of vw, v and 2w from column
    # i + 1 on, subtracted from whole rows of t (numpy subtracts a contiguous
    # block several times faster than a strided square).  What it leaves
    # left of column i + 1, from the earlier reflectors, is never read.
    p = len(panels) * _PANEL
    t = a[p:, p:].copy()
    d_rest, e_rest = d_rest[p:], e_rest[p:]
    m = len(t)
    vw = np.zeros((2, m))
    v_row, w_row = vw
    left, right = vw.T, vw[::-1]
    for i in range(m - 2):
        x = t[i, i + 1 :]
        norm_x, x0 = math.sqrt(x.dot(x)), t.item(i, i + 1)
        vnorm = math.sqrt(2.0 * norm_x * (norm_x + abs(x0)))
        if vnorm == 0.0:
            continue
        alpha = -math.copysign(norm_x, x0) if x0 != 0.0 else -norm_x
        e_rest[i] = alpha
        v, w = v_row[i + 1 :], w_row[i + 1 :]
        np.divide(x, vnorm, out=v)
        v[0] = (x0 - alpha) / vnorm
        np.matmul(t[i + 1 :, i + 1 :], v, out=w)
        w -= v.dot(w) * v
        w *= 2.0
        t[i + 1 :] -= left[i + 1 :] @ right
    # row i is final once column i - 1 is reduced, so its diagonal entry is
    # read after the loop
    d_rest[:] = t.diagonal()
    e[n - 2] = t[m - 1, m - 2]
    return d, e


def _split_tolerance(d: list[float], e: list[float]) -> float:
    """eps ||T|| for the symmetric tridiagonal (d, e), with ||T|| bounded by
    max|d| + 2 max|e|.  Both QL loops set a coupling of at most this size to
    zero (EISPACK tql1's normwise test), which moves no eigenvalue by more
    than it, against the reduction's own O(n eps ||A||) error."""
    return _EPS * (max(map(abs, d), default=0.0) + 2.0 * max(map(abs, e), default=0.0))


def _ql_values(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of a symmetric tridiagonal matrix by root-free QL.

    d: diagonal (length n), e: subdiagonal (length n-1).  The Pal-Walker-
    Kahan iteration (LAPACK's dsterf; Parlett, *The Symmetric Eigenvalue
    Problem*, ch. 8) carries the squared couplings, so a rotation takes no
    square root, and the scan for a split compares each squared coupling
    with the squared _split_tolerance.  Raises ConvergenceError if any
    eigenvalue needs more than the iteration cap.
    """
    d = list(d)
    tol2 = _split_tolerance(d, e) ** 2
    # a zero after the last coupling ends every scan
    e2 = [x * x for x in e] + [0.0]
    for l in range(len(d)):
        iterations = 0
        while True:
            m = l
            while e2[m] > tol2:
                m += 1
            if m == l:
                break
            iterations += 1
            if iterations > _QL_MAX_ITER:
                raise ConvergenceError(
                    f"tridiagonal QL failed to converge for eigenvalue {l} "
                    f"after {_QL_MAX_ITER} iterations"
                )
            # the shift of _ql_implicit, from the leading 2x2 block
            rte = math.sqrt(e2[l])
            sigma = (d[l + 1] - d[l]) / (2.0 * rte)
            sigma = d[l] - rte / (sigma + math.copysign(math.hypot(sigma, 1.0), sigma))
            gamma = d[m] - sigma
            p = gamma * gamma
            c, s = 1.0, 0.0
            # e2[i] > tol2 >= 0 for i < m, so r > 0; the first step zeroes
            # e2[m], the split
            for i in range(m - 1, l - 1, -1):
                b = e2[i]
                r = p + b
                e2[i + 1] = s * r
                old_c, c, s = c, p / r, b / r
                g, a = gamma, d[i]
                gamma = c * (a - sigma) - s * g
                d[i + 1] = g + (a - gamma)
                p = gamma * gamma / c if c else old_c * b
            e2[l] = s * p
            d[l] = sigma + gamma
    return d


def _ql_implicit(d: list[float], e: list[float]) -> tuple[list[float], list[float], list[float]]:
    """Eigenvalues of a symmetric tridiagonal matrix by implicit-shift QL,
    with the first and last rows of its eigenvector matrix.

    d: diagonal (length n), e: subdiagonal (length n-1).  Returns (values,
    first row, last row), the rows' entries in the order of the values.  It
    splits where |e_m| is at most _split_tolerance, as _ql_values does.
    Raises ConvergenceError if any eigenvalue needs more than the iteration
    cap.
    """
    n = len(d)
    d = list(d)
    tol = _split_tolerance(d, e)
    # a zero after the last coupling ends every scan
    e = list(e) + [0.0]
    first = [1.0] + [0.0] * (n - 1)
    last = [0.0] * (n - 1) + [1.0]
    hypot, copysign = math.hypot, math.copysign
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while abs(e[m]) > tol:
                m += 1
            if m == l:
                break
            iterations += 1
            if iterations > _QL_MAX_ITER:
                raise ConvergenceError(
                    f"tridiagonal QL failed to converge for eigenvalue {l} "
                    f"after {_QL_MAX_ITER} iterations"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            # the entries at i + 1 of d, first and last, carried in locals
            # from one rotation to the next: rotation i reads d[i + 1] before
            # any rotation writes it, and keeps its new first[i] and last[i]
            # for rotation i - 1, whose entries at i + 1 they are; the end of
            # the chase, or a split, writes them back
            d1, f1, l1 = d[m], first[m], last[m]
            for i in range(m - 1, l - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] = d1 - p
                    first[i + 1], last[i + 1] = f1, l1
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d1 - p
                d1 = d[i]
                r = (d1 - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f0, l0 = first[i], last[i]
                first[i + 1] = s * f0 + c * f1
                f1 = c * f0 - s * f1
                last[i + 1] = s * l0 + c * l1
                l1 = c * l0 - s * l1
            else:
                d[l] = d1 - p
                first[l], last[l] = f1, l1
                e[l] = g
                e[m] = 0.0
    return d, first, last


def _inside_root(a, b, c, t, lo, hi, fallback):
    """The offset from t to the root of a x^2 - b x + c = 0 (in x, an offset
    from t) that lands in the bracket [lo, hi] but not on the pole at 0,
    else fallback.  A bracket end other than 0 is no pole and may hold the
    root itself (say a midpoint where f rounds to 0)."""
    disc = b * b - 4.0 * a * c
    q = 0.5 * (b + np.copysign(np.sqrt(np.abs(disc)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.array((q / a, c / q))
    y = t + x
    inside = (y >= lo) & (y <= hi) & (y != 0.0) & (disc >= 0.0)
    # the second candidate wins where both land
    return np.where(inside[1], x[1], np.where(inside[0], x[0], fallback))


def _secular_roots(sets, orders):
    """Roots of 1/rho + sum_i z_i^2 / (d_i - x) for each set (d, z, rho) of
    strictly increasing poles d, nonzero z and rho > 0; orders holds the
    order of each set's merge, for the error message.  Returns one
    (origin, tau) per set, its root j being d[origin[j]] + tau[j].

    Root j lies between d_j and d_(j+1) (the last one between d_k and
    d_k + rho |z|^2); a set of one pole has it in closed form.  It is found
    as an offset tau from the nearer pole, so a root close to a pole keeps
    its relative accuracy (LAPACK's dlaed4), and d_i - root_j is taken as
    (d_i - d_origin) - tau.  The first guess keeps the interval's two poles
    exact and the rest as a constant, evaluated at the interval's midpoint.
    Each step then solves the middle-way model of R.-C. Li (LAWN 89), which
    matches the value and slope of the poles below and above the root
    separately, or, where f falls slowly, a model that keeps the origin's
    pole exact; a model root outside the bracket falls back to bisection.

    Every root of every set with two or more poles takes a column of its
    own, and the columns go to _secular_columns one block (_blocks) at a
    time, so that a call holds K x block arrays, K the most poles in the
    block, never K x K.  A column holds its set's poles in order, then
    poles at +inf of weight -0.0: their terms are exact -0.0, and
    x + (-0.0) is x for every x, so each root iterates on its own and each
    of its sums runs over its own poles, first to last, whichever sets
    share its arrays.
    """
    if not sets:
        return []
    d, z, rho = zip(*sets)
    sizes = np.array([x.size for x in d])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    poles = np.concatenate(d)
    weights = np.square(np.concatenate(z))
    # each root's interval, the last of a set's up to rho |z|^2 above its
    # last pole; a set of one pole has its root there
    width = np.empty(poles.size)
    width[:-1] = poles[1:] - poles[:-1]
    width[ends - 1] = [r * float(weights[a:b].sum()) for r, a, b in zip(rho, starts.tolist(), ends.tolist())]
    origin, tau = np.zeros(poles.size, dtype=np.int64), width.copy()
    # per root: its set's size, start and rho, its merge's order, and its
    # index in the set
    k, start, rho, order = (np.repeat(x, sizes) for x in (sizes, starts, rho, orders))
    j = np.arange(poles.size) - start
    many = np.flatnonzero(k > 1)
    for block in _blocks(many.size):
        cols = many[block]
        rows = np.arange(k[cols].max())[:, None]
        at, inside = start[cols] + rows, rows < k[cols]
        origin[cols], tau[cols] = _secular_columns(
            np.where(inside, poles.take(at, mode="clip"), np.inf),
            np.where(inside, weights.take(at, mode="clip"), -0.0),
            width[cols], rho[cols], j[cols], k[cols], order[cols])
    return [(origin[a:b], tau[a:b]) for a, b in zip(starts.tolist(), ends.tolist())]


def _blocks(m: int) -> list[slice]:
    """The columns 0..m-1 in max(1, m // _SECULAR_BLOCK) blocks of
    consecutive columns, of _SECULAR_BLOCK to 2 _SECULAR_BLOCK - 1 each, or
    all m in one (none for m = 0): so for m >= 2 (and _SECULAR_BLOCK >= 2)
    every block has at least two columns, which numpy sums in order (see
    _secular_columns)."""
    count = max(1, m // _SECULAR_BLOCK) if m else 0
    return [slice(m * b // count, m * (b + 1) // count) for b in range(count)]


def _secular_columns(poles, weights, width, rho, j, k, order):
    """_secular_roots's iteration for a block of at least two roots, all of
    them together: column c of the K x m arrays poles and weights (z^2)
    holds the k[c] poles of root c's set, padded, and width[c], rho[c] and
    order[c] are its interval, its set's rho and its merge's order, and
    j[c] its index in the set.  Returns (origin, tau) by column.  numpy sums
    each column of a C-ordered K x m array, m >= 2, first to last, one row
    after another; a root that stops moving keeps its column, masked, so
    every array keeps its shape."""
    columns = np.arange(j.size)
    # the root's model poles, lower and lower + 1 (for the last root the
    # two largest poles, as in dlaed4)
    lower = np.minimum(j, k - 2)
    model = np.array((lower, lower + 1))
    half = 0.5 * width
    # the terms z_i^2 / delta_i and their slopes
    terms = np.empty((2, *poles.shape))
    np.divide(weights, (poles - poles[j, columns]) - half, out=terms[0])
    f_mid = 1.0 / rho + terms[0].sum(axis=0)
    left_half = f_mid >= 0.0
    from_lower = left_half | (j == k - 1)
    origin = np.where(from_lower, j, j + 1)
    base = np.where(from_lower, 0.0, width)
    shift = poles - poles[origin, columns]
    lo = np.where(left_half, 0.0, half) - base
    hi = np.where(left_half, half, width) - base
    # first guess: c + z_p^2 / (dp - tau) + z_q^2 / (dq - tau) = 0
    (tp, tq), (zp, zq), (dp, dq) = (x[model, columns] for x in (terms[0], weights, shift))
    const = f_mid - tp - tq
    tau = _inside_root(const, const * (dp + dq) + zp + zq, const * dp * dq + zp * dq + zq * dp,
                       0.0, lo, hi, 0.5 * (lo + hi))
    # the shift d_i - d_origin of the model pole that is not the origin
    # (the origin's own is 0.0), and the origin's z^2
    other, z_origin = np.where(origin == lower, dq, dp), weights[origin, columns]
    last_f = np.zeros(j.size)
    # whether the model keeps the origin's pole exact instead (dlaed4
    # switches so when f falls slowly)
    fixed = np.zeros(j.size, dtype=bool)
    live = np.ones(j.size, dtype=bool)
    # each root's poles below its model split (lower and before) and above
    below = np.arange(len(poles))[:, None] <= lower
    halves = np.array((below, ~below), dtype=np.float64)
    for _ in range(_SECULAR_MAX_ITER):
        # psi and phi, the sums below and above, and their slopes; delta =
        # d_i - root_j goes where the slopes go
        delta = np.subtract(shift, tau, out=terms[1])
        np.divide(weights, delta, out=terms[0])
        np.divide(terms[0], delta, out=terms[1])
        (psi, phi), (dpsi, dphi) = np.einsum("tij,sij->tsj", terms, halves)
        f = 1.0 / rho + psi + phi
        # the rounding error of f, as bounded in dlaed4
        live &= np.abs(f) > _EPS * (8.0 * (np.abs(psi) + np.abs(phi)) + 2.0 / rho + np.abs(tau) * (dpsi + dphi))
        if not live.any():
            break
        np.copyto(lo, tau, where=f < 0.0)
        np.copyto(hi, tau, where=f > 0.0)
        fixed ^= (f * last_f > 0.0) & (np.abs(f) > 0.1 * np.abs(last_f))
        last_f = f
        slope = dpsi + dphi
        dl, du = dp - tau, dq - tau
        # the model c + s / (dl - eta) + S / (du - eta) = 0, with weights
        # s = dl^2 dpsi, S = du^2 dphi (middle way) or, fixed, the origin
        # pole's own z^2 and the rest of the slope on the other pole
        c = f - dl * dpsi - du * dphi
        if fixed.any():
            do, dx = 0.0 - tau, other - tau
            c = np.where(fixed, f - dx * slope - z_origin * (do - dx) / (do * do), c)
        p = dl * du
        step = _inside_root(c, (dl + du) * f - p * slope, p * f, tau, lo, hi, 0.5 * (lo + hi) - tau)
        tau = np.where(live, tau + step, tau)
    if live.any():
        raise ConvergenceError(
            f"secular equation of a divide-and-conquer merge of order {order[live][0]} "
            f"failed to converge after {_SECULAR_MAX_ITER} iterations"
        )
    return origin, tau


def _deflate(left, right, beta: float):
    """Deflate the merge of the eigensystems of the two halves of a torn
    tridiagonal; returns (parts, table, rho).

    left and right are the halves' eigensystems as 3 x n arrays (values,
    first row and last row of the eigenvector matrix), after the tear took
    |beta| off the last diagonal entry of the first half and the first of
    the second; the whole is Q (D + rho z z^T) Q^T with rho = 2|beta| and z
    the unit vector of half one's last row and sign(beta) times half two's
    first row.  Entries with a negligible rho z_i, and one of each pair of
    near-equal poles after a Givens rotation, deflate (LAPACK's dlaed2):
    parts lists their eigensystems, in the same form.  The rest make the
    4 x k table of the secular set's poles, z and rows, sorted by pole.
    """
    n1 = left.shape[1]
    rho = 2.0 * abs(beta)
    # the rows d, first and last of the merged system, and z
    merged = np.concatenate((left, right), axis=1)
    z = np.concatenate((merged[2, :n1], math.copysign(1.0, beta) * merged[1, n1:])) / math.sqrt(2.0)
    merged[1, n1:] = merged[2, :n1] = 0.0
    perm = np.argsort(merged[0], kind="stable")
    merged, z = merged[:, perm], z[perm]
    d = merged[0]
    # LAPACK dlaed2's 8 eps max(max|d|, max|z|), on T scaled to unit norm;
    # T is unscaled here, so rho, in T's units, stands in for |z| <= 1
    tol = 8.0 * _EPS * max(float(np.max(np.abs(d))), rho)
    live = rho * np.abs(z) > tol
    kept, rotated = [], []
    survivors = zip(d[live].tolist(), z[live].tolist(), *merged[1:, live].tolist())
    prev = next(survivors, None)
    for cur in survivors:
        (pd, pz, pf, pl), (nd, nz, nf, nl) = prev, cur
        r = math.hypot(pz, nz)
        c, s = nz / r, -pz / r
        if abs((nd - pd) * c * s) <= tol:
            # rotate z_p into z_n; the rotated pole p leaves the secular set
            rotated.append((c * c * pd + s * s * nd, c * pf + s * nf, c * pl + s * nl))
            prev = (s * s * pd + c * c * nd, r, c * nf - s * pf, c * nl - s * pl)
        else:
            kept.append(prev)
            prev = cur
    if prev is not None:
        kept.append(prev)
    parts = [merged[:, ~live], np.array(rotated).reshape(-1, 3).T]
    return parts, np.array(kept).reshape(-1, 4).T, rho


def _secular_system(table, origin, tau):
    """The eigensystem, as a 3 x k array, of a merge's secular set: table
    from _deflate, and (origin, tau) its roots from _secular_roots.  The
    Loewner products and the eigenvectors' first and last rows take the
    differences d_i - root_j one block of roots at a time (_blocks), so a
    set of k poles holds a few k x block arrays.  Its sums and products are
    elementwise or einsum (no BLAS call), whatever the BLAS thread count.
    """
    kd, kz, rows = table[0], table[1], table[2:]
    k = kd.size
    blocks = _blocks(k)
    index = np.arange(k)

    def differences(cols):
        # d_i - root_j, as the secular solver takes it
        return (kd[:, None] - kd[origin[cols]]) - tau[cols]

    # Loewner's formula gives the z for which the computed roots are
    # exact, so the eigenvectors zhat_i / (d_i - root_j) come out
    # orthogonal (Gu & Eisenstat 1995).  Each block's ratios follow the
    # product so far in one row, so the product runs over all roots in
    # order, block by block.
    loewner = np.ones(k)
    for cols in blocks:
        delta = differences(cols)
        ratio = np.empty((k, 1 + delta.shape[1]))
        ratio[:, 0] = loewner
        np.divide(delta, np.where(index[:, None] == index[cols], 1.0, kd[:, None] - kd[cols]), out=ratio[:, 1:])
        loewner = np.multiply.reduce(ratio, axis=1)
    zhat = np.copysign(np.sqrt(np.abs(loewner)), kz)
    secular = np.empty((3, k))
    secular[0] = kd[origin] + tau
    for cols in blocks:
        # one block keeps its differences from the Loewner pass
        if len(blocks) > 1:
            delta = differences(cols)
        vecs = zhat[:, None] / delta
        secular[1:, cols] = np.einsum("ri,ij->rj", rows, vecs) / np.sqrt(np.einsum("ij,ij->j", vecs, vecs))
    return secular


def _divide_and_conquer(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The eigensystem of the symmetric tridiagonal (d, e) as a 3 x n
    array, its rows the values, the first row and the last row of the
    eigenvector matrix, in no particular order, by Cuppen's divide and
    conquer over QL leaves of at most _DC_LEAF rows.

    A segment of more than _DC_LEAF rows is torn in half, the first half
    taking n // 2 rows, each tear before those within its halves.  The
    merges then run by height (a leaf's is 0, a merge's one more than its
    taller half's): each merge of a height deflates, one _secular_roots
    call solves all their secular sets, and each merge forms its
    eigensystem, unsorted, since the parent merge and Spectrum sort stably.
    """
    d = d.copy()
    merges = []
    systems = {}

    def tear(start, stop):
        # the segment's height, after its tears and leaves are made
        if stop - start <= _DC_LEAF:
            systems[start] = np.array(_ql_implicit(d[start:stop].tolist(), e[start : stop - 1].tolist()))
            return 0
        mid = (start + stop) // 2
        beta = float(e[mid - 1])
        d[mid - 1] -= abs(beta)
        d[mid] -= abs(beta)
        height = 1 + max(tear(start, mid), tear(mid, stop))
        merges.append((height, start, mid, stop, beta))
        return height

    tear(0, d.size)
    for _, level in itertools.groupby(sorted(merges), key=operator.itemgetter(0)):
        level = [(start, stop - start, *_deflate(systems.pop(start), systems.pop(mid), beta))
                 for _, start, mid, stop, beta in level]
        # the merges that keep a secular set, solved together
        solving = [merge for merge in level if merge[3].size]
        roots = _secular_roots([(table[0], table[1], rho) for *_, table, rho in solving],
                               [order for _, order, *_ in solving])
        for (*_, parts, table, _), (origin, tau) in zip(solving, roots):
            parts.append(_secular_system(table, origin, tau))
        for start, _, parts, _, _ in level:
            systems[start] = np.concatenate(parts, axis=1)
    return systems[0]


def numeric_spectrum(mat: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix, sorted non-decreasing.

    Symmetry is checked to 1e-12 entrywise, over the nonzero list for a
    sparse matrix (an unequal pair has a nonzero side); a 0x0 input yields
    the empty spectrum.  A matrix whose largest entry lies outside [2^-256, 2^256] is
    first scaled by a power of two to bring it into [0.5, 1), so that no
    squared norm of the reduction or squared coupling of QL overflows or
    underflows, and its eigenvalues are scaled back.  The tridiagonal stage
    is root-free QL up to order _DC_CROSSOVER and divide and conquer above
    it.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    if n == 0:
        return Spectrum(())
    nonzeros = _sparse_nonzeros(mat)
    if nonzeros is None:
        # min and max propagate NaN, so they find any non-finite entry with
        # no n x n temporary
        low, high = float(mat.min()), float(mat.max())
        finite = math.isfinite(low) and math.isfinite(high)
        top = max(-low, high)
    else:
        # NaN is nonzero, and an unequal pair has a nonzero side, so the
        # nonzero list finds both defects
        entries = mat.ravel()[nonzeros]
        finite = bool(np.isfinite(entries).all())
        top = float(np.max(np.abs(entries), initial=0.0))
    if not finite:
        raise ValueError("matrix contains non-finite entries")
    if nonzeros is None:
        # each block of rows against its mirror, lower triangle only: no
        # n x n temporary
        asym = max(float(np.max(np.abs(mat[r : r + _TILE, : r + _TILE] - mat[: r + _TILE, r : r + _TILE].T)))
                   for r in range(0, n, _TILE))
    else:
        rows, cols = np.divmod(nonzeros, n)
        asym = float(np.max(np.abs(entries - mat.ravel()[cols * n + rows]), initial=0.0))
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    if n == 1:
        return Spectrum(mat[0])
    # powers of two scale exactly; a zero matrix needs none
    scale = 0
    if top and not 2.0**-256 <= top <= 2.0**256:
        scale = -math.frexp(top)[1]
        mat = np.ldexp(mat, scale)
    d, e = _householder_tridiagonal(mat, nonzeros)
    if n <= _DC_CROSSOVER:
        values = _ql_values(d.tolist(), e.tolist())
    else:
        values = _divide_and_conquer(d, e)[0]
    return Spectrum(np.ldexp(values, -scale))


def nl_spectrum(g: Graph) -> Spectrum:
    """Convenience: numeric spectrum of the normalized Laplacian."""
    return numeric_spectrum(normalized_laplacian(g))


def compare_spectra(a: Spectrum, b: Spectrum, tol: float = _MATCH_TOL) -> SpectrumComparison:
    """Sorted pairwise comparison; reports the worst deviation and its index."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if len(a) != len(b):
        return SpectrumComparison(False, math.inf, -1, f"length mismatch: {len(a)} vs {len(b)}")
    if not len(a):
        return SpectrumComparison(True, 0.0, -1, "both empty")
    # a difference beyond the float range is inf, as in Python arithmetic
    with np.errstate(over="ignore"):
        devs = np.abs(a.values - b.values)
    # the first index of the worst deviation
    worst = int(np.argmax(devs))
    dev = float(devs[worst])
    return SpectrumComparison(dev <= tol, dev, worst, f"max |a[i]-b[i]| = {dev:.3e} at index {worst}")


def summarize(s: Spectrum, tol: float = _MATCH_TOL) -> tuple[tuple[float, int], ...]:
    """(representative value, multiplicity) pairs from left-to-right
    clustering at tol: a cluster ends where the gap to the next value
    exceeds tol; the representative is the cluster mean."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    values = s.values
    if not values.size:
        return ()
    with np.errstate(over="ignore"):
        cuts = np.flatnonzero(values[1:] - values[:-1] > tol) + 1
    bounds = [0, *cuts.tolist(), values.size]
    floats = values.tolist()
    return tuple((math.fsum(floats[i:j]) / (j - i), j - i) for i, j in zip(bounds, bounds[1:]))
