"""Normalized Laplacian matrices, the spectrum type and its printing,
and tolerance-aware spectrum comparison.

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

from .errors import HypothesisError
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




def numeric_spectrum(mat: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix, sorted non-decreasing, from
    ``oracle.eigenvalues``, which is imported on the first call."""
    from . import oracle
    return Spectrum(oracle.eigenvalues(mat))


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
