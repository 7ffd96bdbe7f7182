"""Normalized Laplacian matrices, a dense symmetric eigensolver, and
tolerance-aware spectrum comparison.

The eigensolver is the package's independent numeric oracle: a blocked
Householder reduction to tridiagonal form (Golub & Van Loan, *Matrix
Computations*, §8.3), then divide and conquer over QL leaves on the
tridiagonal.  Orders up to _DC_CROSSOVER go to implicit-shift QL directly;
larger ones are torn in half recursively (Cuppen 1981) down to QL leaves,
and each merge deflates and solves a secular equation for the rest (Gu &
Eisenstat 1995; LAPACK's dstedc).  The multiple eigenvalues of a corona
deflate, so they cost no secular solve.  It uses numpy's matrix products
but never ``numpy.linalg``, and fails loudly on non-convergence.  It is
deterministic for fixed input on a given numpy/BLAS build, whatever the
BLAS thread count: the reduction's trailing update runs tile by tile over
the lower triangle, its matrix-vector and dot products go in blocks, and
so every BLAS call stays within OpenBLAS's threading thresholds
(_BLAS_CALL_BOUND multiply-adds, a sum over _INNER_ENTRIES entries); the
merges make no BLAS call.  The normalized Laplacian is written straight
from the edge list.  The oracle serves the numeric route (the corona's
spectrum in ``spectrum --method numeric|both``), the cospectral
certificates and the spectral invariants; the closed form solves its
input spectra with LAPACK instead, so a cross-check never runs both sides
through this solver.
"""

from dataclasses import dataclass
import math

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
_SYMMETRY_TOL = 1e-12
_QL_MAX_ITER = 100
# per secular root, as LAPACK's dlaed4 (MAXIT)
_SECULAR_MAX_ITER = 30
# Orders above _DC_CROSSOVER take divide and conquer: in a sweep of orders
# 96 to 288 it was slower than QL up to 144 and faster from 160, on random,
# circulant and relabelled circulant matrices.  Leaves have at most _DC_LEAF
# rows (48 and 64 ran equally fast; 32 was slower).
_DC_CROSSOVER = 160
_DC_LEAF = 48
# Columns per panel of the blocked Householder reduction (16 and 64 run
# equally fast).
_PANEL = 32
# A BLAS call's last bits depend on the thread count once OpenBLAS splits
# it over threads.  It does not split a product of m*n*k <= 2**18
# multiply-adds (its threshold for matrix products), nor the sum of a
# matrix-vector or dot product over at most 10 000 entries (found by
# comparing 1 and 2 threads over every product shape of the reduction up to
# a trailing size of 16 400), so the reduction keeps every call within both.
_BLAS_CALL_BOUND = 2**18
_INNER_ENTRIES = 10_000
# Rows and columns per tile of the trailing update: a tile's product is
# _TILE * _TILE * 2 _PANEL <= _BLAS_CALL_BOUND (56 ran faster than 32 and 48).
_TILE = 56
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
        values = self.values.tolist()
        return "%.17g\n" * len(values) % tuple(values)


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


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The matrix-vector product x @ y, in blocks of rows of x and chunks
    of at most _INNER_ENTRIES of its columns, so that each BLAS call stays
    within both bounds; the chunks' partial products are added in order."""
    rows = _BLAS_CALL_BOUND // max(1, min(x.shape[1], _INNER_ENTRIES))
    if x.shape[0] <= rows and x.shape[1] <= _INNER_ENTRIES:
        return x @ y
    out = np.zeros(x.shape[0])
    for c in range(0, x.shape[1], _INNER_ENTRIES):
        for r in range(0, x.shape[0], rows):
            out[r : r + rows] += x[r : r + rows, c : c + _INNER_ENTRIES] @ y[c : c + _INNER_ENTRIES]
    return out


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """The dot product x . y, summed over chunks of _INNER_ENTRIES entries."""
    if x.size <= _INNER_ENTRIES:
        return float(np.dot(x, y))
    return sum(float(np.dot(x[c : c + _INNER_ENTRIES], y[c : c + _INNER_ENTRIES]))
               for c in range(0, x.size, _INNER_ENTRIES))


def _householder_tridiagonal(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix of order n >= 2 to tridiagonal form;
    returns (diag, subdiag).

    Blocked reduction (Golub & Van Loan, *Matrix Computations*, §8.3;
    LAPACK's dsytrd/dlatrd).  Column j is annihilated by the reflector
    I - 2vv^T with v a unit vector; its two-sided application is the
    rank-2 update A -= v(2w)^T + (2w)v^T with w = Av - (v^T A v)v.  Within a
    panel of _PANEL columns those updates are only recorded: rows 2k and
    2k + 1 of vw hold v and 2w of the panel's k-th reflector, and wv holds
    the same rows with each pair swapped.  Each column of A, and each
    product Av, is read from the un-updated matrix and corrected by the
    panel's earlier reflectors with one product each.  After the panel the
    trailing matrix takes all of them in one update A -= vw^T wv, tile by
    tile over its lower triangle (diagonal tiles whole); each finished
    block of rows is then mirrored to the upper triangle.

    Every BLAS call stays within _BLAS_CALL_BOUND multiply-adds and sums
    over at most _INNER_ENTRIES entries, so the result is the same whatever
    the BLAS thread count.
    """
    a = np.array(mat, dtype=np.float64)
    n = a.shape[0]
    d = np.zeros(n)
    e = np.zeros(n - 1)
    for p in range(0, n - 2, _PANEL):
        q = min(p + _PANEL, n - 2)
        # column c of vw and wv is matrix row p + c
        vw = np.zeros((2 * (q - p), n - p))
        wv = np.zeros((2 * (q - p), n - p))
        for i, j in enumerate(range(p, q)):
            k = 2 * i
            d[j] = a[j, j] - float(vw[:k, i] @ wv[:k, i])
            # row j of the symmetric A is its column j
            x = a[j, j + 1 :] - _product(vw[:k, i + 1 :].T, wv[:k, i])
            norm_x, x0 = math.sqrt(_dot(x, x)), float(x[0])
            # v = x - alpha e_1 with alpha = -sign(x_0) ||x||, so
            # ||v||^2 = 2 ||x|| (||x|| + |x_0|)
            vnorm = math.sqrt(2.0 * norm_x * (norm_x + abs(x0)))
            if vnorm == 0.0:
                continue
            alpha = -math.copysign(norm_x, x0) if x0 != 0.0 else -norm_x
            e[j] = alpha
            v = x
            v[0] -= alpha
            v /= vnorm
            u = _product(a[j + 1 :, j + 1 :], v)
            u -= _product(vw[:k, i + 1 :].T, _product(wv[:k, i + 1 :], v))
            u -= _dot(v, u) * v
            u *= 2.0
            vw[k, i + 1 :] = wv[k + 1, i + 1 :] = v
            vw[k + 1, i + 1 :] = wv[k, i + 1 :] = u
        left, right = vw[:, q - p :].T, wv[:, q - p :]
        trailing = a[q:, q:]
        for r in range(0, n - q, _TILE):
            rows = slice(r, r + _TILE)
            for c in range(0, r + 1, _TILE):
                trailing[rows, c : c + _TILE] -= left[rows] @ right[:, c : c + _TILE]
            trailing[:r, rows] = trailing[rows, :r].T
    d[n - 2 :] = a[n - 2, n - 2], a[n - 1, n - 1]
    e[n - 2] = a[n - 1, n - 2]
    return d, e


def _ql_implicit(d: list[float], e: list[float], rows=None) -> list[float]:
    """Eigenvalues of a symmetric tridiagonal matrix by implicit-shift QL.

    d: diagonal (length n), e: subdiagonal (length n-1).  rows, if given,
    is the pair (first, last) of rows of the identity, updated in place to
    the first and last rows of the eigenvector matrix (columns in the order
    of the returned eigenvalues).  Raises ConvergenceError if any
    eigenvalue needs more than the iteration cap.
    """
    n = len(d)
    d = list(d)
    e = list(e) + [0.0]
    first, last = rows or (None, None)
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
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
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if rows:
                    f = first[i + 1]
                    first[i + 1] = s * first[i] + c * f
                    first[i] = c * first[i] - s * f
                    f = last[i + 1]
                    last[i + 1] = s * last[i] + c * f
                    last[i] = c * last[i] - s * f
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def _inside_root(a, b, c, t, lo, hi, fallback):
    """The offset from t to the root of a x^2 - b x + c = 0 (in x, an offset
    from t) that lands in the bracket [lo, hi] but not on the pole at 0,
    else fallback.  A bracket end other than 0 is no pole and may hold the
    root itself (say a midpoint where f rounds to 0)."""
    disc = b * b - 4.0 * a * c
    q = 0.5 * (b + np.copysign(np.sqrt(np.abs(disc)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        for x in (q / a, c / q):
            y = t + x
            fallback = np.where((disc >= 0.0) & (y >= lo) & (y <= hi) & (y != 0.0), x, fallback)
    return fallback


def _secular_roots(d: np.ndarray, z: np.ndarray, rho: float, order: int):
    """Roots of 1/rho + sum_i z_i^2 / (d_i - x) for strictly increasing
    poles d, nonzero z and rho > 0; returns (roots, delta) with
    delta[i, j] = d_i - root_j.

    Root j lies between d_j and d_(j+1) (the last one between d_k and
    d_k + rho |z|^2).  It is found as an offset tau from the nearer pole,
    so a root close to a pole keeps its relative accuracy (LAPACK's
    dlaed4).  The first guess keeps the interval's two poles exact and the
    rest as a constant, evaluated at the interval's midpoint.  Each step
    then solves the middle-way model of R.-C. Li (LAWN 89), which matches
    the value and slope of the poles below and above the root separately,
    or, where f falls slowly, a model that keeps the origin's pole exact;
    a model root outside the bracket falls back to bisection.  All roots
    iterate together, in k x k arrays.
    """
    k = d.size
    z2 = z * z
    if k == 1:
        return d + rho * z2, -rho * z2[:, None]
    j = np.arange(k)
    # the root's model poles, lower and lower + 1 (for the last root the
    # two largest poles, as in dlaed4)
    lower = np.minimum(j, k - 2)
    upper = lower + 1
    below = (j[:, None] <= lower).astype(np.float64)
    above = 1.0 - below
    width = np.append(d[1:] - d[:-1], rho * float(z2.sum()))
    half = 0.5 * width
    gaps = d[:, None] - d[None, :]
    terms = z2[:, None] / (gaps - half)
    f_mid = 1.0 / rho + terms.sum(axis=0)
    left_half = f_mid >= 0.0
    from_lower = left_half | (j == k - 1)
    origin = np.where(from_lower, j, j + 1)
    base = np.where(from_lower, 0.0, width)
    shift = gaps[:, origin]
    lo = np.where(left_half, 0.0, half) - base
    hi = np.where(left_half, half, width) - base
    # first guess: c + z_p^2 / (dp - tau) + z_q^2 / (dq - tau) = 0
    const = f_mid - terms[lower, j] - terms[upper, j]
    zp, zq = z2[lower], z2[upper]
    dp, dq = shift[lower, j], shift[upper, j]
    tau = _inside_root(const, const * (dp + dq) + zp + zq, const * dp * dq + zp * dq + zq * dp,
                       0.0, lo, hi, 0.5 * (lo + hi))
    # per root: the last value of f, and whether the model keeps the
    # origin's pole exact instead (dlaed4 switches so when f falls slowly)
    last_f = np.zeros(k)
    fixed = np.zeros(k, dtype=bool)
    active = j
    for _ in range(_SECULAR_MAX_ITER):
        t = tau[active]
        delta = shift[:, active] - t
        terms = z2[:, None] / delta
        slopes = terms / delta
        psi = np.einsum("ij,ij->j", terms, below[:, active])
        phi = np.einsum("ij,ij->j", terms, above[:, active])
        dpsi = np.einsum("ij,ij->j", slopes, below[:, active])
        dphi = np.einsum("ij,ij->j", slopes, above[:, active])
        f = 1.0 / rho + psi + phi
        # the rounding error of f, as bounded in dlaed4
        moving = np.abs(f) > _EPS * (8.0 * (np.abs(psi) + np.abs(phi)) + 2.0 / rho
                                     + np.abs(t) * (dpsi + dphi))
        if not moving.all():
            active, t, f, dpsi, dphi = (x[moving] for x in (active, t, f, dpsi, dphi))
            delta = delta[:, moving]
            if not active.size:
                break
        lo[active] = np.where(f < 0.0, t, lo[active])
        hi[active] = np.where(f > 0.0, t, hi[active])
        prev = last_f[active]
        fixed[active] ^= (f * prev > 0.0) & (np.abs(f) > 0.1 * np.abs(prev))
        last_f[active] = f
        columns = np.arange(active.size)
        dl, du = delta[lower[active], columns], delta[upper[active], columns]
        # the model c + s / (dl - eta) + S / (du - eta) = 0, with weights
        # s = dl^2 dpsi, S = du^2 dphi (middle way) or, fixed, the origin
        # pole's own z^2 and the rest of the slope on the other pole
        c = f - dl * dpsi - du * dphi
        use = fixed[active]
        if use.any():
            at_lower = origin[active] == lower[active]
            do, dx = np.where(at_lower, dl, du), np.where(at_lower, du, dl)
            c = np.where(use, f - dx * (dpsi + dphi) - z2[origin[active]] * (do - dx) / (do * do), c)
        l, h = lo[active], hi[active]
        tau[active] = t + _inside_root(c, (dl + du) * f - dl * du * (dpsi + dphi), dl * du * f,
                                       t, l, h, 0.5 * (l + h) - t)
    if active.size:
        raise ConvergenceError(
            f"secular equation of a divide-and-conquer merge of order {order} "
            f"failed to converge after {_SECULAR_MAX_ITER} iterations"
        )
    return d[origin] + tau, shift - tau


def _cuppen_merge(left, right, beta: float):
    """Merge the eigensystems of the two halves of a torn tridiagonal.

    left and right are (values, first row, last row) of the halves'
    eigenvector matrices, after the tear took |beta| off the last diagonal
    entry of the first half and the first of the second; the whole is
    Q (D + rho z z^T) Q^T with rho = 2|beta| and z the unit vector of half
    one's last row and sign(beta) times half two's first row.  Entries
    with a negligible rho z_i, and one of each pair of near-equal poles
    after a Givens rotation, deflate (LAPACK's dlaed2); the rest solve the
    secular equation.  Returns the merged (values, first row, last row).
    Its sums and products are elementwise or einsum (no BLAS call), so they
    do not depend on the BLAS thread count.
    """
    (d1, f1, l1), (d2, f2, l2) = left, right
    n1, n2 = d1.size, d2.size
    rho = 2.0 * abs(beta)
    d = np.concatenate((d1, d2))
    z = np.concatenate((l1, math.copysign(1.0, beta) * f2)) / math.sqrt(2.0)
    first = np.concatenate((f1, np.zeros(n2)))
    last = np.concatenate((np.zeros(n1), l2))
    perm = np.argsort(d, kind="stable")
    d, z, first, last = d[perm], z[perm], first[perm], last[perm]
    tol = 8.0 * _EPS * max(float(np.max(np.abs(d))), rho)
    live = rho * np.abs(z) > tol
    kept, rotated = [], []
    survivors = zip(d[live].tolist(), z[live].tolist(), first[live].tolist(), last[live].tolist())
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
    parts = [(d[~live], first[~live], last[~live]), np.array(rotated).reshape(-1, 3).T]
    if kept:
        kd, kz, kf, kl = np.array(kept).T
        roots, delta = _secular_roots(kd, kz, rho, n1 + n2)
        # Loewner's formula gives the z for which the computed roots are
        # exact, so the eigenvectors zhat_i / (d_i - root_j) come out
        # orthogonal (Gu & Eisenstat 1995)
        ratio = delta / np.where(np.eye(kd.size, dtype=bool), 1.0, kd[:, None] - kd[None, :])
        zhat = np.copysign(np.sqrt(np.abs(np.prod(ratio, axis=1))), kz)
        vecs = zhat[:, None] / delta
        norms = np.sqrt(np.einsum("ij,ij->j", vecs, vecs))
        parts.append((roots, np.einsum("i,ij->j", kf, vecs) / norms,
                      np.einsum("i,ij->j", kl, vecs) / norms))
    d, first, last = (np.concatenate(column) for column in zip(*parts))
    perm = np.argsort(d, kind="stable")
    return d[perm], first[perm], last[perm]


def _divide_and_conquer(d: np.ndarray, e: np.ndarray):
    """(values, first row, last row) of the eigensystem of the symmetric
    tridiagonal (d, e), by Cuppen's divide and conquer over QL leaves of at
    most _DC_LEAF rows."""
    n = d.size
    if n <= _DC_LEAF:
        rows = ([1.0] + [0.0] * (n - 1), [0.0] * (n - 1) + [1.0])
        values = _ql_implicit(d.tolist(), e.tolist(), rows)
        return np.array(values), np.array(rows[0]), np.array(rows[1])
    h = n // 2
    beta = float(e[h - 1])
    d1, d2 = d[:h].copy(), d[h:].copy()
    d1[-1] -= abs(beta)
    d2[0] -= abs(beta)
    return _cuppen_merge(_divide_and_conquer(d1, e[: h - 1]), _divide_and_conquer(d2, e[h:]), beta)


def numeric_spectrum(mat: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix, sorted non-decreasing.

    Symmetry is checked to 1e-12 entrywise; a 0x0 input yields the empty
    spectrum.  The tridiagonal stage is QL up to order _DC_CROSSOVER and
    divide and conquer above it.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    if n == 0:
        return Spectrum(())
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains non-finite entries")
    # each block of rows against its mirror, lower triangle only: no n x n
    # temporary
    asym = max(float(np.max(np.abs(mat[r : r + _TILE, : r + _TILE] - mat[: r + _TILE, r : r + _TILE].T)))
               for r in range(0, n, _TILE))
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    if n == 1:
        return Spectrum(mat[0])
    d, e = _householder_tridiagonal(mat)
    if n <= _DC_CROSSOVER:
        return Spectrum(_ql_implicit(d.tolist(), e.tolist()))
    return Spectrum(_divide_and_conquer(d, e)[0])


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
