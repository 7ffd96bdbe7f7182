"""Normalized Laplacian matrices, a dense symmetric eigensolver, and
tolerance-aware spectrum comparison.

The eigensolver is the package's independent numeric oracle: a blocked
Householder reduction to tridiagonal form (Golub & Van Loan, *Matrix
Computations*, §8.3), then implicit-shift QL on the tridiagonal.  It uses
numpy's matrix products but never ``numpy.linalg``, is deterministic for
fixed input on a given numpy/BLAS build, and fails loudly on
non-convergence.  It serves the numeric route (the corona's spectrum in
``spectrum --method numeric|both``), the cospectral certificates and the
spectral invariants; the closed form solves its input spectra with LAPACK
instead, so a cross-check never runs both sides through this solver.
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from .errors import ConvergenceError, HypothesisError
from .graphs import Graph, adjacency_matrix, degree_profile

__all__ = [
    "Spectrum",
    "SpectrumSummary",
    "SpectrumComparison",
    "normalized_laplacian",
    "normalized_laplacian_regular",
    "numeric_spectrum",
    "nl_spectrum",
    "compare_spectra",
    "summarize",
]

_SYMMETRY_TOL = 1e-12
_QL_MAX_ITER = 100
# Columns per panel of the blocked Householder reduction (16 and 64 run
# equally fast), and rows per slice of its trailing update.
_PANEL = 32
_UPDATE_ROWS = 4
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalue multiset with a provenance tag."""

    values: tuple[float, ...]
    source_tag: str = "numeric"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(sorted(float(v) for v in self.values)))

    def __len__(self) -> int:
        return len(self.values)

    def to_json(self) -> str:
        return json.dumps(list(self.values))

    def to_csv(self) -> str:
        return "\n".join(f"{v:.17g}" for v in self.values) + ("\n" if self.values else "")


@dataclass(frozen=True)
class SpectrumSummary:
    """(representative value, multiplicity) pairs from tolerance clustering."""

    groups: tuple[tuple[float, int], ...]

    @property
    def total(self) -> int:
        return sum(k for _, k in self.groups)


@dataclass(frozen=True)
class SpectrumComparison:
    matched: bool
    max_deviation: float
    worst_index: int
    reason: str

    def __bool__(self) -> bool:
        return self.matched


def normalized_laplacian(g: Graph) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2}; requires every vertex to have degree >= 1."""
    # the dense pre-flight comes first: an order too large for memory is
    # refused before the O(n) degree list is built
    a = adjacency_matrix(g).astype(np.float64)
    deg = degree_profile(g).degrees
    if any(d == 0 for d in deg):
        bad = deg.index(0)
        raise HypothesisError(
            f"normalized Laplacian undefined for degree-0 vertex (vertex {bad})"
        )
    d = np.array(deg, dtype=np.float64)
    # dividing by sqrt(d_i * d_j) keeps the regular case bit-identical to
    # the I - A/r shortcut (sqrt of a perfect square is exact)
    return np.eye(g.vertex_count) - a / np.sqrt(np.outer(d, d))


def normalized_laplacian_regular(g: Graph) -> np.ndarray:
    """The regular-graph shortcut I - A/r; kept as a distinct code path so
    its entrywise agreement with the general formula can be tested."""
    prof = degree_profile(g)
    if prof.regular_degree is None:
        raise HypothesisError("graph is not regular")
    if prof.regular_degree < 1:
        raise HypothesisError("regular degree must be >= 1")
    n = g.vertex_count
    return np.eye(n) - adjacency_matrix(g).astype(np.float64) / float(prof.regular_degree)


def _householder_tridiagonal(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix of order n >= 2 to tridiagonal form;
    returns (diag, subdiag).

    Blocked reduction (Golub & Van Loan, *Matrix Computations*, §8.3;
    LAPACK's dsytrd/dlatrd).  Column j is annihilated by the reflector
    I - 2vv^T with v a unit vector; its two-sided application is the
    rank-2 update A -= v(2w)^T + (2w)v^T with w = Av - (v^T A v)v.  Within a
    panel of _PANEL columns those updates are only recorded, as columns of
    V (vs) and W (ws, holding 2w): each column of A, and each product Av, is
    read from the un-updated matrix and corrected by the panel's earlier
    reflectors.  After the panel the trailing matrix takes all of them in
    one update A -= [V W][W V]^T.
    """
    a = np.array(mat, dtype=np.float64)
    n = a.shape[0]
    d = np.zeros(n)
    e = np.zeros(n - 1)
    for p in range(0, n - 2, _PANEL):
        q = min(p + _PANEL, n - 2)
        # rows of v and w are numbered from p; row r is matrix row p + r
        vs = np.zeros((n - p, q - p))
        ws = np.zeros((n - p, q - p))
        for i, j in enumerate(range(p, q)):
            below_v, below_w = vs[i + 1 :, :i], ws[i + 1 :, :i]
            vj, wj = vs[i, :i], ws[i, :i]
            d[j] = a[j, j] - 2.0 * float(vj @ wj)
            x = a[j + 1 :, j] - below_v @ wj - below_w @ vj
            norm_x = math.sqrt(float(x @ x))
            if norm_x == 0.0:
                continue
            alpha = -math.copysign(norm_x, x[0]) if x[0] != 0.0 else -norm_x
            e[j] = alpha
            v = x
            v[0] -= alpha
            vnorm = math.sqrt(float(v @ v))
            if vnorm == 0.0:
                continue
            v /= vnorm
            u = a[j + 1 :, j + 1 :] @ v - below_v @ (below_w.T @ v) - below_w @ (below_v.T @ v)
            gamma = float(v @ u)
            vs[i + 1 :, i] = v
            ws[i + 1 :, i] = 2.0 * (u - gamma * v)
        left = np.concatenate((vs[q - p :], ws[q - p :]), axis=1)
        right = np.concatenate((ws[q - p :], vs[q - p :]), axis=1).T
        trailing = a[q:, q:]
        # A whole product's last bits depend on the BLAS thread count.  Each
        # slice of _UPDATE_ROWS rows stays under OpenBLAS's multithreading
        # threshold (m*n*k <= 2**18) for trailing sizes up to 1024, so there
        # the update is the same whatever the thread count.
        for r in range(0, n - q, _UPDATE_ROWS):
            trailing[r : r + _UPDATE_ROWS] -= left[r : r + _UPDATE_ROWS] @ right
    d[n - 2 :] = a[n - 2, n - 2], a[n - 1, n - 1]
    e[n - 2] = a[n - 1, n - 2]
    return d, e


def _ql_implicit(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of a symmetric tridiagonal matrix by implicit-shift QL.

    d: diagonal (length n), e: subdiagonal (length n-1).  Raises
    ConvergenceError if any eigenvalue needs more than the iteration cap.
    """
    n = len(d)
    d = list(d)
    e = list(e) + [0.0]
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
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def numeric_spectrum(mat: np.ndarray, source_tag: str = "numeric") -> Spectrum:
    """All eigenvalues of a symmetric matrix, sorted non-decreasing.

    Symmetry is checked to 1e-12 entrywise; a 0x0 input yields the empty
    spectrum.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    if n == 0:
        return Spectrum((), source_tag)
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains non-finite entries")
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    if n == 1:
        return Spectrum((float(mat[0, 0]),), source_tag)
    d, e = _householder_tridiagonal(mat)
    values = _ql_implicit(d.tolist(), e.tolist())
    return Spectrum(tuple(sorted(values)), source_tag)


def nl_spectrum(g: Graph, source_tag: str = "numeric") -> Spectrum:
    """Convenience: numeric spectrum of the normalized Laplacian."""
    return numeric_spectrum(normalized_laplacian(g), source_tag)


def compare_spectra(a: Spectrum, b: Spectrum, tol: float = 1e-8) -> SpectrumComparison:
    """Sorted pairwise comparison; reports the worst deviation and its index."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if len(a) != len(b):
        return SpectrumComparison(
            False, math.inf, -1, f"length mismatch: {len(a)} vs {len(b)}"
        )
    if not a.values:
        return SpectrumComparison(True, 0.0, -1, "both empty")
    devs = [abs(x - y) for x, y in zip(a.values, b.values)]
    worst = max(range(len(devs)), key=devs.__getitem__)
    matched = devs[worst] <= tol
    return SpectrumComparison(
        matched,
        devs[worst],
        worst,
        f"max |a[i]-b[i]| = {devs[worst]:.3e} at index {worst}",
    )


def summarize(s: Spectrum, tol: float = 1e-8) -> SpectrumSummary:
    """Greedy left-to-right clustering; representative = cluster mean."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    groups: list[tuple[float, int]] = []
    cluster: list[float] = []
    for v in s.values:
        if cluster and v - cluster[-1] > tol:
            groups.append((math.fsum(cluster) / len(cluster), len(cluster)))
            cluster = []
        cluster.append(v)
    if cluster:
        groups.append((math.fsum(cluster) / len(cluster), len(cluster)))
    return SpectrumSummary(tuple(groups))
