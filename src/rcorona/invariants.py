"""Spanning-tree counts and the degree-Kirchhoff index.

Two independent routes to the spanning-tree count are provided on
purpose: an exact integer one (matrix-tree cofactor via fraction-free
Bareiss elimination) and a spectral one from normalized Laplacian
eigenvalues.  Each serves as the other's cross-check.
"""

import math

import numpy as np

from .errors import HypothesisError
from .graphs import Graph, adjacency_matrix
from .spectra import nl_spectrum

__all__ = [
    "spanning_trees_matrix_tree",
    "spanning_trees_spectral",
    "degree_kirchhoff",
]


def _bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a positive semidefinite integer matrix, such as
    a Laplacian minor, by fraction-free elimination without pivoting.

    Python integers are unbounded, so intermediate growth cannot overflow.
    A zero pivot of a semidefinite matrix has a zero column below it, so
    the determinant is 0 (Bareiss, Math. Comp. 22, 1968).
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    prev = 1
    for k in range(n - 1):
        pivot = m[k][k]
        if pivot == 0:
            return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return m[n - 1][n - 1]


def spanning_trees_matrix_tree(g: Graph) -> int:
    """Exact spanning-tree count: cofactor of the combinatorial Laplacian.

    A disconnected graph yields 0 (the cofactor vanishes).
    """
    if g.is_null:
        raise HypothesisError("spanning trees undefined for the null graph")
    lap = -adjacency_matrix(g)
    np.fill_diagonal(lap, g.degrees)
    # Python ints from here on: the elimination's growth must not overflow
    return _bareiss_determinant(lap[1:, 1:].tolist())


def _spectral_invariants(g: Graph) -> tuple[float, float]:
    """The log of the spectral spanning-tree count and the degree-Kirchhoff
    index of g, from one run of the numeric oracle, after the checks of
    ``spanning_trees_spectral``; they imply those of ``degree_kirchhoff``
    and rule out its one-vertex case.  The count itself is left in log
    space: it passes the largest float long before the index does."""
    if g.is_null:
        raise HypothesisError("spanning trees undefined for the null graph")
    if not g.connected:
        raise HypothesisError("spectral spanning-tree count requires a connected graph")
    deg = g.degrees.tolist()
    if any(d == 0 for d in deg):
        raise HypothesisError("spectral spanning-tree count requires no isolated vertices")
    values = nl_spectrum(g).values[1:].tolist()
    # accumulate in log space; corona degree products overflow quickly
    log_total = math.fsum(math.log(d) for d in deg) - math.log(sum(deg))
    log_total += math.fsum(math.log(v) for v in values)
    return log_total, 2 * g.edge_count * math.fsum(1.0 / v for v in values)


def spanning_trees_spectral(g: Graph) -> float:
    """Spanning-tree count from normalized Laplacian eigenvalues:
    (prod of degrees / sum of degrees) * prod of nonzero eigenvalues."""
    return math.exp(_spectral_invariants(g)[0])


def degree_kirchhoff(g: Graph) -> float:
    """Degree-Kirchhoff index 2m * sum of reciprocals of the nonzero
    normalized Laplacian eigenvalues."""
    if g.is_null:
        raise HypothesisError("degree-Kirchhoff index undefined for the null graph")
    if not g.connected:
        raise HypothesisError("degree-Kirchhoff index requires a connected graph")
    if g.vertex_count == 1:
        return 0.0
    return _spectral_invariants(g)[1]
