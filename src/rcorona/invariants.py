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
    """Exact determinant of an integer matrix by fraction-free elimination.

    Python integers are unbounded, so intermediate growth cannot overflow.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


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


def spanning_trees_spectral(g: Graph) -> float:
    """Spanning-tree count from normalized Laplacian eigenvalues:
    (prod of degrees / sum of degrees) * prod of nonzero eigenvalues."""
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
    return math.exp(log_total)


def degree_kirchhoff(g: Graph) -> float:
    """Degree-Kirchhoff index 2m * sum of reciprocals of the nonzero
    normalized Laplacian eigenvalues."""
    if g.is_null:
        raise HypothesisError("degree-Kirchhoff index undefined for the null graph")
    if not g.connected:
        raise HypothesisError("degree-Kirchhoff index requires a connected graph")
    if g.vertex_count == 1:
        return 0.0
    values = nl_spectrum(g).values[1:].tolist()
    return 2 * g.edge_count * math.fsum(1.0 / v for v in values)
