"""Spanning-tree counts and degree-Kirchhoff index, each against an
independent oracle."""

import math
import random

import numpy as np
import pytest
import sympy

from rcorona import (
    HypothesisError,
    adjacency_matrix,
    build_graph,
    degree_kirchhoff,
    double_corona,
    generate,
    spanning_trees_matrix_tree,
    spanning_trees_spectral,
)
from rcorona.invariants import _bareiss_determinant


def _resistance_kirchhoff_oracle(g):
    """Sum of d_u d_v R_uv with resistances from grounded-Laplacian solves;
    no normalized Laplacian eigenvalues involved."""
    n = g.vertex_count
    deg = g.degrees
    a = adjacency_matrix(g).astype(float)
    lap = np.diag(deg).astype(float) - a
    inv = np.linalg.solve(lap[1:, 1:], np.eye(n - 1))

    def resistance(u, v):
        if u == 0:
            return inv[v - 1, v - 1]
        return inv[u - 1, u - 1] + inv[v - 1, v - 1] - 2 * inv[u - 1, v - 1]

    return math.fsum(
        deg[u] * deg[v] * resistance(u, v) for u in range(n) for v in range(u + 1, n)
    )


def _relabel(g, seed):
    rng = random.Random(seed)
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.ends.tolist()])


class TestMatrixTree:
    def test_k3(self):
        assert spanning_trees_matrix_tree(generate("complete", 3)) == 3

    def test_cycle_has_n_trees(self):
        assert spanning_trees_matrix_tree(generate("cycle", 4)) == 4
        assert spanning_trees_matrix_tree(generate("cycle", 7)) == 7

    def test_petersen(self):
        assert spanning_trees_matrix_tree(generate("petersen")) == 2000

    def test_cayley_formula(self):
        # K_n has n^(n-2) spanning trees
        for n in (2, 3, 4, 5, 6):
            assert spanning_trees_matrix_tree(generate("complete", n)) == n ** (n - 2)

    def test_single_vertex(self):
        assert spanning_trees_matrix_tree(build_graph(1, [])) == 1

    def test_disconnected_returns_zero(self):
        assert spanning_trees_matrix_tree(build_graph(4, [(0, 1), (2, 3)])) == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_disconnected_in_shuffled_order_returns_zero(self, seed):
        # two random components, relabelled: the elimination meets a zero
        # pivot over a zero column, as a semidefinite Laplacian minor's
        # zero pivots always are, and stops
        rng = random.Random(seed)
        sizes = rng.randint(1, 5), rng.randint(1, 5)
        edges, start = [], 0
        for k in sizes:
            edges += [(start + u, start + v) for u in range(k) for v in range(u + 1, k)
                      if rng.random() < 0.6]
            start += k
        g = _relabel(build_graph(start, edges), seed)
        assert spanning_trees_matrix_tree(g) == 0

    def test_null_rejected(self):
        with pytest.raises(HypothesisError):
            spanning_trees_matrix_tree(generate("null"))


class TestBareissDeterminant:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_sympy_with_zero_leading_entries(self, seed):
        # the matrices its one caller passes: Laplacian minors, here of
        # sparse random graphs, connected and not; a singular minor meets a
        # zero leading entry of its trailing block, with a zero column
        # below it, and the elimination stops there without pivoting
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        p = rng.uniform(0.2, 0.7)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        lap = -adjacency_matrix(g)
        np.fill_diagonal(lap, g.degrees)
        rows = lap[1:, 1:].tolist()
        assert _bareiss_determinant(rows) == sympy.Matrix(rows).det()


class TestSpectralTreeCount:
    def test_k3(self):
        assert spanning_trees_spectral(generate("complete", 3)) == pytest.approx(3.0, rel=1e-6)

    def test_c4(self):
        assert spanning_trees_spectral(generate("cycle", 4)) == pytest.approx(4.0, rel=1e-6)

    def test_matches_matrix_tree_on_catalog(self, catalog):
        for name, g in catalog.items():
            exact = spanning_trees_matrix_tree(g)
            approx = spanning_trees_spectral(g)
            assert approx == pytest.approx(exact, rel=1e-6), name

    def test_matches_matrix_tree_on_golden_corona(self):
        p2 = generate("path", 2)
        corona, _ = double_corona(generate("complete", 3), p2, p2)
        exact = spanning_trees_matrix_tree(corona)
        assert spanning_trees_spectral(corona) == pytest.approx(exact, rel=1e-6)
        assert exact > 0

    def test_matches_matrix_tree_on_large_corona(self):
        corona, _ = double_corona(generate("petersen"), generate("complete", 3), generate("cycle", 4))
        exact = spanning_trees_matrix_tree(corona)
        assert spanning_trees_spectral(corona) == pytest.approx(exact, rel=1e-6)

    def test_disconnected_rejected(self):
        with pytest.raises(HypothesisError):
            spanning_trees_spectral(build_graph(4, [(0, 1), (2, 3)]))

    def test_k1_rejected(self):
        with pytest.raises(HypothesisError, match="no isolated vertices"):
            spanning_trees_spectral(generate("complete", 1))

    def test_null_rejected(self):
        with pytest.raises(HypothesisError, match="null graph"):
            spanning_trees_spectral(generate("null"))


class TestDegreeKirchhoff:
    def test_k3_value_and_oracle(self):
        g = generate("complete", 3)
        assert degree_kirchhoff(g) == pytest.approx(8.0, rel=1e-10)
        assert degree_kirchhoff(g) == pytest.approx(_resistance_kirchhoff_oracle(g), rel=1e-10)

    def test_p2(self):
        # single nonzero eigenvalue 2, m = 1: index is 2*1*(1/2) = 1
        g = generate("path", 2)
        assert degree_kirchhoff(g) == pytest.approx(1.0, rel=1e-12)
        assert _resistance_kirchhoff_oracle(g) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["K3", "P2", "C4", "C5", "petersen", "K33", "Q3", "P4"])
    def test_against_resistance_oracle(self, catalog, name):
        g = catalog[name]
        assert degree_kirchhoff(g) == pytest.approx(_resistance_kirchhoff_oracle(g), rel=1e-7)

    def test_tree_count_beyond_float_range(self):
        # K_200 has 200**198 ~ 1e455 spanning trees, more than any float holds;
        # its index is (n - 1)**3, from n - 1 eigenvalues n / (n - 1)
        g = generate("complete", 200)
        with pytest.raises(OverflowError):
            spanning_trees_spectral(g)
        assert degree_kirchhoff(g) == pytest.approx(199**3, rel=1e-10)
        assert degree_kirchhoff(g) == pytest.approx(_resistance_kirchhoff_oracle(g), rel=1e-9)

    def test_disconnected_rejected(self):
        with pytest.raises(HypothesisError):
            degree_kirchhoff(build_graph(4, [(0, 1), (2, 3)]))

    def test_k1_is_zero(self):
        assert degree_kirchhoff(generate("complete", 1)) == 0.0

    def test_null_rejected(self):
        with pytest.raises(HypothesisError, match="null graph"):
            degree_kirchhoff(generate("null"))


class TestLabelInvariance:
    @pytest.mark.parametrize("name", ["C5", "petersen", "K33"])
    def test_relabeling_changes_nothing(self, catalog, name):
        g = catalog[name]
        h = _relabel(g, seed=17)
        assert spanning_trees_matrix_tree(g) == spanning_trees_matrix_tree(h)
        assert spanning_trees_spectral(g) == pytest.approx(spanning_trees_spectral(h), rel=1e-9)
        assert degree_kirchhoff(g) == pytest.approx(degree_kirchhoff(h), rel=1e-9)
