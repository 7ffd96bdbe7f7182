"""Corona constructions: counts, layouts, degree contracts, block structure."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rcorona import (
    HypothesisError,
    adjacency_matrix,
    build_graph,
    double_corona,
    generate,
    incidence_matrix,
    r_graph,
)

from test_graphs import small_graphs


class TestRGraph:
    def test_k3_by_hand(self):
        # one apex per edge, adjacent to that edge's endpoints
        g, layout = r_graph(generate("complete", 3))
        assert (g.vertex_count, g.edge_count) == (6, 9)
        deg = g.degrees.tolist()
        assert deg[:3] == [4, 4, 4] and deg[3:] == [2, 2, 2]
        assert layout.old_vertex_range == (0, 3)
        assert layout.new_vertex_range == (3, 6)

    def test_p2_becomes_triangle(self):
        g, _ = r_graph(generate("path", 2))
        assert g == generate("complete", 3)

    def test_null(self):
        g, _ = r_graph(build_graph(0, []))
        assert g.is_null

    @given(small_graphs())
    def test_counts(self, g):
        rg, _ = r_graph(g)
        assert rg.vertex_count == g.vertex_count + g.edge_count
        assert rg.edge_count == 3 * g.edge_count
        # the assembly skips build_graph: its edges must already be canonical
        assert build_graph(rg.vertex_count, rg.ends) == rg


class TestDoubleCorona:
    def test_golden_case_has_18_vertices(self):
        p2 = generate("path", 2)
        g, _ = double_corona(generate("complete", 3), p2, p2)
        assert g.vertex_count == 18

    def test_both_null_equals_r_graph(self):
        k3 = generate("complete", 3)
        null = generate("null")
        assert double_corona(k3, null, null)[0] == r_graph(k3)[0]

    def test_c4_k1_null_by_hand(self):
        g, _ = double_corona(generate("cycle", 4), generate("complete", 1), generate("null"))
        assert g.vertex_count == 12
        deg = g.degrees.tolist()
        assert deg[:4] == [5, 5, 5, 5]  # 2*2 in the R-graph plus one pendant

    def test_disconnected_base_rejected(self):
        two_edges = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(HypothesisError):
            double_corona(two_edges, generate("null"), generate("null"))

    def test_allow_disconnected_bypass(self):
        two_edges = build_graph(4, [(0, 1), (2, 3)])
        g, _ = double_corona(two_edges, generate("complete", 1), generate("null"),
                             allow_disconnected=True)
        assert g.vertex_count == 4 + 2 + 4

    def test_null_base_rejected(self):
        with pytest.raises(HypothesisError):
            double_corona(generate("null"), generate("null"), generate("null"))

    @given(small_graphs(min_n=1), small_graphs(max_n=4), small_graphs(max_n=4))
    def test_count_formulas(self, g, g1, g2):
        corona, layout = double_corona(g, g1, g2, allow_disconnected=True)
        n, m = g.vertex_count, g.edge_count
        n1, n2 = g1.vertex_count, g2.vertex_count
        assert corona.vertex_count == n + m + n * n1 + m * n2
        assert corona.edge_count == 3 * m + n * (g1.edge_count + n1) + m * (g2.edge_count + n2)
        ranges = (layout.new_vertex_range, *layout.g1_copy_ranges, *layout.g2_copy_ranges)
        assert ranges[-1][1] == corona.vertex_count
        # the assembly skips build_graph: its edges must already be canonical
        assert build_graph(corona.vertex_count, corona.ends) == corona

    def test_layout_ranges_disjoint_contiguous(self):
        g, layout = double_corona(generate("cycle", 4), generate("path", 2), generate("complete", 3))
        ranges = [layout.old_vertex_range, layout.new_vertex_range]
        ranges += list(layout.g1_copy_ranges) + list(layout.g2_copy_ranges)
        cursor = 0
        for lo, hi in ranges:
            assert lo == cursor and hi >= lo
            cursor = hi
        assert cursor == g.vertex_count


class TestSpecializations:
    """The vertex and edge coronas: double coronas with one null copy graph."""

    def test_vertex_corona_k3_p2(self):
        g, _ = double_corona(generate("complete", 3), generate("path", 2), generate("null"))
        assert g.vertex_count == 12  # 3 + 3 + 3*2

    def test_edge_corona_k3_p2(self):
        g, _ = double_corona(generate("complete", 3), generate("null"), generate("path", 2))
        assert g.vertex_count == 12

    def test_edge_corona_c4_k1_new_vertex_degree(self):
        g, layout = double_corona(generate("cycle", 4), generate("null"), generate("complete", 1))
        assert g.vertex_count == 12
        deg = g.degrees
        lo, hi = layout.new_vertex_range
        assert all(deg[i] == 3 for i in range(lo, hi))  # 2 endpoints + 1 pendant


class TestDegreeContract:
    @pytest.mark.parametrize(
        "base,first,second",
        [("K3", "P2", "P2"), ("C4", "K3", "P2"), ("petersen", "C4", "K3")],
    )
    def test_regular_inputs(self, catalog, base, first, second):
        g, g1, g2 = catalog[base], catalog[first], catalog[second]
        r, r1, r2 = g.regular_degree, g1.regular_degree, g2.regular_degree
        n1, n2 = g1.vertex_count, g2.vertex_count
        corona, layout = double_corona(g, g1, g2)
        deg = corona.degrees
        for i in range(*layout.old_vertex_range):
            assert deg[i] == 2 * r + n1
        for i in range(*layout.new_vertex_range):
            assert deg[i] == 2 + n2
        for lo, hi in layout.g1_copy_ranges:
            assert all(deg[i] == r1 + 1 for i in range(lo, hi))
        for lo, hi in layout.g2_copy_ranges:
            assert all(deg[i] == r2 + 1 for i in range(lo, hi))


class TestBlockStructure:
    def test_adjacency_blocks_match_inputs(self):
        g = generate("cycle", 4)
        g1 = generate("path", 2)
        g2 = generate("complete", 3)
        corona, layout = double_corona(g, g1, g2)
        a = adjacency_matrix(corona)
        n, m = g.vertex_count, g.edge_count

        assert np.array_equal(a[:n, :n], adjacency_matrix(g))
        assert np.array_equal(a[:n, n : n + m], incidence_matrix(g))
        assert not a[n : n + m, n : n + m].any()  # new vertices independent

        a1 = adjacency_matrix(g1)
        for i, (lo, hi) in enumerate(layout.g1_copy_ranges):
            assert np.array_equal(a[lo:hi, lo:hi], a1)
            # complete join to the owning old vertex only
            assert (a[i, lo:hi] == 1).all()
            others = [j for j in range(n) if j != i]
            assert not a[np.ix_(others, range(lo, hi))].any()

        a2 = adjacency_matrix(g2)
        for j, (lo, hi) in enumerate(layout.g2_copy_ranges):
            assert np.array_equal(a[lo:hi, lo:hi], a2)
            assert (a[n + j, lo:hi] == 1).all()

        # no edges between distinct copies
        g1_lo = layout.g1_copy_ranges[0][0]
        for (lo, hi), (lo2, hi2) in zip(layout.g1_copy_ranges, layout.g1_copy_ranges[1:]):
            assert not a[lo:hi, lo2:hi2].any()
        assert not a[g1_lo : layout.g2_copy_ranges[0][0], layout.g2_copy_ranges[0][0] :].any()
