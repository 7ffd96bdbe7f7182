"""Graph construction, validation, generators, matrix views, and formats."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rcorona.graphs
from rcorona import (
    DenseMemoryError,
    DuplicateEdgeError,
    EndpointRangeError,
    HypothesisError,
    SelfLoopError,
    adjacency_matrix,
    build_graph,
    degree_profile,
    format_graph,
    generate,
    incidence_matrix,
    is_connected,
    parse_edge_list,
    parse_graph_json,
    to_edge_list,
    to_graph_json,
)


@st.composite
def small_graphs(draw, min_n=0, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pool:
        return build_graph(n, [])
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return build_graph(n, edges)


class TestBuildGraph:
    def test_k3(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.vertex_count == 3 and g.edge_count == 3

    def test_null_graph_is_legal(self):
        g = build_graph(0, [])
        assert g.is_null and g.edges == ()

    def test_normalizes_and_keeps_first_occurrence_order(self):
        g = build_graph(4, [(2, 0), (3, 1)])
        assert g.edges == ((0, 2), (1, 3))

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(0, 0)])

    def test_duplicate(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(EndpointRangeError):
            build_graph(2, [(0, 2)])


class TestMatrixViews:
    def test_adjacency_k3(self):
        a = adjacency_matrix(generate("complete", 3))
        assert np.array_equal(a, np.ones((3, 3), dtype=int) - np.eye(3, dtype=int))

    def test_adjacency_null(self):
        assert adjacency_matrix(build_graph(0, [])).shape == (0, 0)

    def test_adjacency_p2(self):
        assert np.array_equal(adjacency_matrix(generate("path", 2)), [[0, 1], [1, 0]])

    @pytest.mark.parametrize("pages", [-1, ValueError, AttributeError])
    def test_unknown_memory_refuses_nothing(self, monkeypatch, tmp_path, pages):
        def sysconf(name):
            if name != "SC_PHYS_PAGES":
                return 4096
            if isinstance(pages, int):
                return pages
            raise pages(name)

        monkeypatch.setattr("rcorona.graphs.os.sysconf", sysconf)
        monkeypatch.setattr("rcorona.graphs._CGROUP_MEMORY_MAX", str(tmp_path / "absent"))
        assert rcorona.graphs._physical_memory() is None
        assert adjacency_matrix(generate("cycle", 40)).shape == (40, 40)

    @pytest.mark.parametrize("pages, limit, expected", [
        (1000, "1000000\n", 10**6),
        (1000, "max\n", 4096 * 1000),
        (1000, None, 4096 * 1000),
        (1000, f"{10**12}\n", 4096 * 1000),
        (-1, "1000000\n", 10**6),
    ], ids=["cgroup-smaller", "cgroup-max", "cgroup-absent", "cgroup-larger", "cgroup-only"])
    def test_cgroup_limit_caps_memory(self, monkeypatch, tmp_path, pages, limit, expected):
        monkeypatch.setattr("rcorona.graphs.os.sysconf",
                            lambda name: pages if name == "SC_PHYS_PAGES" else 4096)
        path = tmp_path / "memory.max"
        if limit is not None:
            path.write_text(limit)
        monkeypatch.setattr("rcorona.graphs._CGROUP_MEMORY_MAX", str(path))
        assert rcorona.graphs._physical_memory() == expected

    def test_dense_memory_refusal_names_the_order(self, monkeypatch):
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: 4.1 * 8 * 40 * 40 - 1)
        with pytest.raises(DenseMemoryError, match="40x40"):
            adjacency_matrix(generate("cycle", 40))
        assert adjacency_matrix(generate("cycle", 39)).shape == (39, 39)

    def test_incidence_k3_columns(self):
        m = incidence_matrix(generate("complete", 3))
        assert m.shape == (3, 3)
        assert (m.sum(axis=0) == 2).all()

    def test_incidence_p2(self):
        assert np.array_equal(incidence_matrix(generate("path", 2)), [[1], [1]])

    def test_incidence_c4_row_col_sums(self):
        m = incidence_matrix(generate("cycle", 4))
        assert (m.sum(axis=0) == 2).all() and (m.sum(axis=1) == 2).all()

    @given(small_graphs())
    def test_adjacency_symmetric_zero_diagonal(self, g):
        a = adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert not np.diag(a).any()

    @given(small_graphs())
    def test_incidence_identity(self, g):
        # M M^T = A + D, in exact integer arithmetic
        m = incidence_matrix(g)
        a = adjacency_matrix(g)
        d = np.diag(degree_profile(g).degrees).astype(np.int64)
        assert np.array_equal(m @ m.T, a + d)


class TestDegrees:
    def test_k3(self):
        p = degree_profile(generate("complete", 3))
        assert p.degrees == (2, 2, 2) and p.regular_degree == 2

    def test_p2_is_one_regular(self):
        p = degree_profile(generate("path", 2))
        assert p.degrees == (1, 1) and p.regular_degree == 1

    def test_star_not_regular(self):
        p = degree_profile(generate("complete_bipartite", 1, 3))
        assert sorted(p.degrees) == [1, 1, 1, 3] and p.regular_degree is None

    @given(small_graphs())
    def test_handshake(self, g):
        assert sum(degree_profile(g).degrees) == 2 * g.edge_count


class TestConnectivity:
    def test_k3(self):
        assert is_connected(generate("complete", 3))

    def test_two_disjoint_edges(self):
        assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(build_graph(1, []))

    def test_null_graph_undefined(self):
        with pytest.raises(HypothesisError):
            is_connected(build_graph(0, []))


def _common_neighbor_counts(g):
    """Exhaustive neighborhood counting for strong-regularity checks."""
    a = adjacency_matrix(g)
    lam, mu = set(), set()
    for i, j in itertools.combinations(range(g.vertex_count), 2):
        common = int((a[i] * a[j]).sum())
        (lam if a[i, j] else mu).add(common)
    return lam, mu


class TestGenerators:
    def test_complete(self):
        g = generate("complete", 3)
        assert (g.vertex_count, g.edge_count) == (3, 3)

    def test_petersen_parameters(self):
        g = generate("petersen")
        assert (g.vertex_count, g.edge_count) == (10, 15)
        assert degree_profile(g).regular_degree == 3

    @pytest.mark.parametrize("name", ["shrikhande", "rook4x4"])
    def test_srg_16_6_2_2(self, name):
        g = generate(name)
        assert (g.vertex_count, g.edge_count) == (16, 48)
        assert degree_profile(g).regular_degree == 6
        lam, mu = _common_neighbor_counts(g)
        assert lam == {2} and mu == {2}

    def test_srg_pair_same_degrees_different_edges(self):
        a, b = generate("shrikhande"), generate("rook4x4")
        assert degree_profile(a).degrees == degree_profile(b).degrees
        assert sorted(a.edges) != sorted(b.edges)

    def test_hypercube(self):
        g = generate("hypercube", 3)
        assert (g.vertex_count, g.edge_count) == (8, 12)
        assert degree_profile(g).regular_degree == 3

    def test_circulant(self):
        g = generate("circulant", 8, 1, 4)
        assert degree_profile(g).regular_degree == 3
        assert g.edge_count == 12

    def test_circulant_matches_cycle(self):
        assert generate("circulant", 5, 1).edges == generate("cycle", 5).edges

    def test_complete_bipartite(self):
        g = generate("complete_bipartite", 3, 3)
        assert (g.vertex_count, g.edge_count) == (6, 9)

    def test_null(self):
        assert generate("null").is_null

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            generate("cycle", 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate("moebius", 5)

    def test_fixed_family_rejects_params(self):
        with pytest.raises(ValueError):
            generate("petersen", 10)


class TestFormats:
    @given(small_graphs())
    def test_edge_list_round_trip(self, g):
        assert parse_edge_list(to_edge_list(g)) == g

    @given(small_graphs())
    def test_json_round_trip(self, g):
        assert parse_graph_json(to_graph_json(g)) == g

    def test_edge_list_shape(self):
        text = to_edge_list(generate("path", 3))
        assert text == "3 2\n0 1\n1 2\n"

    def test_edge_list_header_mismatch(self):
        with pytest.raises(Exception):
            parse_edge_list("2 2\n0 1\n")

    def test_order_preserved(self):
        g = build_graph(4, [(3, 2), (0, 1)])
        assert parse_edge_list(to_edge_list(g)).edges == ((2, 3), (0, 1))

    def test_format_graph(self):
        g = generate("path", 3)
        assert format_graph(g, "edgelist") == "3 2\n0 1\n1 2\n"
        assert format_graph(g, "json") == '{"n": 3, "edges": [[0, 1], [1, 2]]}\n'
        with pytest.raises(ValueError, match="unknown format"):
            format_graph(g, "graphml")
