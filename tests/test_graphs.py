"""Graph construction, validation, generators, matrix views, and formats."""

import itertools
import json
import resource
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rcorona.graphs
from rcorona import (
    DenseMemoryError,
    DuplicateEdgeError,
    EndpointRangeError,
    GraphValidationError,
    HypothesisError,
    SelfLoopError,
    adjacency_cospectral,
    adjacency_matrix,
    build_graph,
    format_graph,
    generate,
    incidence_matrix,
    parse_edge_list,
    parse_graph_json,
    save_graph,
)
from rcorona.corona import CoronaLayout
from rcorona.graphs import _graph_dict


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
        assert g.is_null and g.ends.shape == (0, 2)

    def test_normalizes_and_keeps_first_occurrence_order(self):
        g = build_graph(4, [(2, 0), (3, 1)])
        assert g.ends.tolist() == [[0, 2], [1, 3]]

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(0, 0)])

    def test_duplicate(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_ends_is_a_read_only_int64_array(self):
        g = build_graph(4, [(2, 0), (3, 1)])
        assert g.ends.dtype == np.int64 and g.ends.shape == (2, 2)
        assert g.ends.tolist() == [[0, 2], [1, 3]]
        with pytest.raises(ValueError):
            g.ends[0, 0] = 1

    def test_equality_and_hash_follow_vertex_count_and_rows(self):
        g = build_graph(4, [(0, 2), (1, 3)])
        same = build_graph(4, np.array([[2, 0], [3, 1]]))
        assert g == same and hash(g) == hash(same)
        assert g != build_graph(5, [(0, 2), (1, 3)])
        assert g != build_graph(4, [(1, 3), (0, 2)])
        assert g != build_graph(4, [(0, 2)])
        assert g != g.ends.tolist()
        assert len({g, same, build_graph(0, [])}) == 2

    def test_out_of_range(self):
        with pytest.raises(EndpointRangeError):
            build_graph(2, [(0, 2)])

    def test_accepts_a_generator_of_pairs(self):
        pairs = ((u, v) for u, v in [(2, 0), (3, 1)])
        assert build_graph(4, pairs) == build_graph(4, [(2, 0), (3, 1)])

    def test_rejects_edges_that_are_not_pairs(self):
        with pytest.raises(GraphValidationError, match=r"edges must be pairs \(u, v\)"):
            build_graph(3, [(0, 1, 2)])


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
        monkeypatch.setattr("rcorona.graphs.resource.getrlimit",
                            lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
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

    @pytest.mark.parametrize("soft, expected", [
        (10**6, 10**6), (10**12, 4096 * 1000), (resource.RLIM_INFINITY, 4096 * 1000),
    ], ids=["smaller", "larger", "unlimited"])
    def test_address_space_limit_caps_memory(self, monkeypatch, tmp_path, soft, expected):
        monkeypatch.setattr("rcorona.graphs.os.sysconf",
                            lambda name: 1000 if name == "SC_PHYS_PAGES" else 4096)
        monkeypatch.setattr("rcorona.graphs._CGROUP_MEMORY_MAX", str(tmp_path / "absent"))
        monkeypatch.setattr("rcorona.graphs.resource.getrlimit",
                            lambda which: (soft, resource.RLIM_INFINITY))
        rcorona.graphs._memory_limits.cache_clear()
        assert rcorona.graphs._physical_memory() == expected

    def test_memory_limit_read_once_per_path(self, monkeypatch, tmp_path):
        monkeypatch.setattr("rcorona.graphs.os.sysconf", lambda name: -1)
        path = tmp_path / "memory.max"
        path.write_text("1000000\n")
        monkeypatch.setattr("rcorona.graphs._CGROUP_MEMORY_MAX", str(path))
        assert rcorona.graphs._physical_memory() == 10**6
        path.write_text("2000000\n")
        assert rcorona.graphs._physical_memory() == 10**6
        other = tmp_path / "other.max"
        other.write_text("2000000\n")
        monkeypatch.setattr("rcorona.graphs._CGROUP_MEMORY_MAX", str(other))
        assert rcorona.graphs._physical_memory() == 2 * 10**6

    def test_dense_memory_refusal_names_the_order(self, monkeypatch):
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: 4.1 * 8 * 40 * 40 - 1)
        with pytest.raises(DenseMemoryError, match="40x40"):
            adjacency_matrix(generate("cycle", 40))
        assert adjacency_matrix(generate("cycle", 39)).shape == (39, 39)

    def test_incidence_memory_refusal_names_the_shape(self, monkeypatch):
        # one int64 entry per vertex and edge: C_40 needs 8 * 40 * 40 bytes
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: 8 * 40 * 40 - 1)
        with pytest.raises(DenseMemoryError, match="40x40 incidence matrix"):
            incidence_matrix(generate("cycle", 40))
        assert incidence_matrix(generate("cycle", 39)).shape == (39, 39)

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
        d = np.diag(g.degrees)
        assert np.array_equal(m @ m.T, a + d)


class TestDegrees:
    def test_k3(self):
        g = generate("complete", 3)
        assert g.degrees.tolist() == [2, 2, 2] and g.regular_degree == 2

    def test_p2_is_one_regular(self):
        g = generate("path", 2)
        assert g.degrees.tolist() == [1, 1] and g.regular_degree == 1

    def test_star_not_regular(self):
        g = generate("complete_bipartite", 1, 3)
        assert sorted(g.degrees.tolist()) == [1, 1, 1, 3] and g.regular_degree is None

    @given(small_graphs())
    def test_handshake(self, g):
        assert g.degrees.sum() == 2 * g.edge_count

    @given(small_graphs())
    def test_matches_a_scalar_count(self, g):
        count = [0] * g.vertex_count
        for u, v in g.ends.tolist():
            count[u] += 1
            count[v] += 1
        assert g.degrees.dtype == np.int64 and g.degrees.tolist() == count
        assert g.regular_degree == (count[0] if len(set(count)) == 1 else None)
        with pytest.raises(ValueError):
            g.degrees[...] = 0

    def test_null_graph(self):
        g = build_graph(0, [])
        assert g.degrees.dtype == np.int64 and g.degrees.shape == (0,)
        assert g.regular_degree is None


class TestConnectivity:
    def test_k3(self):
        assert generate("complete", 3).connected

    def test_two_disjoint_edges(self):
        assert not build_graph(4, [(0, 1), (2, 3)]).connected

    def test_single_vertex(self):
        assert build_graph(1, []).connected

    def test_null_graph_undefined(self):
        with pytest.raises(HypothesisError):
            build_graph(0, []).connected

    @staticmethod
    def _reachable_from_0(g):
        """Breadth-first search over the edge pairs: the scalar reference."""
        neighbors = [[] for _ in range(g.vertex_count)]
        for u, v in g.ends.tolist():
            neighbors[u].append(v)
            neighbors[v].append(u)
        seen, stack = {0}, [0]
        while stack:
            for w in neighbors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == g.vertex_count

    @given(small_graphs(min_n=1, max_n=14), st.permutations(range(14)))
    def test_matches_breadth_first_search(self, g, perm):
        # relabelled, so that vertex 0 is not always the least of its component
        n = g.vertex_count
        order = [p for p in perm if p < n]
        h = build_graph(n, [(order[u], order[v]) for u, v in g.ends.tolist()])
        assert h.connected == self._reachable_from_0(h)

    @pytest.mark.parametrize("n", [2, 3, 50, 1000])
    def test_long_paths_and_split_cycles(self, n):
        rng = np.random.default_rng(n)
        p = rng.permutation(2 * n)
        path = build_graph(2 * n, np.column_stack((p[:-1], p[1:])))
        assert path.connected
        if n >= 3:
            # two relabelled n-cycles, then joined by one edge
            cycles = np.concatenate([np.column_stack((q, np.roll(q, 1))) for q in (p[:n], p[n:])])
            assert not build_graph(2 * n, cycles).connected
            assert build_graph(2 * n, np.vstack((cycles, [[p[0], p[n]]]))).connected


class TestBipartite:
    @pytest.mark.parametrize("family, params, expected", [
        ("complete_bipartite", (3, 5), True),
        ("hypercube", (4,), True),
        ("circulant", (14, 1, 3, 7), True),
        ("cycle", (6,), True),
        ("cycle", (7,), False),
        ("circulant", (12, 1, 2), False),
        ("petersen", (), False),
        ("complete", (1,), True),
        ("complete", (3,), False),
        ("null", (), True),
    ])
    def test_catalog(self, family, params, expected):
        assert generate(family, *params).bipartite is expected

    @staticmethod
    def _two_colourable(g):
        """Breadth-first 2-colouring from each uncoloured vertex: the scalar
        reference."""
        neighbors = [[] for _ in range(g.vertex_count)]
        for u, v in g.ends.tolist():
            neighbors[u].append(v)
            neighbors[v].append(u)
        colour = {}
        for s in range(g.vertex_count):
            if s in colour:
                continue
            colour[s], stack = 0, [s]
            while stack:
                u = stack.pop()
                for w in neighbors[u]:
                    if w not in colour:
                        colour[w] = 1 - colour[u]
                        stack.append(w)
                    elif colour[w] == colour[u]:
                        return False
        return True

    @given(small_graphs(max_n=12))
    def test_matches_two_colouring(self, g):
        assert g.bipartite == self._two_colourable(g)

    @pytest.mark.parametrize("n", [3, 50, 1001])
    def test_long_relabelled_cycles(self, n):
        p = np.random.default_rng(n).permutation(2 * n)
        # two relabelled n-cycles, bipartite when n is even
        cycles = np.concatenate([np.column_stack((q, np.roll(q, 1))) for q in (p[:n], p[n:])])
        assert build_graph(2 * n, cycles).bipartite is (n % 2 == 0)
        # a relabelled 2n-cycle with one chord: of odd span it closes only
        # even cycles, of even span an odd one
        ring = np.column_stack((p, np.roll(p, 1)))
        for span in (3, 4):
            chorded = build_graph(2 * n, np.vstack((ring, [[p[0], p[span]]])))
            assert chorded.bipartite is (span % 2 == 1)


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
        assert g.regular_degree == 3

    @pytest.mark.parametrize("name", ["shrikhande", "rook4x4"])
    def test_srg_16_6_2_2(self, name):
        g = generate(name)
        assert (g.vertex_count, g.edge_count) == (16, 48)
        assert g.regular_degree == 6
        lam, mu = _common_neighbor_counts(g)
        assert lam == {2} and mu == {2}

    def test_srg_pair_same_degrees_different_edges(self):
        a, b = generate("shrikhande"), generate("rook4x4")
        assert np.array_equal(a.degrees, b.degrees)
        assert sorted(a.ends.tolist()) != sorted(b.ends.tolist())
        assert adjacency_cospectral(a, b)

    def test_hypercube(self):
        g = generate("hypercube", 3)
        assert (g.vertex_count, g.edge_count) == (8, 12)
        assert g.regular_degree == 3

    def test_circulant(self):
        g = generate("circulant", 8, 1, 4)
        assert g.regular_degree == 3
        assert g.edge_count == 12

    def test_circulant_matches_cycle(self):
        assert generate("circulant", 5, 1) == generate("cycle", 5)

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

    @pytest.mark.parametrize("family, params, text", [
        ("petersen", (10,), "petersen takes no parameters"),
        ("null", (0,), "null takes no parameters"),
        ("cycle", (), "cycle takes 1 parameter(s), got 0"),
        ("complete_bipartite", (3,), "complete_bipartite takes 2 parameter(s), got 1"),
        ("hypercube", (3, 1), "hypercube takes 1 parameter(s), got 2"),
        ("circulant", (5,), "circulant takes n followed by at least one connection"),
        ("moebius", (5,), "unknown family 'moebius'; known: complete, cycle, path, "
                          "complete_bipartite, circulant, petersen, hypercube, shrikhande, "
                          "rook4x4, null"),
        ("circulant", (10, 1, 1), "circulant connection set contains duplicates"),
        ("circulant", (10, 6), "circulant connection 6 outside 1..5"),
    ])
    def test_parameter_error_texts(self, family, params, text):
        with pytest.raises(ValueError) as exc:
            generate(family, *params)
        assert str(exc.value) == text

    @pytest.mark.parametrize("family, params", [
        ("complete", (-10**8,)), ("cycle", (-10**400,)), ("path", (0,)),
        ("complete_bipartite", (-10**6, -10**6)), ("circulant", (-10**9, 1)),
        ("hypercube", (-10**400,)),
    ])
    def test_invalid_size_keeps_its_own_error(self, monkeypatch, family, params):
        # an invalid size counts no edges, so the memory refusal never preempts it
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: 1)
        with pytest.raises(ValueError, match="requires"):
            generate(family, *params)


class TestFormats:
    @given(small_graphs())
    def test_edge_list_round_trip(self, g):
        assert parse_edge_list(format_graph(g, "edgelist")) == g

    @given(small_graphs())
    def test_json_round_trip(self, g):
        assert parse_graph_json(format_graph(g, "json")) == g

    def test_edge_list_shape(self):
        text = format_graph(generate("path", 3), "edgelist")
        assert text == "3 2\n0 1\n1 2\n"

    def test_edge_list_header_mismatch(self):
        with pytest.raises(Exception):
            parse_edge_list("2 2\n0 1\n")

    def test_order_preserved(self):
        g = build_graph(4, [(3, 2), (0, 1)])
        assert parse_edge_list(format_graph(g, "edgelist")).ends.tolist() == [[2, 3], [0, 1]]

    def test_format_graph(self):
        g = generate("path", 3)
        assert format_graph(g, "edgelist") == "3 2\n0 1\n1 2\n"
        assert format_graph(g, "json") == '{"n": 3, "edges": [[0, 1], [1, 2]]}\n'
        with pytest.raises(ValueError, match="unknown format"):
            format_graph(g, "graphml")


# labels where the decimal width grows: 9/10, 99/100, ..., 9999999/10000000
_STRADDLING = sorted({10**p + d for p in range(1, 8) for d in (-2, -1, 0, 1)})
# rows per chunk of the writer: one row, a few, and the default
chunk_sizes = st.sampled_from([1, 2, 3, rcorona.graphs._CHUNK_ROWS])


@st.composite
def straddling_graphs(draw):
    """Graphs whose labels straddle powers of ten, on either side of the
    writer's key choice: dense, every label 0..n-1 on a random spanning path
    plus chords (fewer labels than entries, so the labels are the keys), or
    sparse, a few edges between labels near powers of ten and near n - 1
    (the entries are the keys)."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([x for x in _STRADDLING if x <= 1001]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        order = rng.permutation(n)
        chords = rng.integers(0, n, size=(draw(st.integers(0, n)), 2))
        edges = {tuple(sorted(e)) for e in chords.tolist() if e[0] != e[1]}
        edges |= {tuple(sorted(e)) for e in zip(order[:-1].tolist(), order[1:].tolist())}
        return build_graph(n, rng.permutation(sorted(edges)))
    n = draw(st.sampled_from(_STRADDLING)) + draw(st.integers(0, 2))
    labels = st.sampled_from([x for x in (0, 1, 2, *_STRADDLING, n - 2, n - 1) if x < n])
    pairs = st.tuples(labels, labels).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=12, unique_by=lambda e: frozenset(e)))
    return build_graph(n, edges)


def _label_table_examples(test):
    """@examples for the table over the labels 0..top, top at and beside
    powers of ten, with one row per chunk and with the default chunk."""
    for top in (9, 10, 99, 100, 999, 1_000, 9_999, 10_000):
        for chunk_rows in (1, rcorona.graphs._CHUNK_ROWS):
            test = example(generate("cycle", top + 1), chunk_rows)(test)
    return test


def reference_edge_list(g) -> str:
    return f"{g.vertex_count} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.ends.tolist())


class TestWritersAgainstScalarReference:
    """The array writers against json.dumps and one f-string per edge."""

    @settings(max_examples=200, deadline=None)
    @given(straddling_graphs(), chunk_sizes)
    @example(build_graph(0, []), 1)
    @example(build_graph(5, []), 1)
    @example(build_graph(2, [(0, 1)]), 1)
    @example(build_graph(11, [(9, 10)]), 1)
    @example(build_graph(10**7 + 1, [(10**7 - 1, 10**7)]), 1)
    # sparse, with edges near the top: the entries are the keys
    @example(build_graph(10**6, [(999_998, 999_999), (0, 999_999), (99_999, 100_000)]), 2)
    # dense: the labels 0..99 are the keys
    @example(generate("cycle", 100), 7)
    # one-digit labels in the first column only, up to three digits in the second
    @example(generate("complete_bipartite", 10, 990), 1)
    @example(generate("complete_bipartite", 10, 990), rcorona.graphs._CHUNK_ROWS)
    @_label_table_examples
    def test_graph_writers(self, tmp_path_factory, g, chunk_rows):
        edge_list, graph_json = reference_edge_list(g), json.dumps(_graph_dict(g))
        path = tmp_path_factory.mktemp("save") / "graph"
        with mock.patch.object(rcorona.graphs, "_CHUNK_ROWS", chunk_rows):
            assert format_graph(g, "edgelist") == edge_list
            assert format_graph(g, "json") == graph_json + "\n"
            save_graph(g, str(path), "edgelist")
            assert path.read_bytes() == edge_list.encode()
            save_graph(g, str(path), "json")
            assert path.read_bytes() == (graph_json + "\n").encode()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 120), st.integers(0, 130), st.integers(0, 12), st.integers(0, 12), chunk_sizes)
    @example(10, 9, 9_999, 1, 1)  # copy ranges straddle 99999/100000, 10 rows
    @example(1, 0, 0, 0, 1)
    def test_layout_json(self, n, m, n1, n2, chunk_rows):
        layout = CoronaLayout(n, m, n1, n2)
        ranges = {"old": list(layout.old_vertex_range), "new": list(layout.new_vertex_range),
                  "g1_copies": layout.g1_copy_ranges.tolist(), "g2_copies": layout.g2_copy_ranges.tolist()}
        with mock.patch.object(rcorona.graphs, "_CHUNK_ROWS", chunk_rows):
            assert layout.to_json() == json.dumps(ranges)

    @pytest.mark.parametrize("fmt", ["edgelist", "json"])
    def test_sparse_labels_get_no_table_over_them(self, fmt):
        # a table over the labels 0..top would take gigabytes here
        g = build_graph(10**9, [(0, 10**9 - 1)])
        tracemalloc.start()
        try:
            text = format_graph(g, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text in ("1000000000 1\n0 999999999\n", '{"n": 1000000000, "edges": [[0, 999999999]]}\n')
        assert peak < 2**20
