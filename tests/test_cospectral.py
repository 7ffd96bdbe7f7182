"""Cospectral pair construction and certification."""

import itertools
import json

import numpy as np
import pytest

from rcorona import (
    HypothesisError,
    adjacency_cospectral,
    build_cospectral_pair,
    build_graph,
    closed_form_spectrum,
    compare_spectra,
    flatten,
    generate,
    nl_cospectral,
    regular_cospectrality_agrees,
)


@pytest.fixture(scope="module")
def seeds():
    return generate("shrikhande"), generate("rook4x4")


class TestCospectralityTests:
    def test_srg_pair_adjacency(self, seeds):
        assert adjacency_cospectral(*seeds)

    def test_srg_pair_normalized_laplacian(self, seeds):
        assert nl_cospectral(*seeds)

    def test_different_orders(self):
        assert not adjacency_cospectral(generate("complete", 3), generate("cycle", 4))
        assert not nl_cospectral(generate("path", 2), generate("complete", 3))

    def test_identity(self):
        g = generate("petersen")
        assert adjacency_cospectral(g, g) and nl_cospectral(g, g)

    def test_isolated_vertex_propagates(self):
        with pytest.raises(HypothesisError):
            nl_cospectral(build_graph(2, []), generate("path", 2))


class TestRegularEquivalence:
    def test_positive_pair(self, seeds):
        assert regular_cospectrality_agrees(*seeds)
        assert adjacency_cospectral(*seeds) and nl_cospectral(*seeds)

    def test_negative_pair_different_orders(self):
        assert regular_cospectrality_agrees(generate("cycle", 4), generate("cycle", 5))

    def test_c6_vs_two_triangles(self):
        # same order, both 2-regular; the solver decides they are NOT
        # cospectral (adjacency spectra {2,1,1,-1,-1,-2} vs {2,2,-1,-1,-1,-1}),
        # so both verdicts must be negative
        c6 = generate("cycle", 6)
        two_k3 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not adjacency_cospectral(c6, two_k3)
        assert not nl_cospectral(c6, two_k3)
        assert regular_cospectrality_agrees(c6, two_k3)

    def test_catalog_pairs_agree(self, regular_catalog):
        names = sorted(regular_catalog)
        pairs = list(itertools.combinations(names, 2))
        assert len(pairs) >= 10
        for a, b in pairs:
            assert regular_cospectrality_agrees(regular_catalog[a], regular_catalog[b]), (a, b)

    def test_rejects_irregular(self):
        with pytest.raises(HypothesisError):
            regular_cospectrality_agrees(generate("complete_bipartite", 1, 2), generate("complete", 3))


class TestBuildPair:
    def test_srg_with_k1_attachments(self, seeds):
        k1 = generate("complete", 1)
        cert = build_cospectral_pair(*seeds, k1, k1, k1, k1)
        assert cert.cospectral
        assert cert.graph_a.vertex_count == 128
        assert cert.max_deviation <= 1e-8
        assert cert.non_regular == (True, True)
        assert cert.edge_sets_differ

    def test_identical_seeds_trivially_cospectral(self):
        g = generate("complete", 3)
        p2 = generate("path", 2)
        cert = build_cospectral_pair(g, g, p2, p2, p2, p2)
        assert cert.cospectral
        assert not cert.edge_sets_differ

    def test_non_cospectral_seeds_rejected(self):
        null = generate("null")
        with pytest.raises(HypothesisError, match="cospectral"):
            build_cospectral_pair(
                generate("complete", 3), generate("cycle", 4), null, null, null, null
            )

    def test_identical_seed_with_null_attachments_rejected(self):
        g = generate("complete", 3)
        null = generate("null")
        with pytest.raises(HypothesisError):
            build_cospectral_pair(g, g, null, null, null, null)

    def test_mismatched_null_attachment_rejected(self, seeds):
        k1 = generate("complete", 1)
        null = generate("null")
        with pytest.raises(HypothesisError, match="null"):
            build_cospectral_pair(*seeds, k1, null, k1, k1)

    @pytest.mark.parametrize("triple, match", [
        (("two_k3", "null", "null"), "nonempty connected base graph"),
        (("k3", "star", "null"), "first attachment graph must be regular"),
        (("k3", "null", "star"), "second attachment graph must be regular"),
    ])
    def test_hypotheses_are_the_closed_forms(self, triple, match):
        # both triples are checked by CoronaParams.from_graphs, so a
        # cospectral pair violating a hypothesis gets its refusal
        graphs = {
            "two_k3": build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
            "k3": generate("complete", 3),
            "star": generate("complete_bipartite", 1, 2),
            "null": generate("null"),
        }
        g, g1, g2 = (graphs[name] for name in triple)
        with pytest.raises(HypothesisError, match=match):
            build_cospectral_pair(g, g, g1, g1, g2, g2)

    def test_degree_profiles_match_as_multisets(self, seeds):
        p2 = generate("path", 2)
        null = generate("null")
        cert = build_cospectral_pair(*seeds, p2, p2, null, null)
        assert sorted(cert.graph_a.degrees.tolist()) == sorted(cert.graph_b.degrees.tolist())

    def test_closed_form_explains_cospectrality(self, seeds):
        # both closed-form spectra depend only on shared parameters and
        # cospectral inputs, so they must agree wherever the verdict does
        g, h = seeds
        k3 = generate("complete", 3)
        null = generate("null")
        cert = build_cospectral_pair(g, h, null, null, k3, k3)
        assert cert.cospectral
        ca = flatten(closed_form_spectrum(g, null, k3))
        cb = flatten(closed_form_spectrum(h, null, k3))
        assert compare_spectra(ca, cb, 1e-8).matched
        assert compare_spectra(ca, cert.spectrum_a, 1e-8).matched

    def test_certificate_json_replayable(self, seeds):
        k1 = generate("complete", 1)
        null = generate("null")
        cert = build_cospectral_pair(*seeds, k1, k1, null, null)
        obj = json.loads(cert.to_json())
        assert obj["verdict"] == "cospectral"
        assert obj["recipe"]["kind"] == "vertex"
        rebuilt = build_cospectral_pair(
            build_graph(obj["recipe"]["g"]["n"], [tuple(e) for e in obj["recipe"]["g"]["edges"]]),
            build_graph(obj["recipe"]["h"]["n"], [tuple(e) for e in obj["recipe"]["h"]["edges"]]),
            build_graph(obj["recipe"]["g1"]["n"], [tuple(e) for e in obj["recipe"]["g1"]["edges"]]),
            build_graph(obj["recipe"]["h1"]["n"], [tuple(e) for e in obj["recipe"]["h1"]["edges"]]),
            build_graph(obj["recipe"]["g2"]["n"], [tuple(e) for e in obj["recipe"]["g2"]["edges"]]),
            build_graph(obj["recipe"]["h2"]["n"], [tuple(e) for e in obj["recipe"]["h2"]["edges"]]),
            tol=obj["recipe"]["tolerance"],
        )
        assert rebuilt.verdict == cert.verdict
        assert np.array_equal(rebuilt.spectrum_a.values, cert.spectrum_a.values)

    def test_recipe_kind_names_the_attachments_taken(self, seeds):
        k1, null = generate("complete", 1), generate("null")
        kinds = ("double", "vertex", "edge", "r_graph")
        for (g1, g2), kind in zip(itertools.product((k1, null), repeat=2), kinds):
            assert build_cospectral_pair(*seeds, g1, g1, g2, g2).recipe["kind"] == kind
