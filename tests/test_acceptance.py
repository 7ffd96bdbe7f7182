"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s; pytest
shows the FAIL lines for failing tests regardless).  Run via:

    pytest tests/test_acceptance.py -s
"""

import contextlib
import dataclasses
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rcorona import (
    HypothesisError,
    adjacency_cospectral,
    adjacency_matrix,
    build_cospectral_pair,
    closed_form_spectrum,
    compare_spectra,
    copy_block_forms,
    degree_kirchhoff,
    double_corona,
    family_polynomial,
    flatten,
    generate,
    incidence_matrix,
    nl_cospectral,
    nl_spectrum,
    normalized_laplacian,
    normalized_laplacian_regular,
    regular_cospectrality_agrees,
    spanning_trees_matrix_tree,
    spanning_trees_spectral,
)
from rcorona.closedform import CoronaParams
from rcorona.cli import main as cli_main

from test_invariants import _resistance_kirchhoff_oracle


@contextlib.contextmanager
def _report(line):
    try:
        yield
    except Exception:
        print(f"[FAIL] {line}")
        raise
    print(f"[PASS] {line}")


def _sweep_bases():
    return {
        "K3": generate("complete", 3),
        "K4": generate("complete", 4),
        "C4": generate("cycle", 4),
        "C5": generate("cycle", 5),
        "C6": generate("cycle", 6),
        "petersen": generate("petersen"),
        "K33": generate("complete_bipartite", 3, 3),
    }


def _sweep_attachments():
    return {
        "null": generate("null"),
        "K1": generate("complete", 1),
        "P2": generate("path", 2),
        "K3": generate("complete", 3),
        "C4": generate("cycle", 4),
    }


@pytest.fixture(scope="module")
def sweep_results():
    """Every hypothesis-satisfying (base, attach1, attach2) combination:
    constructed corona, closed-form spectrum, numeric spectrum, runtime."""
    start = time.perf_counter()
    results = []
    for bname, g in _sweep_bases().items():
        for aname, g1 in _sweep_attachments().items():
            for bname2, g2 in _sweep_attachments().items():
                corona, _ = double_corona(g, g1, g2)
                closed = flatten(closed_form_spectrum(g, g1, g2))
                numeric = nl_spectrum(corona)
                results.append(((bname, aname, bname2), corona, closed, numeric))
    return results, time.perf_counter() - start


GOLDEN_18 = sorted(
    [0.0]
    + [1 / 6] * 2
    + [1.5] * 9
    + [(3 - math.sqrt(3)) / 4] * 2
    + [(3 + math.sqrt(3)) / 4] * 2
    + [(7 - math.sqrt(13)) / 12, (7 + math.sqrt(13)) / 12]
)


def test_a01_golden_spectrum():
    with _report("A1 golden 18-eigenvalue reproduction (1e-9 vs exact, 1e-8 vs numeric, <1s)"):
        start = time.perf_counter()
        k3, p2 = generate("complete", 3), generate("path", 2)
        closed = flatten(closed_form_spectrum(k3, p2, p2))
        assert len(closed) == 18
        assert max(abs(a - b) for a, b in zip(closed.values, GOLDEN_18)) <= 1e-9
        corona, _ = double_corona(k3, p2, p2)
        numeric = nl_spectrum(corona)
        assert compare_spectra(closed, numeric, 1e-8).matched
        assert time.perf_counter() - start < 1.0


def _coeffs_match(poly, target_ascending):
    lead = target_ascending[-1]
    scale = poly.coefficients[-1] / lead
    assert scale > 0
    got = [c / scale for c in poly.coefficients]
    assert len(got) == len(target_ascending)
    assert max(abs(a - b) for a, b in zip(got, target_ascending)) <= 1e-9


def test_a02_polynomial_reproduction():
    with _report("A2 printed quartics and cubics up to positive scalar (1e-9)"):
        p = CoronaParams(3, 3, 2, 2, 1, 2, 1)
        vertex = dataclasses.replace(p, n2=0, r2=0)
        edge = dataclasses.replace(p, n1=0, r1=0)
        _coeffs_match(family_polynomial(p, Fraction(3, 2)), [9 / 4, -24, 75, -76, 24])
        _coeffs_match(family_polynomial(p, 0), [0, -9, 48, -64, 24])
        _coeffs_match(family_polynomial(vertex, Fraction(3, 2)), [-9 / 2, 24, -32, 12])
        _coeffs_match(family_polynomial(vertex, 0), [0, 6, -13, 6])
        _coeffs_match(family_polynomial(edge, Fraction(3, 2)), [-9 / 2, 33, -44, 16])
        _coeffs_match(family_polynomial(edge, 0), [0, 3, -8, 4])


def test_a03_oracle_equivalence_sweep(sweep_results):
    results, elapsed = sweep_results
    with _report(f"A3 closed-form vs numeric sweep ({len(results)} cases, 1e-8, <60s)"):
        assert len(results) >= 100
        for key, _, closed, numeric in results:
            report = compare_spectra(closed, numeric, 1e-8)
            assert report.matched, (key, report.reason)
        assert elapsed < 60.0


def test_a04_multiplicity_and_trace_conservation(sweep_results):
    results, _ = sweep_results
    with _report("A4 count/trace/zero/range conservation in every sweep case"):
        for key, corona, closed, _ in results:
            total = corona.vertex_count
            assert len(closed) == total, key
            assert abs(math.fsum(closed.values) - total) <= 1e-7 * total, key
            assert sum(1 for v in closed.values if abs(v) <= 1e-9) == 1, key
            assert all(-1e-9 <= v <= 2 + 1e-9 for v in closed.values), key


def test_a05_regular_shortcut_and_hadamard_forms(regular_catalog):
    with _report("A5 regular Laplacian shortcut exact; copy-block forms to 1e-12"):
        for name, g in regular_catalog.items():
            assert np.array_equal(
                normalized_laplacian_regular(g), normalized_laplacian(g)
            ), name
        for name, arg in (("path", 2), ("complete", 3), ("cycle", 4), ("cycle", 5)):
            lhs, rhs = copy_block_forms(generate(name, arg))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12, (name, arg)


def test_a06_incidence_identity(regular_catalog):
    with _report("A6 incidence identity M M^T = A + r I, exact integers"):
        for name, g in regular_catalog.items():
            r = g.regular_degree
            m = incidence_matrix(g)
            a = adjacency_matrix(g)
            assert np.array_equal(m @ m.T, a + r * np.eye(g.vertex_count, dtype=np.int64)), name


def test_a07_cospectral_certification():
    with _report("A7 srg seed pair certified NL-cospectral for three corona choices (<30s)"):
        start = time.perf_counter()
        sh, rk = generate("shrikhande"), generate("rook4x4")
        k1, p2, k3 = generate("complete", 1), generate("path", 2), generate("complete", 3)
        null = generate("null")
        cases = [(k1, k1), (p2, null), (null, k3)]
        sizes = []
        for g1, g2 in cases:
            cert = build_cospectral_pair(sh, rk, g1, g1, g2, g2, tol=1e-8)
            assert cert.cospectral, cert.recipe["kind"]
            assert cert.non_regular == (True, True)
            n1 = 0 if g1.is_null else g1.vertex_count
            n2 = 0 if g2.is_null else g2.vertex_count
            expected = 16 + 48 + 16 * n1 + 48 * n2
            assert cert.graph_a.vertex_count == expected
            sizes.append(cert.graph_a.vertex_count)
        assert sizes == [128, 96, 208]
        assert time.perf_counter() - start < 30.0


def test_a08_regular_equivalence_consistency(regular_catalog):
    with _report("A8 adjacency vs NL cospectrality verdicts coincide on all regular pairs"):
        names = sorted(regular_catalog)
        pairs = list(itertools.combinations(names, 2))
        noncospectral = 0
        seed_seen = False
        for a, b in pairs:
            ga, gb = regular_catalog[a], regular_catalog[b]
            assert regular_cospectrality_agrees(ga, gb), (a, b)
            if adjacency_cospectral(ga, gb):
                seed_seen = True
            else:
                noncospectral += 1
        assert seed_seen  # shrikhande/rook4x4 present in the catalog
        assert noncospectral >= 10


def test_a09_invariant_cross_checks(catalog):
    with _report("A9 spanning trees (1e-6 rel), Petersen = 2000, Kirchhoff oracle (1e-7 rel)"):
        connected = dict(catalog)
        p2 = generate("path", 2)
        corona, _ = double_corona(generate("complete", 3), p2, p2)
        connected["K3_double_corona"] = corona
        for name, g in connected.items():
            exact = spanning_trees_matrix_tree(g)
            approx = spanning_trees_spectral(g)
            assert abs(approx - exact) <= 1e-6 * exact, (name, exact, approx)
        assert spanning_trees_matrix_tree(generate("petersen")) == 2000
        for name in ("K3", "P2", "C4", "C5", "petersen"):
            g = catalog[name]
            oracle = _resistance_kirchhoff_oracle(g)
            assert abs(degree_kirchhoff(g) - oracle) <= 1e-7 * oracle, name


def test_a10_documented_refusal(tmp_path, capsys):
    with _report("A10 m<n closed form refused (exit 3, stated message); numeric path fine"):
        k2 = tmp_path / "K2.el"
        p2 = tmp_path / "P2.el"
        assert cli_main(["generate", "complete", "2", "--out", str(k2)]) == 0
        assert cli_main(["generate", "path", "2", "--out", str(p2)]) == 0
        code = cli_main(["spectrum", "--corona", "double", str(k2), str(p2), str(p2),
                         "--method", "closed-form"])
        captured = capsys.readouterr()
        assert code == 3
        assert "m<n unsupported" in captured.err

        with pytest.raises(HypothesisError, match="m<n unsupported"):
            closed_form_spectrum(generate("complete", 2), generate("path", 2), generate("path", 2))

        code = cli_main(["spectrum", "--corona", "double", str(k2), str(p2), str(p2),
                         "--method", "numeric", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        values = json.loads(captured.out)["numeric"]
        total = 2 + 1 + 2 * 2 + 1 * 2
        assert len(values) == total
        assert abs(math.fsum(values) - total) <= 1e-7 * total
        assert sum(1 for v in values if abs(v) <= 1e-9) == 1
        assert all(-1e-9 <= v <= 2 + 1e-9 for v in values)
