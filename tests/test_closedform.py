"""Closed-form spectrum machinery: polynomial factors and quotient matrices,
read as rows of the family table, and oracle equivalence against the numeric
eigensolver."""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rcorona import (
    ClosedFormSpectrum,
    CoronaParams,
    FamilyTable,
    FixedFamily,
    HypothesisError,
    InternalConsistencyError,
    Spectrum,
    build_graph,
    closed_form_from_spectra,
    closed_form_spectrum,
    compare_spectra,
    copy_block_forms,
    double_corona,
    family_polynomial,
    flatten,
    generate,
    nl_spectrum,
    normalized_laplacian,
    summarize,
)
from rcorona.closedform import _refuse_fewer_edges, _spectrum_groups
from rcorona.spectra import _FIXED_CHUNK, _MATCH_TOL, _WRITE_CHUNK, _write_runs

K3P2P2 = CoronaParams(n=3, m=3, r=2, n1=2, r1=1, n2=2, r2=1)
# K3P2P2 over K4: m > n, so it has an excess family, which depends only on
# the second copy graph
K4P2P2 = CoronaParams(n=4, m=6, r=3, n1=2, r1=1, n2=2, r2=1)


def _vertex(p):
    return dataclasses.replace(p, n2=0, r2=0)


def _edge(p):
    return dataclasses.replace(p, n1=0, r1=0)


def _bare(p):
    return dataclasses.replace(p, n1=0, r1=0, n2=0, r2=0)


def _groups_for(p, mus):
    """Base groups over the given values whose multiplicities add up to n,
    and copy groups of zeros."""
    mus = mus[: p.n]
    counts = [1] * (len(mus) - 1) + [p.n - len(mus) + 1]
    copies = [((0.0, size),) if size else () for size in (p.n1, p.n2)]
    return (tuple(zip(mus, counts)), *copies)


def _roots(p, mu):
    """The root row at base eigenvalue mu: (coefficients, quotient)."""
    table = closed_form_from_spectra(p, *_groups_for(p, [mu])).roots
    return table.coefficients[0].tolist(), table.quotients[0]


def _excess(p):
    """The excess row of p, which needs m > n: (coefficients, quotient)."""
    table = closed_form_from_spectra(p, *_groups_for(p, [0.0])).excess
    return table.coefficients[0].tolist(), table.quotients[0]


class TestCopyBlockForms:
    def test_p2_hand_value(self):
        # L(P2) o B with B = J/2 + I/2: diagonal 1*1, off-diagonal -1*(1/2);
        # identical to (I + L)/2
        lhs, rhs = copy_block_forms(generate("path", 2))
        expect = np.array([[1.0, -0.5], [-0.5, 1.0]])
        assert np.allclose(lhs, expect, atol=1e-15)
        assert np.allclose(rhs, expect, atol=1e-15)

    def test_k3_matches_shifted_form(self):
        lhs, rhs = copy_block_forms(generate("complete", 3))
        lap = normalized_laplacian(generate("complete", 3))
        expect = (np.eye(3) + 2 * lap) / 3
        assert np.allclose(lhs, expect, atol=1e-15)
        assert np.allclose(rhs, expect, atol=1e-15)

    @pytest.mark.parametrize("name,arg", [("path", 2), ("complete", 3), ("cycle", 4), ("cycle", 5)])
    def test_agreement(self, name, arg):
        lhs, rhs = copy_block_forms(generate(name, arg))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_rejects_irregular(self):
        with pytest.raises(HypothesisError):
            copy_block_forms(generate("complete_bipartite", 1, 2))


def _normalized_to(poly, lead):
    scale = poly.coefficients[-1] / lead
    return [c / scale for c in poly.coefficients]


class TestPolynomialFactors:
    def test_quartic_golden_three_halves(self):
        got = _normalized_to(family_polynomial(K3P2P2, Fraction(3, 2)), 24)
        assert got == pytest.approx([9 / 4, -24, 75, -76, 24], abs=1e-12)

    def test_quartic_golden_zero(self):
        got = _normalized_to(family_polynomial(K3P2P2, 0), 24)
        assert got == pytest.approx([0, -9, 48, -64, 24], abs=1e-12)

    def test_quartic_leading_coefficient(self):
        # the leading coefficient is the product of the present classes'
        # corona degrees, for the double, vertex and edge coronas and the
        # bare R-graph alike
        for base in (K3P2P2, CoronaParams(4, 4, 2, 3, 2, 1, 0), CoronaParams(10, 15, 3, 4, 2, 2, 1)):
            for p in (base, _vertex(base), _edge(base), _bare(base)):
                degrees = [2 * p.r + p.n1, 2 + p.n2]
                degrees += [p.r1 + 1] * (p.n1 > 0) + [p.r2 + 1] * (p.n2 > 0)
                for mu in (0.0, 0.37, 1.5, 2.0):
                    q = family_polynomial(p, mu)
                    assert q.degree == len(degrees)
                    assert q.coefficients[-1] == math.prod(degrees)

    def test_vertex_cubic_golden(self):
        assert _normalized_to(family_polynomial(_vertex(K3P2P2), Fraction(3, 2)), 12) == pytest.approx(
            [-9 / 2, 24, -32, 12], abs=1e-12
        )
        assert _normalized_to(family_polynomial(_vertex(K3P2P2), 0), 6) == pytest.approx(
            [0, 6, -13, 6], abs=1e-12
        )

    def test_edge_cubic_golden(self):
        assert _normalized_to(family_polynomial(_edge(K3P2P2), Fraction(3, 2)), 16) == pytest.approx(
            [-9 / 2, 33, -44, 16], abs=1e-12
        )
        assert _normalized_to(family_polynomial(_edge(K3P2P2), 0), 4) == pytest.approx(
            [0, 3, -8, 4], abs=1e-12
        )

    def test_excess_polynomial_expansions(self):
        # (x-1)(2+n2)(x r2 + x - 1) - n2, expanded by hand
        assert _excess(K4P2P2)[0] == [2.0, -12.0, 8.0]
        p = CoronaParams(4, 6, 3, 0, 0, 1, 0)
        assert _excess(p)[0] == [2.0, -6.0, 3.0]

    def test_excess_roots_real_in_range(self):
        for p in (K4P2P2, CoronaParams(4, 6, 3, 0, 0, 5, 2), CoronaParams(6, 9, 3, 0, 0, 3, 0)):
            coeffs, quotient = _excess(p)
            roots = np.linalg.eigvalsh(quotient)
            assert len(roots) == len(coeffs) - 1 == 2
            assert all(-1e-12 <= t <= 2 + 1e-12 for t in roots)


def _fixed_value(eig, degree):
    """The first copy's fixed family value for a copy-graph eigenvalue eig,
    with the copy graph's zero in a group of its own, over C4."""
    p = CoronaParams(4, 4, 2, degree + 1, degree, 0, 0)
    copy = ((0.0, 1), (eig, degree))
    base = ((0.0, 1), (1.0, 2), (2.0, 1))
    (family,) = closed_form_from_spectra(p, base, copy, ()).fixed_families
    return family.value


class TestFixedFamilyValue:
    def test_golden(self):
        assert _fixed_value(2, 1) == pytest.approx(1.5)

    def test_arithmetic(self):
        assert _fixed_value(0, 5) == pytest.approx(1 / 6)

    def test_fixed_point_at_one(self):
        for r in (1, 2, 7):
            assert _fixed_value(1, r) == pytest.approx(1.0)


def _eigenvalues(quotient):
    return sorted(np.linalg.eigvalsh(np.array(quotient)))


class TestRealRoots:
    """The roots of the printed polynomials, read off as quotient eigenvalues."""

    def test_golden_quartic(self):
        expect = sorted([1 / 6, (3 - math.sqrt(3)) / 4, (3 + math.sqrt(3)) / 4, 3 / 2])
        assert _eigenvalues(_roots(K3P2P2, Fraction(3, 2))[1]) == pytest.approx(expect, abs=1e-12)

    def test_golden_quartic_mu_zero(self):
        expect = sorted([0, (7 - math.sqrt(13)) / 12, (7 + math.sqrt(13)) / 12, 3 / 2])
        assert _eigenvalues(_roots(K3P2P2, 0)[1]) == pytest.approx(expect, abs=1e-12)

    def test_simple_quadratic(self):
        # 8x^2 - 12x + 2, the golden excess quadratic
        expect = [(3 - math.sqrt(5)) / 4, (3 + math.sqrt(5)) / 4]
        assert _eigenvalues(_excess(K4P2P2)[1]) == pytest.approx(expect, abs=1e-12)

    def test_linear(self):
        # the vertex corona's excess factor is 2(x - 1): a 1x1 quotient
        cfs = closed_form_spectrum(generate("complete", 4), generate("path", 2), generate("null"))
        assert cfs.excess.coefficients[0].tolist() == [-2.0, 2.0]
        assert cfs.excess.quotients[0].tolist() == [[1.0]]

    def test_random_battery(self):
        # seeded battery over random regular parameters and base eigenvalues:
        # the quotient eigenvalues are the printed polynomial's roots
        rng = np.random.default_rng(424242)
        checked = 0
        while checked < 150:
            r = int(rng.integers(2, 7))
            n = int(rng.integers(r + 1, 13))
            n1, n2 = (int(v) for v in rng.integers(0, 6, 2))
            if n * r % 2:
                continue
            r1 = int(rng.integers(0, n1)) if n1 else 0
            r2 = int(rng.integers(0, n2)) if n2 else 0
            p = CoronaParams(n, n * r // 2, r, n1, r1, n2, r2)
            mu = float(rng.uniform(0, 2))
            coeffs, quotient = _roots(p, mu)
            expect = np.sort(np.polynomial.polynomial.polyroots(coeffs).real)
            got = _eigenvalues(quotient)
            assert len(got) == len(expect)
            if np.min(np.diff(expect)) < 1e-3:
                continue
            assert np.max(np.abs(np.array(got) - expect)) < 1e-9
            checked += 1


def _exact_quotient(p, mu, rows):
    """I - M with the quotient entries in exact sympy arithmetic; rows index
    old vertex, new vertex, first copy, second copy."""
    rat, sqrt = sympy.Rational, sympy.sqrt
    d0, de = 2 * p.r + p.n1, 2 + p.n2
    m = sympy.zeros(4, 4)
    m[0, 0] = p.r * (1 - mu) / d0
    m[0, 1] = m[1, 0] = sqrt(p.r * (2 - mu) / (d0 * de))
    m[0, 2] = m[2, 0] = sqrt(rat(p.n1, d0 * (p.r1 + 1)))
    m[2, 2] = rat(p.r1, p.r1 + 1)
    m[1, 3] = m[3, 1] = sqrt(rat(p.n2, de * (p.r2 + 1)))
    m[3, 3] = rat(p.r2, p.r2 + 1)
    return sympy.eye(len(rows)) - m.extract(rows, rows)


def _assert_char_poly_multiple(row, exact_q):
    """A table row's ascending coefficients are a positive multiple of
    det(xI - Q), exactly, and its quotient is Q to 1e-15."""
    coefficients, float_q = row
    x = sympy.Symbol("x")
    char = exact_q.charpoly(x)
    target = sympy.Poly([sympy.Rational(c) for c in reversed(coefficients)], x)
    ratio = target.LC() / char.LC()
    assert ratio > 0
    assert target.all_coeffs() == [ratio * c for c in char.all_coeffs()]
    exact = np.array(exact_q.evalf(30).tolist(), dtype=float)
    assert np.max(np.abs(np.array(float_q) - exact)) <= 1e-15


_EXACT_GRID = [K3P2P2] + [
    CoronaParams(n, m, r, n1, r1, n2, r2)
    for (n, m, r), (n1, r1), (n2, r2) in itertools.product(
        [(4, 4, 2), (4, 6, 3), (10, 15, 3)], [(1, 0), (3, 2)], [(2, 1), (4, 3)]
    )
]


class TestQuotientExact:
    """Each printed factor is a positive multiple of the characteristic
    polynomial of its quotient matrix, in exact arithmetic.  The grid's bases
    with m > n carry the excess family for every second copy graph."""

    @pytest.mark.parametrize("p", _EXACT_GRID, ids=lambda p: "-".join(map(str, dataclasses.astuple(p))))
    def test_factors(self, p):
        vertex, edge, bare = _vertex(p), _edge(p), _bare(p)
        for f in (Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(2)):
            mu = sympy.Rational(f.numerator, f.denominator)
            for q, rows in ((p, [0, 1, 2, 3]), (vertex, [0, 1, 2]), (edge, [0, 1, 3]), (bare, [0, 1])):
                _assert_char_poly_multiple(_roots(q, f), _exact_quotient(q, mu, rows))
        if p.m > p.n:
            for q, rows in ((p, [1, 3]), (vertex, [1]), (edge, [1, 3]), (bare, [1])):
                _assert_char_poly_multiple(_excess(q), _exact_quotient(q, 2, rows))


class TestParams:
    def test_from_graphs(self):
        p = CoronaParams.from_graphs(generate("complete", 3), generate("path", 2), generate("null"))
        assert p == CoronaParams(3, 3, 2, 2, 1, 0, 0)

    def test_irregular_base_rejected(self):
        with pytest.raises(HypothesisError):
            CoronaParams.from_graphs(generate("complete_bipartite", 1, 2), generate("null"), generate("null"))

    def test_irregular_copy_rejected(self):
        with pytest.raises(HypothesisError):
            CoronaParams.from_graphs(
                generate("complete", 3), generate("complete_bipartite", 1, 2), generate("null")
            )

    def test_inconsistent_m(self):
        with pytest.raises(HypothesisError):
            CoronaParams(3, 4, 2, 0, 0, 0, 0)

    def test_zero_degree_base_rejected(self):
        with pytest.raises(HypothesisError):
            CoronaParams(3, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("fields, message", [
        ((0, 0, 1, 0, 0, 0, 0), "n >= 1"),
        ((3, 3, 2, -1, 0, 0, 0), "first attachment graph has negative parameters"),
        ((3, 3, 2, 0, 0, 2, -1), "second attachment graph has negative parameters"),
        ((3, 3, 2, 2, 2, 0, 0), "first attachment graph degree 2 exceeds 1"),
        ((3, 3, 2, 0, 0, 3, 3), "second attachment graph degree 3 exceeds 2"),
    ], ids=["n0", "n1-negative", "r2-negative", "r1-too-large", "r2-too-large"])
    def test_direct_construction_refusals(self, fields, message):
        with pytest.raises(HypothesisError, match=message):
            CoronaParams(*fields)

    def test_total(self):
        assert K3P2P2.total_vertices == 18


def _oracle_check(g, g1, g2, tol=1e-8):
    corona, _ = double_corona(g, g1, g2)
    closed = flatten(closed_form_spectrum(g, g1, g2))
    numeric = nl_spectrum(corona)
    report = compare_spectra(closed, numeric, tol)
    assert report.matched, report.reason
    assert len(closed) == corona.vertex_count
    total = corona.vertex_count
    assert abs(math.fsum(closed.values) - total) <= 1e-7 * total
    assert sum(1 for v in closed.values if abs(v) <= 1e-9) == 1
    assert all(-1e-9 <= v <= 2 + 1e-9 for v in closed.values)
    return closed


class TestSpectrumAssembly:
    def test_golden_18_values(self):
        closed = _oracle_check(generate("complete", 3), generate("path", 2), generate("path", 2))
        golden = sorted(
            [0.0]
            + [1 / 6] * 2
            + [1.5] * 9
            + [(3 - math.sqrt(3)) / 4] * 2
            + [(3 + math.sqrt(3)) / 4] * 2
            + [(7 - math.sqrt(13)) / 12, (7 + math.sqrt(13)) / 12]
        )
        assert closed.values == pytest.approx(golden, abs=1e-9)

    def test_c4_k1_k1(self):
        closed = _oracle_check(generate("cycle", 4), generate("complete", 1), generate("complete", 1))
        assert len(closed) == 16  # 4 + 4 + 4*1 + 4*1

    def test_petersen_k3_c4(self):
        closed = _oracle_check(generate("petersen"), generate("complete", 3), generate("cycle", 4))
        assert len(closed) == 115

    def test_vertex_corona_c5_k1(self):
        g, g1 = generate("cycle", 5), generate("complete", 1)
        corona, _ = double_corona(g, g1, generate("null"))
        closed = flatten(closed_form_spectrum(g, g1, generate("null")))
        assert compare_spectra(closed, nl_spectrum(corona), 1e-8).matched
        assert len(closed) == 15

    def test_edge_corona_c6_p2(self):
        g, g2 = generate("cycle", 6), generate("path", 2)
        corona, _ = double_corona(g, generate("null"), g2)
        closed = flatten(closed_form_spectrum(g, generate("null"), g2))
        assert compare_spectra(closed, nl_spectrum(corona), 1e-8).matched

    def test_disconnected_copy_graph_accepted(self):
        # two disjoint triangles as the first copy graph: extra zero
        # eigenvalues flow into the fixed family as written
        two_k3 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        _oracle_check(generate("cycle", 4), two_k3, generate("path", 2))

    def test_edgeless_copy_graph_accepted(self):
        empty2 = build_graph(2, [])
        _oracle_check(generate("cycle", 4), empty2, generate("complete", 3))

    def test_bases_beyond_sweep_catalog(self):
        # base families exercising other degree/size mixes, including a
        # disconnected 2-regular attachment (two triangles as a circulant)
        two_c3 = generate("circulant", 6, 2)
        _oracle_check(generate("complete_bipartite", 4, 4), generate("complete", 2), two_c3)
        _oracle_check(generate("hypercube", 3), two_c3, build_graph(3, []))
        _oracle_check(generate("circulant", 8, 1, 2), generate("cycle", 5), generate("complete", 4))
        _oracle_check(generate("shrikhande"), generate("complete", 1), generate("complete", 2))

    def test_m_less_than_n_rejected(self):
        k2 = generate("complete", 2)
        p2 = generate("path", 2)
        with pytest.raises(HypothesisError, match="m<n unsupported"):
            closed_form_spectrum(k2, p2, p2)

    def test_closed_form_spectrum_refuses_fewer_edges_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr("rcorona.closedform._refuse_fewer_edges",
                            lambda p: calls.append(p) or _refuse_fewer_edges(p))
        closed_form_spectrum(generate("cycle", 5), generate("complete", 4), generate("cycle", 5))
        assert len(calls) == 1

    def test_router(self):
        k3, p2, null = generate("complete", 3), generate("path", 2), generate("null")
        assert closed_form_spectrum(k3, p2, null).excess is None
        assert closed_form_spectrum(k3, null, p2).roots.degree == 3
        assert closed_form_spectrum(k3, p2, p2).roots.degree == 4
        assert closed_form_spectrum(k3, null, null).roots.degree == 2
        _oracle_check(k3, null, null)

    def test_disconnected_base_rejected(self):
        two_k3 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(HypothesisError, match="connected"):
            closed_form_spectrum(two_k3, generate("path", 2), generate("null"))


@st.composite
def _circulant(draw, sizes):
    n = draw(sizes)
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=2))
    return generate("circulant", n, *jumps)


_ATTACHMENTS = st.one_of(
    st.just(generate("null")),
    st.integers(1, 4).map(lambda k: generate("complete", k)),
    st.integers(3, 5).map(lambda k: generate("cycle", k)),
    _circulant(st.integers(4, 5)),
    st.integers(2, 4).map(lambda k: build_graph(k, [])),
)


def _poly_residual(coefficients, x):
    """|p(x)| for the ascending coefficients of p, relative to the coefficient
    magnitudes weighted by max(1, |x|)^i, a scale that stays away from zero
    at a root x = 0."""
    value = math.fsum(c * x**i for i, c in enumerate(coefficients))
    return abs(value) / math.fsum(abs(c) * max(1.0, abs(x)) ** i for i, c in enumerate(coefficients))


class TestRouteIndependence:
    """The closed form and the numeric oracle share no eigensolver."""

    @pytest.mark.parametrize("attach", [("complete", 3), ("cycle", 4)])
    def test_closed_form_never_calls_the_oracle(self, monkeypatch, attach):
        g, g1, g2 = generate("petersen"), generate(*attach), generate("cycle", 4)

        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form called the numeric oracle")

        # the oracle's one entry: every numeric eigensolve goes through it
        with monkeypatch.context() as patch:
            patch.setattr("rcorona.oracle.eigenvalues", forbidden)
            closed = flatten(closed_form_spectrum(g, g1, g2))
        corona, _ = double_corona(g, g1, g2)
        report = compare_spectra(closed, nl_spectrum(corona), 1e-8)
        assert report.matched, report.reason


class TestFamilyLabels:
    @pytest.mark.parametrize(
        "g, g1, g2",
        [
            (("petersen",), ("complete", 3), ("cycle", 4)),
            (("cycle", 500), ("complete", 4), ("cycle", 5)),
        ],
    )
    def test_labels_carry_no_solver_noise(self, g, g1, g2):
        printed = closed_form_spectrum(generate(*g), generate(*g1), generate(*g2)).to_dict()
        # Petersen's zero comes out of LAPACK as about -3e-16 and rounds to
        # -0.0; C_500's spectrum comes from its structure
        assert printed["roots"][0]["label"] == "base eigenvalue 0"
        for label in (fam["label"] for fam in printed["fixed"] + printed["roots"]):
            value = float(label.rpartition(" ")[2])
            assert value == round(value, 9) and "e-1" not in label, label


def _scalar_family(p, mu, first):
    """The reference for one row of the family table, one number at a time:
    the continuant's coefficients and the quotient's rows (old vertex, new
    vertex, first copy, second copy), with the classes first copy, old
    vertex, new vertex, second copy from path position ``first`` on."""
    w = (p.r1 + 1, 2 * p.r + p.n1, 2 + p.n2, p.r2 + 1)
    a = (p.r1, p.r * (1 - mu), 0, p.r2)
    c = (p.n1, max(p.r * (2 - mu), 0), p.n2)
    classes = range(max(first, 0 if p.n1 else 1), 4 if p.n2 else 3)
    prev, cur = [], [1]
    for k in classes:
        nxt = [0] * (len(cur) + 1)
        for i, coef in enumerate(cur):
            nxt[i] += (a[k] - w[k]) * coef
            nxt[i + 1] += w[k] * coef
        for i, coef in enumerate(prev):
            nxt[i] -= c[k - 1] * coef
        prev, cur = cur, nxt
    m = [[0.0] * 4 for _ in range(4)]
    for k in classes:
        m[k][k] = a[k] / w[k]
        if k + 1 in classes:
            m[k][k + 1] = m[k + 1][k] = math.sqrt(c[k] / (w[k] * w[k + 1]))
    rows = [k for k in (1, 2, 0, 3) if k in classes]
    return cur, [[float(i == j) - float(m[i][j]) for j in rows] for i in rows]


@st.composite
def _params(draw):
    """Corona parameters with m >= n, either copy graph possibly null."""
    r = draw(st.integers(2, 6))
    n = draw(st.integers(r + 1, 12).filter(lambda n: n * r % 2 == 0))
    copies = []
    for _ in range(2):
        size = draw(st.integers(0, 5))
        copies += size, draw(st.integers(0, size - 1)) if size else 0
    return CoronaParams(n, n * r // 2, r, *copies)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestFamilyTable:
    """The family table against the scalar reference, and the views and
    JSON built from it."""

    @settings(max_examples=100, deadline=None)
    @given(p=_params(), mus=st.lists(st.floats(0, 2), min_size=1, max_size=8, unique=True))
    def test_rows_bit_equal_to_reference(self, p, mus):
        cfs = closed_form_from_spectra(p, *_groups_for(p, mus))
        cases = [(cfs.roots, row, mu, 0) for row, mu in enumerate(cfs.roots.mu.tolist())]
        if cfs.excess is not None:
            cases.append((cfs.excess, 0, 2, 2))
        assert cfs.roots.coefficients.dtype == cfs.roots.quotients.dtype == np.float64
        for table, row, mu, first in cases:
            coeffs, reference_q = _scalar_family(p, mu, first)
            assert _bits(table.coefficients[row]) == _bits(coeffs)
            assert _bits(table.quotients[row]) == _bits(reference_q)
        # one printed polynomial is one row of the table
        for row, mu in enumerate(cfs.roots.mu.tolist()):
            assert _bits(family_polynomial(p, mu).coefficients) == _bits(cfs.roots.coefficients[row])

    @settings(max_examples=40, deadline=None)
    @given(p=_params(), mus=st.lists(st.floats(0, 2), min_size=1, max_size=8, unique=True))
    def test_views_match_the_table(self, p, mus):
        # the fields a tracer reads: one view per row, and each degree
        cfs = closed_form_from_spectra(p, *_groups_for(p, mus))
        views = cfs.root_families
        assert len(views) == len(cfs.roots.mu)
        assert [f.poly.degree for f in views] == [cfs.roots.degree] * len(views)
        assert [f.multiplicity for f in views] == cfs.roots.multiplicity.tolist()
        if cfs.excess is None:
            assert cfs.excess_family is None
        else:
            assert cfs.excess_family.poly.degree == cfs.excess.degree
            assert cfs.excess_family.multiplicity == p.m - p.n
        printed = cfs.to_dict()
        assert [f.label for f in views] == [f["label"] for f in printed["roots"]]

    @pytest.mark.parametrize("p, exact", [
        (K3P2P2, ((0, 1), (Fraction(3, 2), 2))),
        # K_{4,4}: m > n, so the excess row is printed too
        (CoronaParams(8, 16, 4, 2, 1, 2, 1), ((0, 1), (1, 6), (2, 1))),
    ], ids=["K3-Fraction", "K44-int"])
    def test_exact_mu_prints_as_its_float_twin(self, p, exact):
        copies = ((0, 1), (2, 1)), ((0, 1), (Fraction(2), 1))
        cfs = closed_form_from_spectra(p, exact, *copies)
        assert cfs.roots.coefficients.dtype == object
        twin = closed_form_from_spectra(p, *(tuple((float(v), c) for v, c in groups)
                                             for groups in (exact, *copies)))
        assert twin.roots.coefficients.dtype == np.float64
        assert json.dumps(cfs.to_dict()) == json.dumps(twin.to_dict())

    @settings(max_examples=40, deadline=None)
    @given(p=_params(), mu=st.fractions(0, 2, max_denominator=60))
    def test_fraction_mu_gives_exact_coefficients(self, p, mu):
        cfs = closed_form_from_spectra(p, *_groups_for(p, [mu, 1]))
        assert cfs.roots.coefficients.dtype == object
        for table, value, first in ((cfs.roots, mu, 0), (cfs.excess, 2, 2)):
            if table is None:
                continue
            got = table.coefficients[0].tolist()
            assert all(isinstance(coef, (int, Fraction)) for coef in got)
            assert got == _scalar_family(p, value, first)[0]
            # the leading coefficient, the product of the class degrees,
            # times the exact quotient's characteristic polynomial; rows
            # index old vertex, new vertex, first copy, second copy
            rows = [1] + [3] * (p.n2 > 0)
            if not first:
                rows = [0] + rows + [2] * (p.n1 > 0)
            value = Fraction(value)
            exact = _exact_quotient(p, sympy.Rational(value.numerator, value.denominator), rows)
            char = exact.charpoly(sympy.Symbol("x")).all_coeffs()[::-1]
            assert [sympy.Rational(coef) for coef in got] == [got[-1] * coef for coef in char]

    @settings(max_examples=40, deadline=None)
    @given(g=st.one_of(st.integers(3, 12).map(lambda n: generate("cycle", n)),
                       _circulant(st.integers(5, 12))),
           g1=_ATTACHMENTS, g2=_ATTACHMENTS, seed=st.integers(0, 2**16))
    def test_relabelling_leaves_the_table_unchanged(self, g, g1, g2, seed):
        assume(g.connected)
        cfs = closed_form_spectrum(g, g1, g2)
        real, orders = normalized_laplacian, []

        def counted(h):
            orders.append(h.vertex_count)
            return real(h)

        with mock.patch("rcorona.closedform.normalized_laplacian", counted):
            moved = closed_form_spectrum(*(_relabelled(h, seed + i) for i, h in enumerate((g, g1, g2))))
        if not orders:
            # every input spectrum came from structure
            assert moved == cfs
            return
        # LAPACK's last bits may follow the labelling
        for a, b in zip(moved.fixed_families, cfs.fixed_families, strict=True):
            assert (a.label, a.multiplicity) == (b.label, b.multiplicity)
            assert abs(a.value - b.value) <= 1e-12
        for a, b in zip(moved.to_dict()["roots"], cfs.to_dict()["roots"], strict=True):
            assert (a["label"], a["mult"]) == (b["label"], b["mult"])
        assert moved.roots.coefficients.shape == cfs.roots.coefficients.shape
        assert np.allclose(moved.roots.coefficients, cfs.roots.coefficients, rtol=1e-12, atol=1e-10)
        assert moved.excess == cfs.excess
        assert np.allclose(flatten(moved).values, flatten(cfs).values, rtol=0, atol=1e-12)


class TestRandomCoronas:
    """Random connected circulant bases with random regular attachments."""

    @settings(max_examples=50, deadline=None)
    @given(g=_circulant(st.integers(3, 12)), g1=_ATTACHMENTS, g2=_ATTACHMENTS)
    def test_closed_form_against_oracle(self, g, g1, g2):
        assume(g.connected)
        assert g.edge_count >= g.vertex_count
        _oracle_check(g, g1, g2)
        cfs = closed_form_spectrum(g, g1, g2)
        for table in (cfs.roots, cfs.excess):
            if table is None:
                continue
            for mu, coeffs, quotient in zip(table.mu.tolist(), table.coefficients.tolist(),
                                            table.quotients):
                for x in np.linalg.eigvalsh(quotient):
                    assert _poly_residual(coeffs, float(x)) <= 1e-9, mu


def _table(coefficients, quotients):
    """A family table of hand-made float rows, each of multiplicity 1."""
    g = len(coefficients)
    return FamilyTable(np.zeros(g), np.ones(g, dtype=np.int64), coefficients, quotients)


_NO_ROOTS = _table(np.zeros((0, 1)), np.zeros((0, 0, 0)))


class TestFlatten:
    def test_empty(self):
        s = flatten(ClosedFormSpectrum((), _NO_ROOTS, None))
        assert np.array_equal(s.values, [])

    def test_single_fixed_family(self):
        s = flatten(ClosedFormSpectrum((FixedFamily(0.25, 3, "x"),), _NO_ROOTS, None))
        assert np.array_equal(s.values, [0.25, 0.25, 0.25])

    def test_missing_real_roots_is_internal_error(self):
        # a 1x1 quotient yields one root where the quadratic is owed two
        broken = _table(np.array([[1.0, 0.0, 1.0]]), np.array([[[1.0]]]))
        with pytest.raises(InternalConsistencyError, match="1x1 quotients for degree 2"):
            flatten(ClosedFormSpectrum((), broken, None))

    def test_json_shape(self):
        cfs = closed_form_spectrum(generate("complete", 3), generate("path", 2), generate("path", 2))
        obj = json.loads(json.dumps(cfs.to_dict()))
        assert set(obj) == {"fixed", "roots", "excess"}
        assert obj["excess"] is None  # m == n for K3
        assert all(set(f) == {"value", "mult", "label"} for f in obj["fixed"])
        assert all(set(f) == {"coeffs", "mult", "label"} for f in obj["roots"])

    def test_excess_present_when_m_exceeds_n(self):
        cfs = closed_form_spectrum(generate("complete", 4), generate("path", 2), generate("path", 2))
        assert cfs.excess is not None
        assert cfs.excess.multiplicity.tolist() == [2]  # m - n = 6 - 4


def _expanded(cfs):
    """The values as the families expand them, each eigenvalue repeated by
    its multiplicity, fixed families first, in one stable sort: the order
    that flatten and the runs must keep, -0.0 and 0.0 included."""
    parts = [np.repeat(np.array([f.value for f in cfs.fixed_families], dtype=float),
                       [f.multiplicity for f in cfs.fixed_families])]
    for table in (cfs.roots, cfs.excess):
        if table is not None:
            parts.append(np.repeat(np.linalg.eigvalsh(table.quotients).ravel(),
                                   np.repeat(table.multiplicity, table.degree)))
    return np.sort(np.concatenate(parts), kind="stable")


def _written(cfs, chunk, block=_FIXED_CHUNK):
    """What the run writer prints of cfs, and its pieces, with chunk lines
    per piece at most and the runs formatted block at a time."""
    pieces = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rcorona.spectra._WRITE_CHUNK", chunk)
        patch.setattr("rcorona.spectra._FIXED_CHUNK", block)
        _write_runs(*cfs.runs(), pieces.append)
    return "".join(pieces), pieces


@st.composite
def _run_triples(draw):
    """Regular triples over every source of input spectra: cycles and
    complete graphs from structure, circulants and bipartite bases (whose
    2 is raised) from LAPACK, null and edgeless copies, and bases with
    m > n (the excess family)."""
    base = draw(st.one_of(
        st.integers(3, 40).map(lambda n: _relabelled(generate("cycle", n), n)),
        st.integers(3, 8).map(lambda n: generate("complete", n)),
        _circulant(st.integers(5, 14)).filter(lambda g: g.connected and g.edge_count >= g.vertex_count),
        _bipartite_bases(),
    ))
    copies = st.one_of(_ATTACHMENTS, st.just(generate("complete_bipartite", 3, 3)))
    return base, draw(copies), draw(copies)


class TestRuns:
    """Plain closed-form output printed from its runs, against the expanded
    spectrum's ``to_csv`` and a scalar reference."""

    @settings(max_examples=80, deadline=None)
    @given(triple=_run_triples(), chunk=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]),
           block=st.sampled_from([1, 2, 5, 64, _FIXED_CHUNK]))
    def test_runs_print_the_expanded_spectrum(self, triple, chunk, block):
        cfs = closed_form_spectrum(*triple)
        text, pieces = _written(cfs, chunk, block)
        expanded = _expanded(cfs)
        assert flatten(cfs).values.tobytes() == expanded.tobytes()
        assert text == flatten(cfs).to_csv() == "".join(f"{v:.17g}\n" for v in expanded.tolist())
        assert all(0 < piece.count("\n") <= chunk for piece in pieces)

    def test_signed_zeros_and_shared_bits_across_families(self):
        # 0.0 and -0.0 from fixed, root and excess families, each where the
        # stable sort puts it; neighbours with equal bits print as one run,
        # 0.5 from a fixed family and a root among them
        fixed = (FixedFamily(0.0, 2, "a"), FixedFamily(-0.0, 3, "b"), FixedFamily(0.5, 1, "c"))
        roots = FamilyTable(np.zeros(3), np.array([4, 5, 6]), np.zeros((3, 2)),
                            np.array([[[-0.0]], [[0.0]], [[0.5]]]))
        excess = FamilyTable(np.zeros(1), np.array([7]), np.zeros((1, 2)), np.array([[[-0.0]]]))
        cfs = ClosedFormSpectrum(fixed, roots, excess)
        values, counts = cfs.runs()
        assert values.tobytes() == np.array([0.0, -0.0, -0.0, 0.0, -0.0, 0.5, 0.5]).tobytes()
        assert counts.tolist() == [2, 3, 4, 5, 7, 1, 6]
        text, pieces = _written(cfs, 4, 3)
        assert text == "0\n" * 2 + "-0\n" * 7 + "0\n" * 5 + "-0\n" * 7 + "0.5\n" * 7
        assert text == flatten(cfs).to_csv()
        # the five runs formatted three at a time (14 and 14 lines), each
        # block longer than a piece of four lines written run by run
        assert [piece.count("\n") for piece in pieces] == [2, 4, 3, 4, 1, 4, 3, 4, 3]

    def test_a_long_run_takes_several_pieces(self):
        pieces = []
        _write_runs(np.array([0.25, 1.0]), np.array([3 * _WRITE_CHUNK + 5, 2]), pieces.append)
        assert [piece.count("\n") for piece in pieces] == [_WRITE_CHUNK] * 3 + [5, 2]
        assert "".join(pieces) == "0.25\n" * (3 * _WRITE_CHUNK + 5) + "1\n" * 2


def _relabelled(g, seed):
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.ends.tolist()])


def _forbid_lapack_inputs(monkeypatch):
    def forbidden(g):
        raise AssertionError(f"an input spectrum of order {g.vertex_count} went to LAPACK")

    monkeypatch.setattr("rcorona.closedform.normalized_laplacian", forbidden)


def _pairs(groups):
    """_spectrum_groups' (values, counts) arrays as closed_form_from_spectra's
    (value, multiplicity) pairs."""
    return tuple(zip(*(a.tolist() for a in groups)))


# the A03 sweep's grid
_GRID_BASES = [("complete", 3), ("complete", 4), ("cycle", 4), ("cycle", 5), ("cycle", 6),
               ("petersen",), ("complete_bipartite", 3, 3)]
_GRID_COPIES = [("null",), ("complete", 1), ("path", 2), ("complete", 3), ("cycle", 4)]


def _lapack_groups(g):
    if g.edge_count == 0:
        return ((0.0, g.vertex_count),) if g.vertex_count else ()
    return summarize(Spectrum(np.linalg.eigvalsh(normalized_laplacian(g))), 1e-9)


class TestStructuralSpectra:
    """Input spectra taken from structure, against LAPACK at 1e-12."""

    @pytest.mark.parametrize("graphs, degree", [
        ([generate("cycle", n) for n in range(3, 61)]
         + [_relabelled(generate("cycle", n), n) for n in range(3, 61)], 2),
        ([generate("complete", n) for n in range(1, 31)], None),
        ([generate("path", 2)], 1),
    ], ids=["C3-C60", "K1-K30", "P2"])
    def test_against_lapack(self, monkeypatch, graphs, degree):
        expected = [np.linalg.eigvalsh(normalized_laplacian(g)) if g.edge_count else [0.0]
                    for g in graphs]
        _forbid_lapack_inputs(monkeypatch)
        for g, want in zip(graphs, expected):
            n = g.vertex_count
            values, counts = _spectrum_groups(g, n - 1 if degree is None else degree)
            assert values.dtype == np.float64 and counts.dtype == np.int64
            assert values.tolist() == sorted(set(values.tolist())) and counts.sum() == n
            assert np.max(np.abs(np.repeat(values, counts) - want)) <= 1e-12, n

    def test_disconnected_cycle_copy_falls_back_to_lapack(self, monkeypatch):
        real, orders = normalized_laplacian, []

        def counted(g):
            orders.append(g.vertex_count)
            return real(g)

        monkeypatch.setattr("rcorona.closedform.normalized_laplacian", counted)
        two_c4 = generate("circulant", 8, 2)
        _oracle_check(generate("cycle", 6), two_c4, generate("complete", 3))
        assert orders == [8]

    @pytest.mark.parametrize("base", [("cycle", 7), ("cycle", 500), ("complete", 6)])
    def test_cycle_and_complete_bases_skip_lapack(self, monkeypatch, base):
        g = _relabelled(generate(*base), 1)
        g1, g2 = generate("complete", 4), generate("cycle", 5)
        with monkeypatch.context() as patch:
            _forbid_lapack_inputs(patch)
            cfs = closed_form_spectrum(g, g1, g2)
        want = closed_form_from_spectra(
            CoronaParams.from_graphs(g, g1, g2), _lapack_groups(g), _lapack_groups(g1),
            _lapack_groups(g2))
        assert np.allclose(flatten(cfs).values, flatten(want).values, rtol=0, atol=1e-12)

    def test_from_spectra_on_the_sweep_grid(self):
        for base, c1, c2 in itertools.product(_GRID_BASES, _GRID_COPIES, _GRID_COPIES):
            g, g1, g2 = generate(*base), generate(*c1), generate(*c2)
            p = CoronaParams.from_graphs(g, g1, g2)
            groups = [_pairs(_spectrum_groups(g, p.r)), _pairs(_spectrum_groups(g1, p.r1)),
                      _pairs(_spectrum_groups(g2, p.r2))]
            cfs = closed_form_spectrum(g, g1, g2)
            assert closed_form_from_spectra(p, *groups) == cfs
            # the same tables, to rounding, from LAPACK's spectra
            lapack = closed_form_from_spectra(p, _lapack_groups(g), _lapack_groups(g1),
                                              _lapack_groups(g2))
            for a, b in zip(cfs.fixed_families, lapack.fixed_families, strict=True):
                assert (a.label, a.multiplicity) == (b.label, b.multiplicity)
                assert abs(a.value - b.value) <= 1e-12
            for a, b in zip(cfs.to_dict()["roots"], lapack.to_dict()["roots"], strict=True):
                assert (a["label"], a["mult"]) == (b["label"], b["mult"])
            a, b = cfs.roots, lapack.roots
            assert a.quotients.shape == b.quotients.shape
            assert np.allclose(a.coefficients, b.coefficients, rtol=0, atol=1e-12)
            # entries beside a zero are square roots of rounding noise in
            # LAPACK's input, so the quotients are compared by roots
            assert np.allclose(np.linalg.eigvalsh(a.quotients), np.linalg.eigvalsh(b.quotients),
                               rtol=0, atol=1e-12)
            assert cfs.excess == lapack.excess

    def test_from_spectra_checks_multiplicities(self):
        p = CoronaParams.from_graphs(generate("cycle", 4), generate("path", 2), generate("null"))
        with pytest.raises(ValueError, match="do not add up to 4"):
            closed_form_from_spectra(p, ((0.0, 1), (1.0, 2)), ((0.0, 1), (2.0, 1)), ())

    # C3 with P2 (or K3) as the first copy; each input once gave a wrong
    # spectrum, or failed only in flatten
    @pytest.mark.parametrize("p, base, copy, message", [
        # the 2 would be dropped as the zero: fixed value 0.5, not 1.5
        (CoronaParams(3, 3, 2, 2, 1, 0, 0), ((0.0, 1), (1.5, 2)), ((2.0, 1), (0.0, 1)),
         "first copy spectrum's first value 2.0 is not its zero"),
        (CoronaParams(3, 3, 2, 3, 2, 0, 0), ((0.0, 1), (1.5, 2)), ((0.0, 1), (1.5, 1), (1.5, 1)),
         "first copy spectrum's values are not strictly increasing"),
        (CoronaParams(3, 3, 2, 3, 2, 0, 0), ((0.0, 1), (1.5, 2)), ((0.0, 1), (1.5, 1), (0.5, 1)),
         "first copy spectrum's values are not strictly increasing"),
        # the sum holds, and numpy's repeat refused the -1
        (CoronaParams(3, 3, 2, 2, 1, 0, 0), ((0.0, 4), (1.5, -1)), ((0.0, 1), (2.0, 1)),
         "base spectrum has a multiplicity below 1"),
        # a root family of multiplicity 0
        (CoronaParams(3, 3, 2, 2, 1, 0, 0), ((0.0, 1), (1.5, 2), (9.0, 0)), ((0.0, 1), (2.0, 1)),
         "base spectrum has a multiplicity below 1"),
    ], ids=["zero-second", "repeated-value", "decreasing", "negative-multiplicity", "zero-multiplicity"])
    def test_from_spectra_checks_its_contract(self, p, base, copy, message):
        with pytest.raises(ValueError, match=message):
            closed_form_from_spectra(p, base, copy, ())


def _pairing_model(rng, n, r):
    """A connected simple r-regular graph on n vertices from the pairing
    (configuration) model: pair the n*r vertex points uniformly at random,
    and draw again while the pairing has a loop or a repeated edge, or its
    graph is disconnected."""
    while True:
        points = [v for v in range(n) for _ in range(r)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])}
        if len(edges) == n * r // 2 and all(u != v for u, v in edges):
            g = build_graph(n, sorted(edges))
            if g.connected:
                return g


@st.composite
def _pairing_bases(draw):
    r = draw(st.sampled_from((3, 4)))
    # n >= r + 2 leaves out K_(r+1), whose spectrum comes from structure
    n = draw(st.integers(r + 2, 12).filter(lambda k: k * r % 2 == 0))
    return _pairing_model(random.Random(draw(st.integers(0, 2**32 - 1))), n, r)


class TestPairingModelBases:
    """Random regular bases that are not drawn as circulants, so their
    spectra go to LAPACK, with the A03 sweep's copy graphs."""

    @settings(max_examples=40, deadline=None)
    @given(_pairing_bases(), st.sampled_from(_GRID_COPIES), st.sampled_from(_GRID_COPIES))
    def test_closed_form_against_oracle(self, g, c1, c2):
        assert g.regular_degree in (3, 4) and g.vertex_count <= 12
        _oracle_check(g, generate(*c1), generate(*c2), tol=_MATCH_TOL)


# ROADMAP item 1's parameter sets where the quotient's two blocks at mu = 2
# share an eigenvalue, so that any coupling between them splits a double root
_DEGENERATE_COPIES = {6: (("complete", 6), ("circulant", 4, 2)), 3: (("cycle", 12), ("circulant", 4, 2))}


@st.composite
def _bipartite_bases(draw):
    """Connected bipartite regular bases whose spectra go to LAPACK:
    K_{a,a}, the 3-cube, and even circulants with odd jumps."""
    kind = draw(st.sampled_from(("complete_bipartite", "hypercube", "circulant")))
    if kind == "complete_bipartite":
        a = draw(st.integers(3, 6))
        return generate(kind, a, a)
    if kind == "hypercube":
        return generate(kind, 3)
    half = draw(st.integers(3, 8))
    jumps = draw(st.sets(st.sampled_from(range(1, half + 1, 2)), min_size=2, max_size=3))
    return generate(kind, 2 * half, *jumps)


class TestBipartiteBases:
    """A connected bipartite base has the base eigenvalue 2 exactly, and the
    closed form must use it exactly: LAPACK's 2 - 3e-15 would couple the
    quotient's blocks by about 1e-8."""

    def test_k66_with_k6_and_2k2(self):
        g, g1, g2 = generate("complete_bipartite", 6, 6), generate("complete", 6), generate("circulant", 4, 2)
        corona, _ = double_corona(g, g1, g2)
        assert corona.vertex_count == 264
        report = compare_spectra(flatten(closed_form_spectrum(g, g1, g2)), nl_spectrum(corona), 1e-12)
        assert report.matched, report.reason

    @pytest.mark.parametrize("family, params, degree, largest, raised", [
        ("complete_bipartite", (4, 4), 4, 2 - 3.3e-15, True),
        ("complete_bipartite", (4, 4), 4, 2 + 4.4e-16, False),
        # not bipartite, or not connected (4K2, whose 2 is fourfold)
        ("petersen", (), 3, 2 - 3.3e-15, False),
        ("circulant", (8, 4), 1, 2 - 3.3e-15, False),
    ])
    def test_largest_value_raised_never_lowered(self, monkeypatch, family, params, degree, largest,
                                                raised):
        g = generate(family, *params)
        values = np.linalg.eigvalsh(normalized_laplacian(g))
        values[-1] = largest
        monkeypatch.setattr("numpy.linalg.eigvalsh", lambda a: values.copy())
        value = _spectrum_groups(g, degree)[0][-1]
        assert value == 2.0 if raised else value != 2.0 and (value < 2) == (largest < 2)

    @settings(max_examples=25, deadline=None)
    @given(_bipartite_bases(), st.sampled_from(_GRID_COPIES), st.sampled_from(_GRID_COPIES),
           st.booleans())
    def test_closed_form_against_oracle(self, g, c1, c2, degenerate):
        r = g.regular_degree
        assert g.connected and g.bipartite and 3 <= r < g.vertex_count - 1
        if degenerate and r in _DEGENERATE_COPIES:
            c1, c2 = _DEGENERATE_COPIES[r]
        g1, g2 = generate(*c1), generate(*c2)
        report = compare_spectra(flatten(closed_form_spectrum(g, g1, g2)),
                                 nl_spectrum(double_corona(g, g1, g2)[0]), 1e-12)
        assert report.matched, report.reason
