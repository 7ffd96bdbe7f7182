"""Closed-form spectrum machinery: scalar pieces, polynomial factors,
quotient matrices, and oracle equivalence against the numeric eigensolver."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rcorona import (
    ClosedFormSpectrum,
    CoronaParams,
    FixedFamily,
    HypothesisError,
    InternalConsistencyError,
    RealPolynomial,
    RootFamily,
    build_graph,
    closed_form_spectrum,
    compare_spectra,
    copy_block_forms,
    double_corona,
    excess_polynomial,
    excess_quotient,
    family_polynomial,
    fixed_family_value,
    flatten,
    generate,
    is_connected,
    nl_spectrum,
    normalized_laplacian,
    quotient_matrix,
)

K3P2P2 = CoronaParams(n=3, m=3, r=2, n1=2, r1=1, n2=2, r2=1)


def _vertex(p):
    return dataclasses.replace(p, n2=0, r2=0)


def _edge(p):
    return dataclasses.replace(p, n1=0, r1=0)


def _bare(p):
    return dataclasses.replace(p, n1=0, r1=0, n2=0, r2=0)


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
        assert excess_polynomial(K3P2P2).coefficients == (2.0, -12.0, 8.0)
        p = CoronaParams(3, 3, 2, 0, 0, 1, 0)
        assert excess_polynomial(p).coefficients == (2.0, -6.0, 3.0)

    def test_excess_roots_real_in_range(self):
        for p in (K3P2P2, CoronaParams(4, 6, 3, 0, 0, 5, 2), CoronaParams(6, 9, 3, 0, 0, 3, 0)):
            roots = np.linalg.eigvalsh(np.array(excess_quotient(p)))
            assert len(roots) == excess_polynomial(p).degree == 2
            assert all(-1e-12 <= t <= 2 + 1e-12 for t in roots)


class TestFixedFamilyValue:
    def test_golden(self):
        assert fixed_family_value(2, 1) == pytest.approx(1.5)

    def test_arithmetic(self):
        assert fixed_family_value(0, 5) == pytest.approx(1 / 6)

    def test_fixed_point_at_one(self):
        for r in (1, 2, 7):
            assert fixed_family_value(1, r) == pytest.approx(1.0)


def _eigenvalues(quotient):
    return sorted(np.linalg.eigvalsh(np.array(quotient)))


class TestRealRoots:
    """The roots of the printed polynomials, read off as quotient eigenvalues."""

    def test_golden_quartic(self):
        expect = sorted([1 / 6, (3 - math.sqrt(3)) / 4, (3 + math.sqrt(3)) / 4, 3 / 2])
        assert _eigenvalues(quotient_matrix(K3P2P2, Fraction(3, 2))) == pytest.approx(expect, abs=1e-12)

    def test_golden_quartic_mu_zero(self):
        expect = sorted([0, (7 - math.sqrt(13)) / 12, (7 + math.sqrt(13)) / 12, 3 / 2])
        assert _eigenvalues(quotient_matrix(K3P2P2, 0)) == pytest.approx(expect, abs=1e-12)

    def test_simple_quadratic(self):
        # 8x^2 - 12x + 2, the golden excess quadratic
        expect = [(3 - math.sqrt(5)) / 4, (3 + math.sqrt(5)) / 4]
        assert _eigenvalues(excess_quotient(K3P2P2)) == pytest.approx(expect, abs=1e-12)

    def test_linear(self):
        # the vertex corona's excess factor is 2(x - 1): a 1x1 quotient
        cfs = closed_form_spectrum(generate("complete", 4), generate("path", 2), generate("null"))
        assert cfs.excess_family.poly.coefficients == (-2.0, 2.0)
        assert cfs.excess_family.quotient == ((1.0,),)

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
            expect = np.sort(np.polynomial.polynomial.polyroots(family_polynomial(p, mu).coefficients).real)
            got = _eigenvalues(quotient_matrix(p, mu))
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


def _assert_char_poly_multiple(poly, exact_q, float_q):
    """poly is a positive multiple of det(xI - Q), exactly; float_q is the
    package's Q at the same point."""
    x = sympy.Symbol("x")
    char = exact_q.charpoly(x)
    # the coefficients are dyadic rationals here, so their floats are exact
    target = sympy.Poly([sympy.Rational(c) for c in reversed(poly.coefficients)], x)
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
    polynomial of its quotient matrix, in exact arithmetic."""

    @pytest.mark.parametrize("p", _EXACT_GRID, ids=lambda p: "-".join(map(str, dataclasses.astuple(p))))
    def test_factors(self, p):
        vertex, edge, bare = _vertex(p), _edge(p), _bare(p)
        for f in (Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(2)):
            mu = sympy.Rational(f.numerator, f.denominator)
            for q, rows in ((p, [0, 1, 2, 3]), (vertex, [0, 1, 2]), (edge, [0, 1, 3]), (bare, [0, 1])):
                _assert_char_poly_multiple(
                    family_polynomial(q, f), _exact_quotient(q, mu, rows), quotient_matrix(q, f)
                )
        for q, rows in ((p, [1, 3]), (vertex, [1]), (edge, [1, 3]), (bare, [1])):
            _assert_char_poly_multiple(excess_polynomial(q), _exact_quotient(q, 2, rows), excess_quotient(q))


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

    def test_router(self):
        k3, p2, null = generate("complete", 3), generate("path", 2), generate("null")
        assert closed_form_spectrum(k3, p2, null).excess_family is None
        assert closed_form_spectrum(k3, null, p2).root_families[0].poly.degree == 3
        assert closed_form_spectrum(k3, p2, p2).root_families[0].poly.degree == 4
        assert closed_form_spectrum(k3, null, null).root_families[0].poly.degree == 2
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


def _poly_residual(poly, x):
    """|poly(x)| relative to the coefficient magnitudes weighted by
    max(1, |x|)^i, a scale that stays away from zero at a root x = 0."""
    value = math.fsum(c * x**i for i, c in enumerate(poly.coefficients))
    return abs(value) / math.fsum(abs(c) * max(1.0, abs(x)) ** i for i, c in enumerate(poly.coefficients))


class TestRouteIndependence:
    """The closed form and the numeric oracle share no eigensolver."""

    @pytest.mark.parametrize("attach", [("complete", 3), ("cycle", 4)])
    def test_closed_form_never_calls_the_oracle(self, monkeypatch, attach):
        g, g1, g2 = generate("petersen"), generate(*attach), generate("cycle", 4)

        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form called the numeric oracle")

        with monkeypatch.context() as patch:
            patch.setattr("rcorona.spectra._householder_tridiagonal", forbidden)
            patch.setattr("rcorona.spectra._ql_implicit", forbidden)
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
        cfs = closed_form_spectrum(generate(*g), generate(*g1), generate(*g2))
        # both zeros come out of LAPACK as about -3e-16 and round to -0.0
        assert cfs.root_families[0].label == "base eigenvalue 0"
        for fam in cfs.fixed_families + cfs.root_families:
            value = float(fam.label.rpartition(" ")[2])
            assert value == round(value, 9) and "e-1" not in fam.label, fam.label


class TestRandomCoronas:
    """Random connected circulant bases with random regular attachments."""

    @settings(max_examples=50, deadline=None)
    @given(g=_circulant(st.integers(3, 12)), g1=_ATTACHMENTS, g2=_ATTACHMENTS)
    def test_closed_form_against_oracle(self, g, g1, g2):
        assume(is_connected(g))
        assert g.edge_count >= g.vertex_count
        _oracle_check(g, g1, g2)
        cfs = closed_form_spectrum(g, g1, g2)
        for fam in cfs.root_families + ((cfs.excess_family,) if cfs.excess_family else ()):
            for x in np.linalg.eigvalsh(np.array(fam.quotient)):
                assert _poly_residual(fam.poly, float(x)) <= 1e-9, fam.label


class TestFlatten:
    def test_empty(self):
        s = flatten(ClosedFormSpectrum((), (), None))
        assert s.values == ()

    def test_single_fixed_family(self):
        s = flatten(ClosedFormSpectrum((FixedFamily(0.25, 3, "x"),), (), None))
        assert s.values == (0.25, 0.25, 0.25)

    def test_missing_real_roots_is_internal_error(self):
        # a 1x1 quotient yields one root where the quadratic is owed two
        fam = RootFamily(RealPolynomial((1.0, 0.0, 1.0)), 1, "broken", ((1.0,),))
        with pytest.raises(InternalConsistencyError):
            flatten(ClosedFormSpectrum((), (fam,), None))

    def test_json_shape(self):
        import json

        cfs = closed_form_spectrum(generate("complete", 3), generate("path", 2), generate("path", 2))
        obj = json.loads(cfs.to_json())
        assert set(obj) == {"fixed", "roots", "excess"}
        assert obj["excess"] is None  # m == n for K3
        assert all(set(f) == {"value", "mult", "label"} for f in obj["fixed"])
        assert all(set(f) == {"coeffs", "mult", "label"} for f in obj["roots"])

    def test_excess_present_when_m_exceeds_n(self):
        cfs = closed_form_spectrum(generate("complete", 4), generate("path", 2), generate("path", 2))
        assert cfs.excess_family is not None
        assert cfs.excess_family.multiplicity == 2  # m - n = 6 - 4
