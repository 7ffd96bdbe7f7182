"""Normalized Laplacians, the eigensolver oracle, comparison, clustering."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rcorona import (
    HypothesisError,
    Spectrum,
    SpectrumComparison,
    adjacency_matrix,
    build_graph,
    compare_spectra,
    generate,
    nl_spectrum,
    normalized_laplacian,
    normalized_laplacian_regular,
    numeric_spectrum,
    summarize,
)
from rcorona import ConvergenceError
from rcorona.spectra import (
    _BLAS_CALL_BOUND,
    _DC_CROSSOVER,
    _PANEL,
    _TILE,
    _divide_and_conquer,
    _householder_tridiagonal,
    _ql_implicit,
    _secular_roots,
)


def assert_reduction_invariants(m):
    """The reduction is an orthogonal similarity: it keeps the trace and the
    Frobenius norm, to 1e-12 relative to ||m||_F."""
    d, e = _householder_tridiagonal(m)
    fro = math.sqrt(float(np.sum(m * m)))
    assert abs(math.fsum(d) - np.trace(m)) <= 1e-12 * fro
    fro2 = math.fsum(d * d) + 2 * math.fsum(e * e)
    assert abs(fro2 - fro * fro) <= 1e-12 * fro * fro


def tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def wilkinson_plus(n):
    """W+_n: diagonal |i - (n-1)/2|, unit off-diagonal; its largest
    eigenvalues come in pairs that agree to many digits."""
    return np.abs(np.arange(n) - (n - 1) / 2), np.ones(n - 1)


# The scalar code that the array versions of to_csv, compare_spectra and
# summarize replaced, kept as their reference.  Each takes the values as
# Python floats, sorted.


def scalar_csv(values):
    return "\n".join(f"{v:.17g}" for v in values) + ("\n" if values else "")


def scalar_compare(a, b, tol):
    if len(a) != len(b):
        return SpectrumComparison(False, math.inf, -1, f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        return SpectrumComparison(True, 0.0, -1, "both empty")
    devs = [abs(x - y) for x, y in zip(a, b)]
    worst = max(range(len(devs)), key=devs.__getitem__)
    return SpectrumComparison(devs[worst] <= tol, devs[worst], worst,
                              f"max |a[i]-b[i]| = {devs[worst]:.3e} at index {worst}")


def scalar_summarize(values, tol):
    groups, cluster = [], []
    for v in values:
        if cluster and v - cluster[-1] > tol:
            groups.append((math.fsum(cluster) / len(cluster), len(cluster)))
            cluster = []
        cluster.append(v)
    if cluster:
        groups.append((math.fsum(cluster) / len(cluster), len(cluster)))
    return tuple(groups)


def outcome(fn, *args):
    """The repr of fn's result, which tells -0.0 from 0.0 and a numpy
    scalar from a Python one, or the exception it raised."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_tol = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def spectrum_values(draw):
    """Finite floats, empty and one-value lists included, with repeats
    from a small pool that holds 0.0 and -0.0."""
    pool = draw(st.lists(_finite, min_size=1, max_size=3)) + [0.0, -0.0]
    return draw(st.lists(st.sampled_from(pool) | _finite, max_size=12))


@st.composite
def lattice_values(draw):
    """Multiples of a power-of-two step, and the step as tol: every gap of
    one step is exactly tol."""
    step = 2.0 ** draw(st.integers(-30, 30))
    return [k * step for k in draw(st.lists(st.integers(-8, 8), max_size=12))], step


@st.composite
def values_and_tol(draw):
    """Values, and a tol that is often one of their neighbour gaps."""
    if draw(st.booleans()):
        return draw(lattice_values())
    values = draw(spectrum_values())
    s = sorted(values)
    gaps = [y - x for x, y in zip(s, s[1:]) if 0.0 < y - x < math.inf]
    return values, draw(st.sampled_from(gaps) | _tol if gaps else _tol)


@st.composite
def pairs_and_tol(draw):
    """Two lists of values, the second often the first shifted by offsets
    from a pool of three, so that the worst deviation ties; and a tol that
    is often one of the deviations."""
    a = draw(spectrum_values())
    if draw(st.booleans()):
        b = draw(spectrum_values())
    else:
        pool = [0.0, -0.0, draw(st.floats(-1.0, 1.0))]
        b = [x + draw(st.sampled_from(pool)) for x in a]
        assume(all(math.isfinite(v) for v in b))
    devs = [abs(x - y) for x, y in zip(sorted(a), sorted(b)) if 0.0 < abs(x - y) < math.inf]
    return a, b, draw(st.sampled_from(devs) | _tol if devs else _tol)


class TestNormalizedLaplacian:
    def test_k3(self):
        lap = normalized_laplacian(generate("complete", 3))
        expect = np.eye(3) - (np.ones((3, 3)) - np.eye(3)) / 2
        assert np.array_equal(lap, expect)

    def test_p2(self):
        assert np.array_equal(normalized_laplacian(generate("path", 2)), [[1, -1], [-1, 1]])

    def test_star_off_diagonal(self):
        lap = normalized_laplacian(generate("complete_bipartite", 1, 3))
        assert lap[0, 1] == pytest.approx(-1 / math.sqrt(3), abs=1e-15)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(HypothesisError, match="degree-0"):
            normalized_laplacian(build_graph(2, []))

    def test_first_isolated_vertex_named(self):
        with pytest.raises(HypothesisError, match=r"\(vertex 2\)"):
            normalized_laplacian(build_graph(5, [(0, 1), (3, 4)]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 40), st.floats(0.05, 0.9), st.integers(0, 2**31 - 1))
    def test_edge_build_is_the_dense_formula_bit_for_bit(self, n, density, seed):
        # a random graph plus a spanning path, so that no degree is 0
        rng = np.random.default_rng(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < density]
        g = build_graph(n, [(u, u + 1) for u in range(n - 1)] + pairs)
        assume(g.regular_degree is None)
        a = adjacency_matrix(g).astype(np.float64)
        d = g.degrees.astype(np.float64)
        reference = np.eye(n) - a / np.sqrt(np.outer(d, d))
        lap = normalized_laplacian(g)
        assert np.array_equal(lap, reference)
        assert np.array_equal(np.signbit(lap), np.signbit(reference))

    def test_regular_shortcut_exact(self, regular_catalog):
        for name, g in regular_catalog.items():
            general = normalized_laplacian(g)
            shortcut = normalized_laplacian_regular(g)
            assert np.array_equal(general, shortcut), name

    def test_regular_shortcut_rejects_irregular(self):
        with pytest.raises(HypothesisError):
            normalized_laplacian_regular(generate("complete_bipartite", 1, 2))


class TestNumericSpectrum:
    def test_k3_values(self):
        s = nl_spectrum(generate("complete", 3))
        assert np.allclose(s.values, [0, 1.5, 1.5], atol=1e-12)

    def test_p2_values(self):
        s = nl_spectrum(generate("path", 2))
        assert np.allclose(s.values, [0, 2], atol=1e-12)

    def test_identity(self):
        assert np.array_equal(numeric_spectrum(np.eye(2)).values, [1.0, 1.0])

    def test_empty(self):
        assert np.array_equal(numeric_spectrum(np.zeros((0, 0))).values, [])

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            numeric_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_asymmetry_found_far_from_the_diagonal(self):
        m = np.eye(3 * _TILE)
        m[3, 2 * _TILE + 5] = 1e-9
        with pytest.raises(ValueError, match=r"max \|M - M\^T\| = 1\.000e-09"):
            numeric_spectrum(m)

    def test_deterministic(self):
        # the second order takes divide and conquer
        for g in (generate("petersen"), generate("circulant", 2 * _DC_CROSSOVER, 1, 3)):
            lap = normalized_laplacian(g)
            assert np.array_equal(numeric_spectrum(lap).values, numeric_spectrum(lap).values)

    def test_cycle_closed_form(self):
        # solver self-test: C_n eigenvalues are 1 - cos(2 pi k / n)
        for n in (3, 4, 5, 8, 12):
            got = nl_spectrum(generate("cycle", n)).values
            expect = sorted(1 - math.cos(2 * math.pi * k / n) for k in range(n))
            assert np.allclose(got, expect, atol=1e-12), n

    def test_complete_closed_form(self):
        # solver self-test: K_n has 0 once and n/(n-1) with multiplicity n-1
        for n in (2, 3, 5, 9):
            got = nl_spectrum(generate("complete", n)).values
            expect = [0.0] + [n / (n - 1)] * (n - 1)
            assert np.allclose(got, expect, atol=1e-12), n

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 2**31 - 1))
    def test_matches_lapack_on_random_symmetric(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        got = numeric_spectrum(m).values
        assert np.allclose(got, np.sort(np.linalg.eigvalsh(m)), atol=1e-10 * n)

    @pytest.mark.parametrize("n", [
        _PANEL - 1, _PANEL, _PANEL + 1, _PANEL + 2, 2 * _PANEL + 2, 150,
        # the first trailing update is one or two tiles and a row or two
        # either side of that
        _PANEL + _TILE - 1, _PANEL + _TILE, _PANEL + _TILE + 1,
        _PANEL + 2 * _TILE - 1, _PANEL + 2 * _TILE, _PANEL + 2 * _TILE + 1,
        # the first (n - 1)^2 beyond the BLAS-call bound: the trailing
        # matrix-vector product goes in blocks of rows
        math.isqrt(_BLAS_CALL_BOUND) + 2, math.isqrt(_BLAS_CALL_BOUND) + 3,
    ])
    def test_matches_lapack_across_panel_edges(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        got = numeric_spectrum(m).values
        assert np.allclose(got, np.sort(np.linalg.eigvalsh(m)), atol=1e-10 * n)
        assert_reduction_invariants(m)

    def test_blocked_products_match_lapack(self, monkeypatch):
        # bounds small enough that every matrix-vector product goes in
        # blocks of rows and chunks of columns, and every dot product in chunks
        monkeypatch.setattr("rcorona.spectra._BLAS_CALL_BOUND", 2**9)
        monkeypatch.setattr("rcorona.spectra._INNER_ENTRIES", 7)
        rng = np.random.default_rng(8)
        m = rng.standard_normal((2 * _PANEL + 9, 2 * _PANEL + 9))
        m = (m + m.T) / 2
        got = numeric_spectrum(m).values
        assert np.allclose(got, np.sort(np.linalg.eigvalsh(m)), atol=1e-10 * len(m))
        assert_reduction_invariants(m)

    def test_adversarial_structures(self):
        rng = np.random.default_rng(99)
        v = rng.standard_normal(25)
        v /= np.linalg.norm(v)
        block = rng.standard_normal((5, 5))
        block = (block + block.T) / 2
        glued = np.kron(np.eye(16), tridiagonal(*wilkinson_plus(21)))
        for i in range(1, 16):
            glued[21 * i - 1, 21 * i] = glued[21 * i, 21 * i - 1] = 1e-8
        cases = {
            "diagonal": np.diag(rng.standard_normal(40)),
            "scaled identity": 7.5 * np.eye(30),
            "reflector": np.eye(25) - 2 * np.outer(v, v),
            "rank one": np.outer(v, v),
            "repeated blocks": np.kron(np.eye(8), block),
            "zero": np.zeros((12, 12)),
            # zero columns in the middle of later panels
            "repeated blocks, three panels": np.kron(np.eye(14), block),
            "diagonal, three panels": np.diag(rng.standard_normal(2 * _PANEL + 6)),
            "disconnected 2C40": normalized_laplacian(
                build_graph(80, [(i + o, (i + 1) % 40 + o) for o in (0, 40) for i in range(40)])
            ),
            # above the divide-and-conquer crossover: tight clusters, and
            # massive deflation of both kinds (repeated poles, vanishing z)
            "glued Wilkinson": glued,
            "repeated blocks, forty copies": np.kron(np.eye(40), block),
            "disconnected 2C200": normalized_laplacian(
                build_graph(400, [(i + o, (i + 1) % 200 + o) for o in (0, 200) for i in range(200)])
            ),
        }
        for name, m in cases.items():
            got = np.array(numeric_spectrum(m).values)
            ref = np.sort(np.linalg.eigvalsh(m))
            assert np.max(np.abs(got - ref)) < 1e-11, name
            assert_reduction_invariants(m)

    def test_broken_tridiagonal(self):
        # zero subdiagonal entries exercise the deflation splits
        rng = np.random.default_rng(5)
        t = np.diag(rng.standard_normal(20))
        for i in range(0, 19, 2):
            t[i, i + 1] = t[i + 1, i] = rng.standard_normal()
        got = np.array(numeric_spectrum(t).values)
        assert np.max(np.abs(got - np.sort(np.linalg.eigvalsh(t)))) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            numeric_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_trace_and_range_invariants(self, catalog):
        for name, g in catalog.items():
            s = nl_spectrum(g)
            n = g.vertex_count
            assert abs(math.fsum(s.values) - n) <= 1e-9 * n, name
            assert all(-1e-9 <= v <= 2 + 1e-9 for v in s.values), name

    def test_zero_eigenvector_residual(self, catalog):
        for name, g in catalog.items():
            lap = normalized_laplacian(g)
            d = np.sqrt(g.degrees)
            residual = np.linalg.norm(lap @ d)
            assert residual <= 1e-9, name

    def test_connected_graphs_have_simple_zero(self, catalog):
        for name, g in catalog.items():
            s = nl_spectrum(g)
            assert abs(s.values[0]) <= 1e-12, name
            assert s.values[1] > 1e-9, name


class TestDivideAndConquer:
    """Orders above _DC_CROSSOVER take divide and conquer; the rest QL."""

    @pytest.mark.parametrize("n", [_DC_CROSSOVER - 1, _DC_CROSSOVER, _DC_CROSSOVER + 1,
                                   2 * _DC_CROSSOVER + 1])
    def test_matches_lapack_across_the_crossover(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        got = numeric_spectrum(m).values
        assert np.allclose(got, np.sort(np.linalg.eigvalsh(m)), atol=1e-10 * n)

    def test_routing_by_order(self, monkeypatch):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((_DC_CROSSOVER + 1, _DC_CROSSOVER + 1))
        m = (m + m.T) / 2
        d, e = _householder_tridiagonal(m)
        assert np.array_equal(numeric_spectrum(m).values, sorted(_divide_and_conquer(d, e)[0].tolist()))
        small = m[:_DC_CROSSOVER, :_DC_CROSSOVER]
        d, e = _householder_tridiagonal(small)
        expect = sorted(_ql_implicit(d.tolist(), e.tolist()))

        def forbidden(*args, **kwargs):
            raise AssertionError("an order at the crossover took divide and conquer")

        monkeypatch.setattr("rcorona.spectra._divide_and_conquer", forbidden)
        assert np.array_equal(numeric_spectrum(small).values, expect)

    def test_adversarial_tridiagonals(self, monkeypatch):
        # small leaves, so that these orders go through several merges
        monkeypatch.setattr("rcorona.spectra._DC_LEAF", 5)
        rng = np.random.default_rng(21)
        d, e = rng.standard_normal(40), rng.standard_normal(39)
        negative = e.copy()
        negative[19] = -abs(negative[19])
        zeros = e.copy()
        zeros[[3, 9, 19, 30]] = 0.0
        cases = {
            "Wilkinson W21+": wilkinson_plus(21),
            "negative beta at the top split": (d, negative),
            "positive beta at the top split": (d, np.abs(e)),
            "exact zero off-diagonals": (d, zeros),
            "zero matrix": (np.zeros(30), np.zeros(29)),
        }
        for name, (dd, ee) in cases.items():
            got, _, _ = _divide_and_conquer(dd, ee)
            ref = np.linalg.eigvalsh(tridiagonal(dd, ee))
            assert np.max(np.abs(np.sort(got) - ref)) < 1e-11, name

    def test_rows_are_the_eigenvector_rows(self, monkeypatch):
        monkeypatch.setattr("rcorona.spectra._DC_LEAF", 7)
        rng = np.random.default_rng(4)
        d, e = rng.standard_normal(60), rng.standard_normal(59)
        values, first, last = _divide_and_conquer(d, e)
        ref_values, vecs = np.linalg.eigh(tridiagonal(d, e))
        order = np.argsort(values)
        assert np.allclose(values[order], ref_values, atol=1e-12)
        # eigenvectors are defined up to sign: take it from the pair of rows
        signs = np.sign(first[order] * vecs[0] + last[order] * vecs[-1])
        assert np.allclose(first[order], signs * vecs[0], atol=1e-10)
        assert np.allclose(last[order], signs * vecs[-1], atol=1e-10)

    def test_secular_root_on_the_bracket_end(self):
        # the last root lies exactly halfway between d_k and d_k + rho |z|^2,
        # where f rounds to 0: the midpoint must be reachable, not bisected
        # towards forever
        # poles and weights left after deflation in a merge of order 10 of an
        # integer tridiagonal (beta = 1)
        d = np.array([0.3819660112501053, 2.6180339887498945])
        z = np.array([0.8506508083520399, 0.5257311121191336])
        roots, _ = _secular_roots(d, z, 2.0, 2)
        ref = np.linalg.eigvalsh(np.diag(d) + 2.0 * np.outer(z, z))
        assert np.allclose(roots, ref, atol=1e-14)

    @pytest.mark.parametrize("d, z, rho", [(0.5, 0.8, 2.0), (-1.25, -0.3, 0.5), (0.0, 1e-3, 1.0)])
    def test_secular_root_of_one_pole(self, d, z, rho):
        roots, delta = _secular_roots(np.array([d]), np.array([z]), rho, 1)
        ref = np.linalg.eigvalsh(np.diag([d]) + rho * np.outer([z], [z]))
        assert np.allclose(roots, ref, rtol=0, atol=1e-15)
        assert delta.shape == (1, 1) and np.allclose(delta, d - roots, rtol=0, atol=1e-15)

    def test_secular_cap_raises(self, monkeypatch):
        monkeypatch.setattr("rcorona.spectra._SECULAR_MAX_ITER", 0)
        rng = np.random.default_rng(5)
        m = rng.standard_normal((_DC_CROSSOVER + 1, _DC_CROSSOVER + 1))
        with pytest.raises(ConvergenceError, match=r"merge of order \d+"):
            numeric_spectrum((m + m.T) / 2)


class TestCompare:
    def test_equal(self):
        a = Spectrum((0.0, 1.5, 1.5))
        assert compare_spectra(a, Spectrum((0.0, 1.5, 1.5)), 1e-8).matched

    def test_length_mismatch(self):
        rep = compare_spectra(Spectrum((0.0, 1.0)), Spectrum((0.0, 1.0, 2.0)), 1e-8)
        assert not rep.matched and "length" in rep.reason

    def test_within_tolerance(self):
        assert compare_spectra(Spectrum((0.0,)), Spectrum((1e-9,)), 1e-8).matched

    def test_outside_tolerance_reports_worst(self):
        rep = compare_spectra(Spectrum((0.0, 1.0)), Spectrum((0.0, 1.5)), 1e-8)
        assert not rep.matched
        assert rep.max_deviation == pytest.approx(0.5)
        assert rep.worst_index == 1

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            compare_spectra(Spectrum(()), Spectrum(()), 0.0)

    @settings(max_examples=300)
    @given(pairs_and_tol())
    @example(([], [], 1e-8))
    @example(([0.0], [-0.0], 1e-8))
    @example(([0.0, 1.0], [1.0, 2.0], 1e-8))
    @example(([0.0, 1.0], [0.5, 1.5], 0.5))
    @example(([-1e308], [1e308], 1e-8))
    def test_matches_the_scalar_reference(self, case):
        a, b, tol = case
        got = compare_spectra(Spectrum(a), Spectrum(b), tol)
        assert repr(got) == repr(scalar_compare(sorted(a), sorted(b), tol))
        assert type(got.max_deviation) is float and type(got.worst_index) is int


class TestSummarize:
    def test_clusters(self):
        s = Spectrum((0.0, 1.4999999999, 1.5))
        got = summarize(s, 1e-6)
        assert len(got) == 2
        assert got[0] == (0.0, 1)
        assert got[1][1] == 2 and got[1][0] == pytest.approx(1.5, abs=1e-6)

    def test_empty(self):
        assert summarize(Spectrum(()), 1e-8) == ()

    def test_singletons(self):
        assert summarize(Spectrum((0.0, 1.0, 2.0)), 1e-9) == ((0.0, 1), (1.0, 1), (2.0, 1))

    def test_total_preserved(self):
        s = nl_spectrum(generate("petersen"))
        assert sum(k for _, k in summarize(s, 1e-8)) == 10

    @settings(max_examples=300)
    @given(values_and_tol())
    @example(([], 1e-8))
    @example(([-0.0], 1e-8))
    @example(([0.0, -0.0, 0.0], 1e-8))
    @example(([0.0, 0.5, 1.0, 2.0], 0.5))
    @example(([1e308, 1e308], 1.0))
    def test_matches_the_scalar_reference(self, case):
        values, tol = case
        got = outcome(summarize, Spectrum(values), tol)
        assert got == outcome(scalar_summarize, sorted(values), tol)


class TestSpectrumOrder:
    @given(st.lists(st.floats(-3, 3) | st.sampled_from((0.0, -0.0)), max_size=30))
    def test_unsorted_input_comes_out_sorted(self, values):
        got = Spectrum(values).values
        assert got.dtype == np.float64 and got.shape == (len(values),)
        assert got.tolist() == sorted(values)
        # a stable sort: -0.0 and 0.0 keep their input order, as sorted() keeps them
        assert [math.copysign(1, v) for v in got.tolist()] == [math.copysign(1, v) for v in sorted(values)]

    def test_accepts_arrays_and_ints(self):
        assert np.array_equal(Spectrum(np.array([2.0, 0.5, 1.0])).values, [0.5, 1.0, 2.0])
        assert np.array_equal(Spectrum((3, 1)).values, [1.0, 3.0])

    def test_values_are_read_only(self):
        source = np.array([2.0, 1.0])
        s = Spectrum(source)
        with pytest.raises(ValueError, match="read-only"):
            s.values[0] = 0.0
        # the caller's array is neither sorted in place nor frozen
        source[0] = 3.0
        assert np.array_equal(s.values, [1.0, 2.0])

    def test_equal_by_value_and_unhashable(self):
        assert Spectrum((0.0, 1.0)) == Spectrum(np.array([1.0, -0.0]))
        assert Spectrum((0.0, 1.0)) != Spectrum((0.0, 2.0))
        assert Spectrum((0.0,)) != Spectrum((0.0, 0.0))
        assert Spectrum(()) != ()
        with pytest.raises(TypeError, match="unhashable"):
            hash(Spectrum((1.0,)))


class TestSerialization:
    def test_json(self):
        assert json.dumps(Spectrum((0.0, 2.0)).values.tolist()) == "[0.0, 2.0]"

    def test_csv_has_17_digits(self):
        text = Spectrum((1 / 3,)).to_csv()
        assert text == "0.33333333333333331\n"

    @given(spectrum_values())
    @example([])
    @example([-0.0])
    @example([5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-5])
    def test_csv_matches_the_scalar_reference(self, values):
        assert Spectrum(values).to_csv() == scalar_csv(sorted(values))

    def test_adjacency_spectra_fit_in_spectrum(self):
        # Spectrum also carries adjacency eigenvalues (outside [0, 2])
        s = numeric_spectrum(adjacency_matrix(generate("complete", 4)).astype(float))
        assert s.values[0] == pytest.approx(-1.0, abs=1e-12)
        assert s.values[-1] == pytest.approx(3.0, abs=1e-12)
