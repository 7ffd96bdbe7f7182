"""Normalized Laplacians, the eigensolver oracle, comparison, clustering."""

from fractions import Fraction
import hashlib
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
    double_corona,
    generate,
    nl_spectrum,
    normalized_laplacian,
    normalized_laplacian_regular,
    numeric_spectrum,
    summarize,
)
from rcorona import ConvergenceError
import rcorona.oracle
from rcorona.oracle import (
    _BLAS_CALL_BOUND,
    _DC_CROSSOVER,
    _EPS,
    _INNER_ENTRIES,
    _PANEL,
    _SPARSE_DENSITY,
    _TILE,
    _UNBLOCKED,
    _divide_and_conquer,
    _first_width,
    _householder_tridiagonal,
    _ql_implicit,
    _ql_values,
    _secular_roots,
    _sparse_nonzeros,
    _split_tolerance,
)
from rcorona.spectra import _fixed_g17
from harness import pinned
from test_numeric_digests import DATA as NUMERIC_DIGESTS, kernel_fingerprint


def secular_roots(d, z, rho, order):
    """_secular_roots's roots for the one set (d, z, rho), and the
    differences d_i - root_j as the merge forms them from (origin, tau)."""
    (origin, tau), = _secular_roots([(d, z, rho)], [order])
    return d[origin] + tau, (d[:, None] - d[origin]) - tau


def secular_problem(rng, k, kind):
    """Poles d (strictly increasing), weights z and rho > 0 for a secular
    set of k poles, of one of three kinds: spread poles; clusters of poles
    about 1e-14 apart, relative to their size; or some weights just above
    the merge's deflation tolerance (rho |z_i| > 8 eps max(max|d|, rho))."""
    rho = 10.0 ** rng.uniform(-12.0, 2.0)
    z = rng.standard_normal(k)
    z /= np.linalg.norm(z)
    if kind == "clustered":
        base = rng.uniform(-2.0, 2.0)
        scale = max(1.0, abs(base))
        gaps = np.where(rng.random(k) < 0.7, scale * 1e-14 * rng.uniform(1.0, 3.0, k), rng.uniform(0.0, 0.5, k))
        d = base + np.cumsum(gaps)
    else:
        d = np.sort(rng.uniform(-2.0, 2.0, k))
    if kind == "tiny weights":
        tol = 8.0 * _EPS * max(float(np.max(np.abs(d))), rho)
        tiny = rng.random(k) < 0.5
        z[tiny] = np.copysign(tol / rho * rng.uniform(1.0, 4.0, int(tiny.sum())), z[tiny])
    assert np.all(np.diff(d) > 0.0)
    return d, z, rho


def assert_reduction_invariants(m, nonzeros=None):
    """The reduction is an orthogonal similarity: it keeps the trace and the
    Frobenius norm, to 1e-12 relative to ||m||_F."""
    d, e = _householder_tridiagonal(m, nonzeros)
    fro = math.sqrt(float(np.sum(m * m)))
    assert abs(math.fsum(d) - np.trace(m)) <= 1e-12 * fro
    fro2 = math.fsum(d * d) + 2 * math.fsum(e * e)
    assert abs(fro2 - fro * fro) <= 1e-12 * fro * fro


def corona_laplacian(base, *connections):
    """The normalized Laplacian of circulant(base; connections) with {K4, C5},
    under a fixed relabelling: a sparse input of order 17 base."""
    g = generate("circulant", base, *connections)
    lap = normalized_laplacian(double_corona(g, generate("complete", 4), generate("cycle", 5))[0])
    order = np.random.default_rng(base).permutation(len(lap))
    return lap[np.ix_(order, order)]


def record_panel_calls(monkeypatch, record):
    """Call record(kind, x) on each matrix-vector and dot product a panel
    makes: kind "direct" for a product it makes in one BLAS call (_matvec),
    "product" and "dot" for those it hands to _product and _dot."""
    product, dot = rcorona.oracle._product, rcorona.oracle._dot
    monkeypatch.setattr("rcorona.oracle._matvec", lambda x, y: record("direct", x) or x @ y)
    monkeypatch.setattr("rcorona.oracle._product", lambda x, y: record("product", x) or product(x, y))
    monkeypatch.setattr("rcorona.oracle._dot", lambda x, y: record("dot", x) or dot(x, y))


def sparse_symmetric(n, fraction, seed):
    """A random symmetric matrix of order n whose off-diagonal entries are
    nonzero with probability about fraction, with a nonzero diagonal."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < fraction), 1)
    return upper + upper.T + np.diag(rng.standard_normal(n))


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
def long_runs(draw):
    """Values in long runs: (value, count) pairs with counts up to 300,
    subnormals among the values, and a run of zeros in which 0.0 and -0.0
    are shuffled together."""
    value = _finite | st.floats(-2.0**-1022, 2.0**-1022) | st.sampled_from((5e-324, -5e-324))
    pairs = draw(st.lists(st.tuples(value, st.integers(1, 300)), max_size=6))
    zeros = [0.0] * draw(st.integers(0, 300)) + [-0.0] * draw(st.integers(0, 300))
    values = [v for v, count in pairs for _ in range(count)] + zeros
    draw(st.randoms(use_true_random=False)).shuffle(values)
    return values


# Where "%.17g" writes fixed notation, _fixed_g17's range: 1e-4 <= |v| < 1e16.
_in_fixed_range = (st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
                   | st.tuples(st.integers(-4, 15), st.floats(1.0, 10.0, exclude_max=True))
                   .map(lambda t: t[1] * 10.0 ** t[0]).filter(lambda v: 1e-4 <= v < 1e16))


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


# Each power of ten 10**k, k = -4..16, as the double nearest it, and both
# neighbours of that double.
_POWERS_AND_NEIGHBOURS = [f(float(f"1e{k}")) for k in range(-4, 17) for f in (_below, float, _above)]


def _dyadic_ties():
    """Two values k / 2**j in each decade [10**E, 10**(E + 1)), E = -4..15,
    whose 17th significant digit is followed by exactly a half: with
    j = 17 - E and k odd, |v| 10**(16 - E) = k 5**(16 - E) / 2, so the
    digits round half to even."""
    ties = []
    for e in range(-4, 16):
        j = 17 - e
        k = math.ceil(Fraction(10) ** e * 2**j) | 1
        ties += [k / 2**j, (k + 2) / 2**j]
    return ties


@st.composite
def fixed_range_values(draw):
    """Values with 1e-4 <= |v| < 1e16 of either sign, powers of ten and
    their neighbours and dyadic ties among them."""
    magnitude = _in_fixed_range | st.sampled_from([v for v in _POWERS_AND_NEIGHBOURS + _dyadic_ties()
                                                   if 1e-4 <= v < 1e16])
    return [-v if negative else v
            for v, negative in draw(st.lists(st.tuples(magnitude, st.booleans()), max_size=40))]


@st.composite
def mixed_range_values(draw):
    """Values in and out of _fixed_g17's range: zeros of both signs,
    subnormals, values below 1e-4 and at or above 1e16, and infinities."""
    outside = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e16, -1e16, 1e300, -math.inf, math.inf,
                                _below(1e-4), -_below(1e-4), _above(1e16)])
               | st.floats(-1e-4, 1e-4, exclude_min=True, exclude_max=True) | _finite)
    inside = st.builds(lambda v, negative: -v if negative else v, _in_fixed_range, st.booleans())
    return draw(st.lists(inside | outside, max_size=30))


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

    def test_regular_shortcut_rejects_edgeless(self):
        with pytest.raises(HypothesisError, match="regular degree must be >= 1"):
            normalized_laplacian_regular(build_graph(3, []))


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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            numeric_spectrum(np.zeros((2, 3)))

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
        _PANEL + _TILE - 1, _PANEL + _TILE, _PANEL + _TILE + 1,
        # the last order that runs only the unblocked loop, and the first
        # two that run a panel before it
        _UNBLOCKED + _PANEL - 1, _UNBLOCKED + _PANEL, _UNBLOCKED + _PANEL + 1,
        # the first trailing update is two or three tiles and a row either
        # side of that
        _PANEL + 2 * _TILE - 1, _PANEL + 2 * _TILE, _PANEL + 2 * _TILE + 1,
        _PANEL + 3 * _TILE - 1, _PANEL + 3 * _TILE, _PANEL + 3 * _TILE + 1,
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
        # bounds small enough that every matrix-vector product of the panels
        # goes in blocks of rows and chunks of columns, and every dot
        # product in chunks; two panels run before the unblocked loop
        monkeypatch.setattr("rcorona.oracle._BLAS_CALL_BOUND", 2**9)
        monkeypatch.setattr("rcorona.oracle._INNER_ENTRIES", 7)
        monkeypatch.setattr("rcorona.oracle._UNBLOCKED", 8)
        rng = np.random.default_rng(8)
        m = rng.standard_normal((2 * _PANEL + 9, 2 * _PANEL + 9))
        m = (m + m.T) / 2
        got = numeric_spectrum(m).values
        assert np.allclose(got, np.sort(np.linalg.eigvalsh(m)), atol=1e-10 * len(m))
        assert_reduction_invariants(m)

    def test_panels_only_above_the_crossover(self, monkeypatch):
        # each panel column makes one product by the square trailing matrix,
        # directly or through _product
        squares = []
        record_panel_calls(monkeypatch, lambda kind, x: squares.append(x.ndim == 2 and x.shape[0] == x.shape[1]))
        rng = np.random.default_rng(4)
        for n, panels in ((_UNBLOCKED + _PANEL, 0), (_UNBLOCKED + _PANEL + 1, 1),
                          (_UNBLOCKED + 2 * _PANEL, 1), (_UNBLOCKED + 2 * _PANEL + 1, 2)):
            m = rng.standard_normal((n, n))
            squares.clear()
            _householder_tridiagonal((m + m.T) / 2)
            assert sum(squares) == panels * _PANEL, n

    def test_out_of_bound_panels_take_the_blocked_products(self, monkeypatch):
        # with the bounds patched as in test_blocked_products_match_lapack,
        # no panel fits them: each of the two panels' 64 columns hands its
        # row correction, its product by the square and its two correction
        # products to _product and its two dot products to _dot, and no
        # product is made directly
        monkeypatch.setattr("rcorona.oracle._BLAS_CALL_BOUND", 2**9)
        monkeypatch.setattr("rcorona.oracle._INNER_ENTRIES", 7)
        monkeypatch.setattr("rcorona.oracle._UNBLOCKED", 8)
        calls = []
        record_panel_calls(monkeypatch, lambda kind, x: calls.append(kind))
        m = np.random.default_rng(8).standard_normal((2 * _PANEL + 9, 2 * _PANEL + 9))
        _householder_tridiagonal((m + m.T) / 2)
        assert calls.count("product") == 4 * 2 * _PANEL
        assert calls.count("dot") == 2 * 2 * _PANEL
        assert "direct" not in calls

    def test_sparse_first_panel_beyond_the_bound_is_blocked(self, monkeypatch):
        # at N = 1105 the sparse first panel's correction products, 2 x 192
        # reflector rows by 1105 columns, exceed _BLAS_CALL_BOUND: its three
        # products and two dot products per column go through _product and
        # _dot; the later panels fit, make their correction products
        # directly and their products by a square beyond the bound through
        # _product; and every direct product is within both bounds
        lap = corona_laplacian(65, 1, 2)
        n, width = len(lap), _first_width(len(lap))
        assert 2 * width * n > _BLAS_CALL_BOUND
        calls = []
        record_panel_calls(monkeypatch, lambda kind, x: calls.append((kind, x.shape)))
        panel = rcorona.oracle._panel
        monkeypatch.setattr("rcorona.oracle._panel", lambda *args: calls.append(("panel", ())) or panel(*args))
        _householder_tridiagonal(lap, _sparse_nonzeros(lap))
        end = calls.index(("panel", ()), 1)
        first = [kind for kind, _ in calls[1:end]]
        assert first.count("product") == 3 * width and first.count("dot") == 2 * width
        assert "direct" not in first
        later = [call for call in calls[end:] if call[0] != "panel"]
        assert {kind for kind, _ in later} == {"direct", "product"}
        blocked = [shape for kind, shape in later if kind == "product"]
        assert blocked and all(rows == cols > math.isqrt(_BLAS_CALL_BOUND) for rows, cols in blocked)
        assert all(rows * cols <= _BLAS_CALL_BOUND and cols <= _INNER_ENTRIES
                   for kind, (rows, cols) in later if kind == "direct")

    def test_in_bound_panels_make_their_products_directly(self, monkeypatch):
        # at N = 612 every panel, the sparse first one among them, fits both
        # bounds: none hands a correction product to _product or a dot
        # product to _dot; only the first dense panel's products by the
        # squares of 515, 514 and 513 rows, beyond the bound, are blocked
        lap = corona_laplacian(36, 2, 5)
        calls = []
        record_panel_calls(monkeypatch, lambda kind, x: calls.append((kind, x.shape)))
        _householder_tridiagonal(lap, _sparse_nonzeros(lap))
        assert [shape for kind, shape in calls if kind != "direct"] == [(515, 515), (514, 514), (513, 513)]
        assert math.isqrt(_BLAS_CALL_BOUND) == 512

    @pytest.mark.parametrize("base, connections", [(20, (1, 3)), (36, (2, 5)), (60, (1, 3))],
                             ids=["N340", "N612", "N1020"])
    def test_sparse_coronas_match_lapack(self, base, connections):
        lap = corona_laplacian(base, *connections)
        nonzeros = _sparse_nonzeros(lap)
        assert nonzeros is not None
        got = numeric_spectrum(lap).values
        assert np.max(np.abs(got - np.linalg.eigvalsh(lap))) <= 1e-14
        assert_reduction_invariants(lap, nonzeros)

    @pytest.mark.parametrize("fraction, sparse", [(_SPARSE_DENSITY / 2, True), (2 * _SPARSE_DENSITY, False)],
                             ids=["below-the-gate", "above-the-gate"])
    def test_either_side_of_the_density_gate(self, monkeypatch, fraction, sparse):
        # only the sparse route sums over the nonzero list
        m = sparse_symmetric(300, fraction, 3)
        sums = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *args, **kwargs: sums.append(1) or bincount(*args, **kwargs))
        got = numeric_spectrum(m).values
        assert bool(sums) == sparse
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(got - ref)) <= 2e-14 * np.max(np.abs(ref))

    def test_sparse_first_panel_skips_a_reduced_column(self):
        # a direct sum whose first block is a path's Laplacian: column 2 of
        # the first panel has nothing left to annihilate, and the columns
        # after it must still be reduced right
        path = normalized_laplacian(generate("path", 3))
        corona = corona_laplacian(20, 1, 3)
        m = np.zeros((len(path) + len(corona),) * 2)
        m[:3, :3], m[3:, 3:] = path, corona
        nonzeros = _sparse_nonzeros(m)
        assert nonzeros is not None and _first_width(len(m)) > 3
        assert _householder_tridiagonal(m, nonzeros)[1][2] == 0.0
        assert np.max(np.abs(numeric_spectrum(m).values - np.linalg.eigvalsh(m))) <= 1e-14
        assert_reduction_invariants(m, nonzeros)

    def test_dense_route_skips_reduced_columns(self):
        # a dense direct sum of three random symmetric blocks at order 260:
        # the last column of the first block is reduced inside a panel, that
        # of the second inside the unblocked finish, and each has nothing
        # left to annihilate
        n, bounds = 260, (70, 200)
        finish = len(range(0, n - _UNBLOCKED - _PANEL, _PANEL)) * _PANEL
        assert bounds[0] < finish < bounds[1]
        rng = np.random.default_rng(26)
        m = np.zeros((n, n))
        for lo, hi in zip((0, *bounds), (*bounds, n)):
            block = rng.standard_normal((hi - lo, hi - lo))
            m[lo:hi, lo:hi] = (block + block.T) / 2
        assert _sparse_nonzeros(m) is None
        e = _householder_tridiagonal(m)[1]
        assert [e[b - 1] for b in bounds] == [0.0, 0.0]
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(numeric_spectrum(m).values - ref)) <= 2e-14 * np.max(np.abs(ref))
        assert_reduction_invariants(m)

    def test_sparse_first_panel_reads_no_square(self, monkeypatch):
        # the first panel makes one sum over the nonzero list per column and
        # no product by the trailing square; every later panel column makes
        # one such product, as on the dense route
        lap = corona_laplacian(36, 2, 5)
        events = []
        record_panel_calls(monkeypatch,
                           lambda kind, x: events.append("square" if x.ndim == 2 and x.shape[0] == x.shape[1] else ""))
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *args, **kwargs: events.append("sum") or bincount(*args, **kwargs))
        n, width = len(lap), _first_width(len(lap))
        assert width == 3 * _PANEL
        _householder_tridiagonal(lap, _sparse_nonzeros(lap))
        events = [x for x in events if x]
        assert events[:width] == ["sum"] * width
        later = len(range(0, n - width - _UNBLOCKED - _PANEL, _PANEL))
        assert events[width:] == ["square"] * later * _PANEL

    def test_sparse_input_checks(self):
        # the nonzero list finds a non-finite entry, and an unequal pair
        # whether one side or both are nonzero, with the dense checks' text
        m = np.eye(3 * _TILE)
        assert _sparse_nonzeros(m) is not None
        for entry in (np.nan, np.inf, -np.inf):
            bad = m.copy()
            bad[7, 2 * _TILE] = bad[2 * _TILE, 7] = entry
            with pytest.raises(ValueError, match="finite"):
                numeric_spectrum(bad)
        bad = m.copy()
        bad[2 * _TILE + 5, 3] = 2e-9
        with pytest.raises(ValueError, match=r"max \|M - M\^T\| = 2\.000e-09"):
            numeric_spectrum(bad)
        bad[3, 2 * _TILE + 5] = 0.5
        bad[2 * _TILE + 5, 3] = 0.5 + 2**-20
        with pytest.raises(ValueError, match=r"max \|M - M\^T\| = 9\.537e-07"):
            numeric_spectrum(bad)
        bad[2 * _TILE + 5, 3] = 0.5 + 2**-50
        numeric_spectrum(bad)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    def test_sparse_extreme_scales(self, scale):
        m = sparse_symmetric(_UNBLOCKED + 2 * _PANEL, _SPARSE_DENSITY / 4, 9)
        assert _sparse_nonzeros(m) is not None
        got = numeric_spectrum(m * scale).values
        ref = np.linalg.eigvalsh(m) * scale
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_unblocked_loop_within_the_blas_bounds(self):
        # its matrix has at most _UNBLOCKED + _PANEL rows: its product by v
        # and its rank-2 update, at most m x 2 x m, are single calls within
        # both bounds
        m = _UNBLOCKED + _PANEL
        assert 2 * m * m <= _BLAS_CALL_BOUND and m <= _INNER_ENTRIES

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
            # zero columns in the middle of the unblocked loop and, above
            # _UNBLOCKED + 2 _PANEL, of the panels before it
            "repeated blocks, unblocked": np.kron(np.eye(14), block),
            "diagonal, unblocked": np.diag(rng.standard_normal(2 * _PANEL + 6)),
            "repeated blocks, two panels first": np.kron(np.eye(34), block),
            "diagonal, two panels first": np.diag(rng.standard_normal(_UNBLOCKED + 2 * _PANEL + 6)),
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
        for entry in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                numeric_spectrum(np.array([[entry, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 1e200, 1e-200])
    @pytest.mark.parametrize("n", [20, _DC_CROSSOVER + 1])
    def test_extreme_scales(self, n, scale):
        # squared norms and couplings of these would overflow or underflow
        # unscaled; an overflow warning fails the test, as every warning does
        # in this suite
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2 * scale
        got = numeric_spectrum(m).values
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

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


class TestRootFreeQL:
    """_ql_values against LAPACK on tridiagonals that stress its splits."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(22)
        d, e = rng.standard_normal(30), rng.standard_normal(29)
        zeros = e.copy()
        zeros[[0, 7, 8, 20, 28]] = 0.0
        # couplings a hair above and below the split tolerance (too small
        # to change it)
        near = e.copy()
        near[[4, 15]] = 0.0
        tol = _split_tolerance(d.tolist(), near.tolist())
        near[4], near[15] = tol * (1 + 1e-6), tol * (1 - 1e-6)
        graded = np.logspace(0, -12, 25)
        # sixteen copies of W21+, coupled by 1e-8
        glued_e = np.ones(16 * 21 - 1)
        glued_e[20::21] = 1e-8
        return {
            "exact zero couplings": (d, zeros),
            "couplings at the split tolerance": (d, near),
            "graded diagonal": (graded, np.sqrt(graded[:-1] * graded[1:])),
            "glued Wilkinson": (np.tile(wilkinson_plus(21)[0], 16), glued_e),
            "zero matrix": (np.zeros(12), np.zeros(11)),
            "order 2": (np.array([0.5, -1.25]), np.array([0.75])),
        }

    def test_matches_lapack(self):
        for name, (d, e) in self.cases().items():
            got = np.sort(_ql_values(d.tolist(), e.tolist()))
            ref = np.linalg.eigvalsh(tridiagonal(d, e))
            norm = float(np.max(np.abs(d)) + 2 * np.max(np.abs(e)))
            assert np.max(np.abs(got - ref)) <= 1e-14 * norm, name

    def test_iteration_cap_raises_in_both_loops(self, monkeypatch):
        monkeypatch.setattr("rcorona.oracle._QL_MAX_ITER", 0)
        d, e = wilkinson_plus(21)
        for ql in (_ql_values, _ql_implicit):
            with pytest.raises(ConvergenceError, match="tridiagonal QL failed to converge"):
                ql(d.tolist(), e.tolist())
        # and through numeric_spectrum on both sides of the crossover
        rng = np.random.default_rng(6)
        m = rng.standard_normal((_DC_CROSSOVER + 1, _DC_CROSSOVER + 1))
        m = (m + m.T) / 2
        for k in (_DC_CROSSOVER, _DC_CROSSOVER + 1):
            with pytest.raises(ConvergenceError, match="tridiagonal QL failed to converge"):
                numeric_spectrum(m[:k, :k])


class TestDivideAndConquer:
    """Orders above _DC_CROSSOVER take divide and conquer; the rest QL."""

    # 159 to 161 and 321 straddled the earlier crossover at 160: root-free
    # QL at middle orders, divide and conquer at an odd one
    @pytest.mark.parametrize("n", [159, 160, 161, 321, _DC_CROSSOVER - 1, _DC_CROSSOVER,
                                   _DC_CROSSOVER + 1, 2 * _DC_CROSSOVER + 1])
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
        expect = sorted(_ql_values(d.tolist(), e.tolist()))

        def forbidden(*args, **kwargs):
            raise AssertionError("an order at the crossover took divide and conquer")

        monkeypatch.setattr("rcorona.oracle._divide_and_conquer", forbidden)
        assert np.array_equal(numeric_spectrum(small).values, expect)

    def test_adversarial_tridiagonals(self, monkeypatch):
        # small leaves, so that these orders go through several merges
        monkeypatch.setattr("rcorona.oracle._DC_LEAF", 5)
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
        monkeypatch.setattr("rcorona.oracle._DC_LEAF", 7)
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
        roots, _ = secular_roots(d, z, 2.0, 2)
        ref = np.linalg.eigvalsh(np.diag(d) + 2.0 * np.outer(z, z))
        assert np.allclose(roots, ref, atol=1e-14)

    @pytest.mark.parametrize("d, z, rho", [(0.5, 0.8, 2.0), (-1.25, -0.3, 0.5), (0.0, 1e-3, 1.0)])
    def test_secular_root_of_one_pole(self, monkeypatch, d, z, rho):
        # one pole has the root d + rho z^2 in closed form, with no iteration
        monkeypatch.setattr("rcorona.oracle._SECULAR_MAX_ITER", 0)
        roots, delta = secular_roots(np.array([d]), np.array([z]), rho, 1)
        ref = np.linalg.eigvalsh(np.diag([d]) + rho * np.outer([z], [z]))
        assert np.allclose(roots, ref, rtol=0, atol=1e-15)
        assert delta.shape == (1, 1) and np.allclose(delta, d - roots, rtol=0, atol=1e-15)

    def test_secular_roots_match_eigvalsh_in_mixed_batches(self):
        # 2100 seeded sets of 2 to 24 poles, spread, clustered or with tiny
        # weights, solved in batches of 1 to 12 sets of mixed sizes: every
        # set converges, to eigvalsh's roots within 1e-13 relative
        rng = np.random.default_rng(28)
        kinds = ("spread", "clustered", "tiny weights")
        problems = [secular_problem(rng, 2 + trial % 23, kinds[trial // 7 % 3]) for trial in range(2100)]
        solved = 0
        while solved < len(problems):
            batch = problems[solved : solved + int(rng.integers(1, 13))]
            roots = _secular_roots(batch, [d.size for d, _, _ in batch])
            for (d, z, rho), (origin, tau) in zip(batch, roots):
                ref = np.linalg.eigvalsh(np.diag(d) + rho * np.outer(z, z))
                got = d[origin] + tau
                assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref)))), solved
                solved += 1

    # SHA-256 of every (origin, tau) of test_secular_bits_are_pinned's sets,
    # keyed by block size
    _SECULAR_SHA256 = {64: "9b3732c4da200fdbbc3b554f5a76849a0021a08c8727589f7b0b9cc5843f9402",
                       2: "feab21800a35f98793cc82cada4cca1aa2a219a1f668e10640b92625d470d513"}

    @pytest.mark.parametrize("block, count", [(64, 3000), (2, 300)])
    def test_secular_bits_are_pinned(self, monkeypatch, block, count):
        # 3000 seeded sets of 2 to 151 poles, spread, clustered or with tiny
        # weights, solved in batches of 1 to 12 sets and then every other one
        # alone, in blocks of 64 roots; and the first 300 of them in blocks
        # of 2, where a block's last moving root is most often alone (all
        # 3000 would take about a minute, each pair of roots paying numpy's
        # fixed cost per call).  The bits are einsum's sums, so the digests
        # hold only on the build whose kernels recorded the numeric digests
        pinned(NUMERIC_DIGESTS, kernel_fingerprint)
        monkeypatch.setattr("rcorona.oracle._SECULAR_BLOCK", block)
        rng = np.random.default_rng(33)
        kinds = ("spread", "clustered", "tiny weights")
        sets = [secular_problem(rng, 2 + trial % 150, kinds[trial // 7 % 3]) for trial in range(3000)][:count]
        batches, solved = [], 0
        while solved < count:
            batches.append(sets[solved : solved + int(rng.integers(1, 13))])
            solved += len(batches[-1])
        batches += [[s] for s in sets[::2]]
        h = hashlib.sha256()
        for batch in batches:
            for origin, tau in _secular_roots(batch, [d.size for d, _, _ in batch]):
                h.update(origin.tobytes())
                h.update(tau.tobytes())
        assert h.hexdigest() == self._SECULAR_SHA256[block]

    @pytest.mark.parametrize("block", [2, 5, 64])
    def test_a_batch_gives_each_set_its_own_bits(self, monkeypatch, block):
        # sets of 1 to 150 poles, shuffled, so that a block of columns mixes
        # sets and a large set spans several blocks: each set's origin and
        # tau are those it gets solved alone
        monkeypatch.setattr("rcorona.oracle._SECULAR_BLOCK", block)
        rng = np.random.default_rng(32)
        kinds = ("spread", "clustered", "tiny weights")
        sizes = [1, 1, 2, 3, 5, 5, 13, 24, 25, 40, 64, 65, 99, 127, 128, 150]
        sets = [secular_problem(rng, k, kinds[i % 3]) for i, k in enumerate(sizes)]
        order = rng.permutation(len(sets))
        batch = [sets[i] for i in order]
        for (origin, tau), s in zip(_secular_roots(batch, [0] * len(batch)), batch):
            (alone_origin, alone_tau), = _secular_roots([s], [0])
            assert np.array_equal(origin, alone_origin) and np.array_equal(tau, alone_tau), s[0].size

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_both_paths_raise_the_same_cap_error(self, monkeypatch, cap):
        # this set needs four iterations for its slowest root: solved alone
        # in one block, or at the head of a batch whose blocks of two roots
        # spread it over several calls, it raises the same error
        monkeypatch.setattr("rcorona.oracle._SECULAR_MAX_ITER", cap)
        clustered = secular_problem(np.random.default_rng(1), 6, "clustered")
        rng = np.random.default_rng(7)
        batch = [clustered, secular_problem(rng, 2, "spread"), secular_problem(rng, 30, "spread")]
        errors = []
        with pytest.raises(ConvergenceError) as exc:
            _secular_roots([clustered], [40])
        errors.append(str(exc.value))
        monkeypatch.setattr("rcorona.oracle._SECULAR_BLOCK", 2)
        with pytest.raises(ConvergenceError) as exc:
            _secular_roots(batch, [40, 20, 90])
        errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert errors[0] == ("secular equation of a divide-and-conquer merge of order 40 "
                             f"failed to converge after {cap} iterations")

    def test_secular_cap_raises(self, monkeypatch):
        # a batch's error names the order of its first merge, in the batch's
        # order, whose set did not converge within the cap; a set of one pole
        # takes no iteration.  The clustered set needs four iterations for
        # its slowest root, and blocks of two roots spread the sets over
        # several calls
        monkeypatch.setattr("rcorona.oracle._SECULAR_BLOCK", 2)
        clustered = secular_problem(np.random.default_rng(1), 6, "clustered")
        rng = np.random.default_rng(7)
        sets = [secular_problem(rng, 1, "spread"), secular_problem(rng, 2, "spread"), clustered,
                secular_problem(rng, 30, "spread")]
        orders = [10, 20, 40, 90]

        def stalls(s, order):
            try:
                _secular_roots([s], [order])
            except ConvergenceError:
                return True
            return False

        named = set()
        for cap in range(6):
            monkeypatch.setattr("rcorona.oracle._SECULAR_MAX_ITER", cap)
            first = next((order for s, order in zip(sets, orders) if stalls(s, order)), None)
            if first is None:
                _secular_roots(sets, orders)
                continue
            with pytest.raises(ConvergenceError) as exc:
                _secular_roots(sets, orders)
            assert str(exc.value) == ("secular equation of a divide-and-conquer merge of order "
                                      f"{first} failed to converge after {cap} iterations")
            named.add(first)
        assert 40 in named and len(named) >= 2
        # and through numeric_spectrum, above the crossover
        monkeypatch.setattr("rcorona.oracle._SECULAR_MAX_ITER", 0)
        rng = np.random.default_rng(5)
        m = rng.standard_normal((_DC_CROSSOVER + 1, _DC_CROSSOVER + 1))
        with pytest.raises(ConvergenceError, match=r"merge of order \d+"):
            numeric_spectrum((m + m.T) / 2)

    def test_one_secular_solve_per_merge_height(self, monkeypatch):
        # circulant(36; 2, 5) with {K4, C5}, N = 612: 16 leaves under 15
        # merges of 4 heights.  The corona's multiple eigenvalues deflate,
        # so most merges keep a handful of poles; each height's sets are
        # solved in one call, its columns in blocks of 64 to 127, each with
        # as many rows as the most poles among its sets, never k x k
        lap = corona_laplacian(36, 2, 5)
        d, e = _householder_tridiagonal(lap, _sparse_nonzeros(lap))
        calls, blocks = [], []
        solve, columns = _secular_roots, rcorona.oracle._secular_columns
        monkeypatch.setattr("rcorona.oracle._secular_roots",
                            lambda sets, orders: calls.append([s[0].size for s in sets]) or solve(sets, orders))
        monkeypatch.setattr("rcorona.oracle._secular_columns",
                            lambda poles, *args: blocks.append(poles.shape) or columns(poles, *args))
        _divide_and_conquer(d, e)
        assert [len(sets) for sets in calls] == [8, 4, 2, 1]
        widths = [sum(sets) for sets in calls]
        assert sum(width for _, width in blocks) == sum(widths)
        # the first height's 154 columns take two blocks
        assert widths[0] > 2 * rcorona.oracle._SECULAR_BLOCK and len(blocks) == 5
        assert all(width < 2 * rcorona.oracle._SECULAR_BLOCK for _, width in blocks)
        assert [rows for rows, _ in blocks[2:]] == [max(sets) for sets in calls[1:]]

    @pytest.mark.parametrize("block", [2, 5, 64, 7])
    def test_blocks_do_not_change_the_bits(self, monkeypatch, block):
        # a random tridiagonal's merges deflate almost nothing, so the top
        # merge solves about 150 poles: in blocks of a few roots or of many,
        # every value and row is the same
        monkeypatch.setattr("rcorona.oracle._DC_LEAF", 20)
        rng = np.random.default_rng(150)
        d, e = rng.standard_normal(150), rng.standard_normal(149)
        expect = _divide_and_conquer(d, e)
        monkeypatch.setattr("rcorona.oracle._SECULAR_BLOCK", block)
        for got, want in zip(_divide_and_conquer(d, e), expect):
            assert np.array_equal(got, want)


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

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match="positive"):
            summarize(Spectrum((0.0,)), 0.0)

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

    @given(long_runs())
    @example([0.0, -0.0] * 150 + [5e-324] * 200 + [-5e-324] * 100 + [1 / 3] * 300)
    @settings(max_examples=60)
    def test_csv_of_long_runs_matches_the_scalar_reference(self, values):
        # to_csv formats each run of equal bits once, so a run of zeros
        # that mixes the signs must print each zero with its own sign
        assert Spectrum(values).to_csv() == scalar_csv(sorted(values))

    @given(fixed_range_values())
    @example([math.nextafter(1.0, 0.0)])
    @example([v for v in _POWERS_AND_NEIGHBOURS if 1e-4 <= v < 1e16])
    @example(_dyadic_ties())
    @example([-v for v in _dyadic_ties()])
    @example([1.0, 10.0, 1000.0, 1e15, 9999999999999998.0, 100.5, 1.5, -2.0, 0.1, 0.5])
    def test_fixed_g17_matches_python_format(self, values):
        values = sorted(values)
        assert _fixed_g17(np.array(values)) == "".join(f"{v:.17g}\n" for v in values)

    def test_the_powers_of_ten_fixed_g17_relies_on(self):
        # _fixed_g17 finds E by the double nearest each 10**k, which must be
        # the least double at or above it, and takes E from the value, not
        # from its rounded digits: the largest double below each 10**k keeps
        # 17 digits below 10**k
        for k in range(-4, 17):
            nearest = float(f"1e{k}")
            assert Fraction(nearest) >= Fraction(10) ** k
            assert int(f"{_below(nearest):.16e}".partition("e")[2]) == k - 1

    def test_csv_of_nan(self):
        assert Spectrum((math.nan, -0.0, 1.0, -math.inf)).to_csv() == "-inf\n-0\n1\nnan\n"

    @given(mixed_range_values())
    @example(_POWERS_AND_NEIGHBOURS)
    @example([0.0, -0.0, 5e-324, 1e-4, -1e-4, _below(1e-4), 1e16, -_below(1e16), 0.5, -0.5])
    def test_csv_mixing_the_fixed_range_with_the_rest(self, values):
        assert Spectrum(values).to_csv() == scalar_csv(sorted(values))

    def test_adjacency_spectra_fit_in_spectrum(self):
        # Spectrum also carries adjacency eigenvalues (outside [0, 2])
        s = numeric_spectrum(adjacency_matrix(generate("complete", 4)).astype(float))
        assert s.values[0] == pytest.approx(-1.0, abs=1e-12)
        assert s.values[-1] == pytest.approx(3.0, abs=1e-12)
