"""Closed-form normalized Laplacian spectra of R-graph coronas of regular
graphs.

For regular G (degree r, n vertices, m edges) and regular attachment
graphs G1 (n1 vertices, degree r1) and G2 (n2, r2), the spectrum of the
double corona splits into:

  * fixed eigenvalues (1 + r1*t)/(r1 + 1), multiplicity n, one for each
    eigenvalue t of G1's normalized Laplacian except a single zero;
  * fixed eigenvalues (1 + r2*t)/(r2 + 1), multiplicity m, likewise for G2;
  * the four roots of a quartic in x, one quartic per eigenvalue of G's
    normalized Laplacian;
  * when m > n, the two roots of an excess quadratic, multiplicity m - n.

A null copy graph contributes no fixed family and removes one degree from
each polynomial: a null G2 (resp. G1) gives the vertex (resp. edge)
corona with a cubic per base eigenvalue, and both null give the bare
R-graph G^(R) with a quadratic; a null G2 also turns the excess quadratic
into 2(x - 1).  For every corona kind alike, each printed polynomial and
its roots come from one table over all base eigenvalues at once, held as
arrays (``FamilyTable``).  Each row is the corona's equitable partition at
one base eigenvalue (Brouwer & Haemers, Spectra of Graphs, section 2.3):
the polynomial is the partition's tridiagonal determinant, expanded without
division and so exactly whenever the inputs are exact, and its roots are
the eigenvalues of the partition's symmetric quotient matrix, of order at
most 4, solved for a whole table in one LAPACK batch.  The spectrum leaves
as runs (``ClosedFormSpectrum.runs``), each fixed value and root once with
its multiplicity, sorted: plain output is printed from them, never holding
the N values, and ``flatten`` expands them.

As in the paper's theorem, the closed form reads only the spectra of G, G1
and G2 (``closed_form_from_spectra``), carried as arrays of values and
multiplicities.  ``closed_form_spectrum`` takes them from structure where
that is exact and independent of the labelling: a complete graph K_n has 0
once and n/(n - 1) n - 1 times, a connected 2-regular graph is C_n with
1 - cos(2 pi k/n), and an edgeless copy graph needs only zeros.  Every other
input spectrum, and every quotient block, goes to LAPACK
(``numpy.linalg.eigvalsh``); a connected bipartite graph's largest value,
whose exact value is 2, is raised to 2 where LAPACK falls short of it.
The corona itself is never solved here, and nothing here calls the
package's own eigensolver, so the numeric route, which alone uses that
solver, stays an independent check.
"""

from dataclasses import dataclass, fields
import functools
import math

import numpy as np

from .corona import CoronaLayout
from .errors import HypothesisError, InternalConsistencyError
from .graphs import Graph
from .spectra import Spectrum, normalized_laplacian, summarize

__all__ = [
    "CoronaParams",
    "RealPolynomial",
    "FixedFamily",
    "RootFamily",
    "FamilyTable",
    "ClosedFormSpectrum",
    "copy_block_forms",
    "family_polynomial",
    "closed_form_from_spectra",
    "closed_form_spectrum",
    "flatten",
]

_GROUP_TOL = 1e-9
# Family labels print the group value rounded to _GROUP_TOL, so that solver
# noise below the grouping tolerance (a zero eigenvalue computed as -4e-16)
# never reaches a label.
_LABEL_DECIMALS = -round(math.log10(_GROUP_TOL))


@dataclass(frozen=True)
class CoronaParams:
    """The scalar tuple parameterizing every closed-form factor.

    A null first (second) attachment graph is encoded as n1 = 0 (n2 = 0)
    with the corresponding degree field unused and stored as 0.
    """

    n: int
    m: int
    r: int
    n1: int
    r1: int
    n2: int
    r2: int

    def __post_init__(self):
        if self.n < 1:
            raise HypothesisError("base graph must have n >= 1")
        if self.r < 1:
            raise HypothesisError("base graph must be regular with degree >= 1")
        if 2 * self.m != self.n * self.r:
            raise HypothesisError(f"m = {self.m} inconsistent with n*r/2 = {self.n * self.r / 2}")
        for size, deg, tag in ((self.n1, self.r1, "first"), (self.n2, self.r2, "second")):
            if size < 0 or deg < 0:
                raise HypothesisError(f"{tag} attachment graph has negative parameters")
            if size > 0 and deg > size - 1:
                raise HypothesisError(f"{tag} attachment graph degree {deg} exceeds {size - 1}")

    @classmethod
    def from_graphs(cls, g: Graph, g1: Graph, g2: Graph) -> "CoronaParams":
        """The parameters of a corona triple, and the one check of the paper's
        hypotheses on it: a nonempty connected base, regular of degree r >= 1,
        and regular or null copy graphs."""
        if g.is_null or not g.connected:
            raise HypothesisError("closed-form spectrum requires a nonempty connected base graph")
        if g.regular_degree is None:
            raise HypothesisError("base graph must be regular")
        copies = []
        for tag, gi in (("first", g1), ("second", g2)):
            degree = 0 if gi.is_null else gi.regular_degree
            if degree is None:
                raise HypothesisError(f"{tag} attachment graph must be regular")
            copies += gi.vertex_count, degree
        return cls(g.vertex_count, g.edge_count, g.regular_degree, *copies)

    @property
    def total_vertices(self) -> int:
        return CoronaLayout(self.n, self.m, self.n1, self.n2).vertex_count


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial c0 + c1*x + ... + cd*x^d, degree at most 4, with the
    coefficients of one ``FamilyTable`` row as the table holds them: floats,
    or exact ints and Fractions for an exact base eigenvalue.  The leading
    coefficient is a product of corona degrees, so it is never zero."""

    coefficients: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class FixedFamily:
    value: float
    multiplicity: int
    label: str


@dataclass(frozen=True)
class RootFamily:
    """The roots of ``poly``, each with ``multiplicity``: a view of one row
    of a ``FamilyTable``.  The table is the only store of the families; the
    views exist for perfbench's tracer, which counts them and reads each
    ``poly.degree``."""

    poly: RealPolynomial
    multiplicity: int
    label: str


@dataclass(frozen=True, eq=False)
class FamilyTable:
    """Root families as arrays, one row per base eigenvalue.

    Row i holds the base eigenvalue ``mu[i]``, the ``multiplicity[i]`` of
    each of its roots, the ascending ``coefficients[i]`` of the printed
    polynomial, and ``quotients[i]``, the symmetric matrix whose eigenvalues
    are that polynomial's roots.  The coefficients are float64 when every mu
    is a float, and exact Python numbers in an object array otherwise; the
    quotients are always float64.
    """

    mu: np.ndarray  # (G,)
    multiplicity: np.ndarray  # (G,) int64
    coefficients: np.ndarray  # (G, d + 1)
    quotients: np.ndarray  # (G, d, d)

    def __eq__(self, other):
        if not isinstance(other, FamilyTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def degree(self) -> int:
        return self.coefficients.shape[1] - 1


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Spectrum as labeled families: fixed values, one root family per base
    eigenvalue, and the edge-excess family when m > n."""

    fixed_families: tuple[FixedFamily, ...]
    roots: FamilyTable
    excess: FamilyTable | None

    # Rows as (coefficients, multiplicity, label), the coefficients as the
    # table holds them.
    def _root_rows(self):
        t = self.roots
        return zip(t.coefficients.tolist(), t.multiplicity.tolist(),
                   (_label("base", v) for v in t.mu.tolist()))

    def _excess_row(self):
        t = self.excess
        return t.coefficients[0].tolist(), int(t.multiplicity[0]), "edge excess"

    @property
    def root_families(self) -> tuple[RootFamily, ...]:
        """Views of the root rows, labelled by their base eigenvalue; built
        on each call (see ``RootFamily``)."""
        return tuple(RootFamily(RealPolynomial(tuple(coeffs)), mult, label)
                     for coeffs, mult, label in self._root_rows())

    @property
    def excess_family(self) -> RootFamily | None:
        """A view of the excess row (see ``RootFamily``)."""
        if self.excess is None:
            return None
        coeffs, mult, label = self._excess_row()
        return RootFamily(RealPolynomial(tuple(coeffs)), mult, label)

    def _counted_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Each fixed value and each root once, with its multiplicity, in
        ``flatten``'s order: the fixed families, then the root rows and the
        excess row, each row's roots ascending.  The quotients of a table
        are solved in one LAPACK batch."""
        fixed = self.fixed_families
        values = [np.array([f.value for f in fixed], dtype=float)]
        counts = [np.array([f.multiplicity for f in fixed], dtype=np.int64)]
        for tag, table in (("root", self.roots), ("edge excess", self.excess)):
            if table is None:
                continue
            d = table.degree
            if table.quotients.shape[1:] != (d, d):
                raise InternalConsistencyError(
                    f"{tag} families: {table.quotients.shape[1]}x{table.quotients.shape[2]} "
                    f"quotients for degree {d} polynomials"
                )
            values.append(np.linalg.eigvalsh(table.quotients).ravel())
            counts.append(np.repeat(table.multiplicity, d))
        return np.concatenate(values), np.concatenate(counts)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The spectrum as sorted runs, (values, counts): ``flatten``'s
        values, never expanded.  Neighbouring runs may hold equal values.

        Each fixed value and each root comes once, with its multiplicity,
        sorted stably from ``flatten``'s order, so -0.0 and 0.0 fall where
        a stable sort of the expanded values puts them.
        """
        values, counts = self._counted_values()
        order = np.argsort(values, kind="stable")
        return values[order], counts[order]

    @functools.cached_property
    def total_multiplicity(self) -> int:
        total = sum(f.multiplicity for f in self.fixed_families)
        for table in (self.roots, self.excess):
            if table is not None:
                # summed in Python: on a small table numpy's reduction costs more
                total += table.degree * sum(table.multiplicity.tolist())
        return total

    def to_dict(self) -> dict:
        def fam(coeffs, mult, label) -> dict:
            return {"coeffs": [float(c) for c in coeffs], "mult": mult, "label": label}

        # exact values and rows print as floats too
        return {
            "fixed": [
                {"value": float(f.value), "mult": f.multiplicity, "label": f.label}
                for f in self.fixed_families
            ],
            "roots": [fam(*row) for row in self._root_rows()],
            "excess": None if self.excess is None else fam(*self._excess_row()),
        }


# --- copy blocks -------------------------------------------------------------


def copy_block_forms(g1: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The corona's copy-block matrix computed two independent ways.

    Returns the entrywise (Hadamard) product of the normalized Laplacian
    with B = a*J + (1-a)*I for a = r/(r+1), and the equivalent shifted
    form (I + r*L)/(r+1).  The two must agree entrywise; public so that
    acceptance test A5 can verify that identity on regular inputs.
    """
    r = g1.regular_degree
    if r is None or r < 1:
        raise HypothesisError("copy-block forms require a regular graph with degree >= 1")
    n = g1.vertex_count
    lap = normalized_laplacian(g1)
    alpha = r / (r + 1)
    b = alpha * np.ones((n, n)) + (1 - alpha) * np.eye(n)
    return lap * b, (np.eye(n) + r * lap) / (r + 1)


# --- equitable partition ------------------------------------------------------

# For one base eigenvalue mu the corona has an equitable partition whose
# classes form a path: the first copy's vertices, an old (base) vertex, a new
# (edge) vertex, the second copy's vertices (Brouwer & Haemers, Spectra of
# Graphs, section 2.3).  A null copy graph's class is absent.
_COPY1, _OLD, _NEW, _COPY2 = range(4)
# LAPACK receives the quotient's rows in this order, which fixes the last bits
# of the roots.
_QUOTIENT_ORDER = (_OLD, _NEW, _COPY1, _COPY2)


# Table entries are numbers, or arrays over mu where they depend on it; a
# number stays a Python number, which costs far less than a numpy call when
# there are few base eigenvalues.


def _float(x):
    return x.astype(float) if isinstance(x, np.ndarray) else float(x)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _group_arrays(groups) -> tuple[np.ndarray, np.ndarray]:
    """(value, multiplicity) pairs as (values, counts) arrays.  The values
    are float64 when every one is a float, and otherwise an object array,
    which keeps int and Fraction values exact."""
    values = [v for v, _ in groups]
    dtype = float if all(isinstance(v, float) for v in values) else object
    return np.array(values, dtype=dtype), np.array([c for _, c in groups], dtype=np.int64)


def _family_table(p: CoronaParams, mu: np.ndarray, multiplicity: np.ndarray,
                  first: int) -> FamilyTable:
    """The families of the base eigenvalues ``mu``, each root with the
    matching ``multiplicity``, over the partition's classes from path
    position ``first`` on.  Float64 mu give float coefficients; an object
    array of exact mu gives exact ones."""
    dtype = mu.dtype
    classes = range(max(first, _COPY1 if p.n1 else _OLD), _COPY2 + 1 if p.n2 else _COPY2)
    # per class: w, its corona degree; a, the weight inside it; c, the
    # weight joining it to the next class.  Only the old vertex's a and c
    # depend on mu, as arrays over it; every other entry is one number.
    w = (p.r1 + 1, 2 * p.r + p.n1, 2 + p.n2, p.r2 + 1)
    a = (p.r1, p.r * (1 - mu), 0, p.r2)
    # a computed base eigenvalue may overshoot 2 by rounding
    c = (p.n1, np.maximum(p.r * (2 - mu), 0), p.n2)

    # det(xW - W + A) by the continuant
    # P_k = (w_k x - w_k + a_k) P_{k-1} - c_{k-1} P_{k-2}; each coefficient
    # is a number or an array over mu, so every row takes the same steps
    prev, cur = [], [1]
    for k in classes:
        nxt = [0] * (len(cur) + 1)
        for i, coef in enumerate(cur):
            nxt[i] += (a[k] - w[k]) * coef
            nxt[i + 1] += w[k] * coef
        for i, coef in enumerate(prev):
            nxt[i] -= c[k - 1] * coef
        prev, cur = cur, nxt
    coefficients = np.empty((len(mu), len(cur)), dtype)
    for i, coef in enumerate(cur):
        coefficients[:, i] = coef

    # Q = I - M with M_kk = a_k/w_k and M_k,k+1 = sqrt(c_k/(w_k w_k+1)),
    # its rows in _QUOTIENT_ORDER
    rows = [k for k in _QUOTIENT_ORDER if k in classes]
    q = np.zeros((len(mu), len(rows), len(rows)))
    for i, k in enumerate(rows):
        q[:, i, i] = 1.0 - _float(a[k] / w[k])
        if k + 1 in classes:
            j = rows.index(k + 1)
            q[:, i, j] = q[:, j, i] = 0.0 - _sqrt(_float(c[k] / (w[k] * w[k + 1])))
    return FamilyTable(mu, multiplicity, coefficients, q)


def family_polynomial(p: CoronaParams, base_eig) -> RealPolynomial:
    """The printed polynomial whose roots the corona inherits from one base
    eigenvalue: a quartic for the double corona, a cubic for the vertex
    (second copy null) and edge (first copy null) coronas, and a quadratic
    for the bare R-graph (both null).

    It is det(xW - W + A) over the equitable partition, with W = diag(w)
    and A symmetric tridiagonal with a on its diagonal and sqrt(c) beside
    it; its leading coefficient is the product of the present classes'
    corona degrees.
    ``base_eig`` may be a float, int, or Fraction; the expansion has no
    division, so exact inputs give exact coefficients.
    One row of the family table, public so that acceptance test A2 can
    check the paper's printed quartics and cubics against it.
    """
    (coeffs,) = _family_table(p, *_group_arrays(((base_eig, 1),)), _COPY1).coefficients.tolist()
    return RealPolynomial(tuple(coeffs))


# --- assembly ----------------------------------------------------------------


def _spectrum_groups(g: Graph, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum of g's normalized Laplacian as increasing float64 values
    and their int64 multiplicities, for a regular g of the given degree.

    Complete and connected 2-regular graphs, and edgeless ones, get their
    exact spectrum from their structure, whatever their labelling; every
    other graph goes to LAPACK, never to the numeric oracle (see the module
    docstring).
    """
    n = g.vertex_count
    if degree == 0:
        # an edgeless graph joins each copy vertex only to its centre: the
        # copy block is the identity, and zeros stand in for its spectrum
        return _group_arrays(((0.0, n),) if n else ())
    if degree == n - 1:
        # K_n, K2 included
        return np.array([0.0, n / (n - 1)]), np.array([1, n - 1], dtype=np.int64)
    if degree == 2 and g.connected:
        # C_n: 1 - cos(2 pi k / n), written so that it keeps its precision
        # near 0 (with math.sin's bits), twice for each k except 0 and n/2
        values = [2 * math.sin(math.pi * k / n) ** 2 for k in range(n // 2 + 1)]
        counts = [1] + [2] * (len(values) - 2) + [1 + n % 2]
        return np.array(values), np.array(counts, dtype=np.int64)
    values = np.linalg.eigvalsh(normalized_laplacian(g))
    # A connected graph has the eigenvalue 2 exactly when it is bipartite
    # (Chung, Spectral Graph Theory, Lemma 1.7), and LAPACK may return it a
    # few ulps short.  At 2 the quotient's old-new entry sqrt(r(2 - mu)) is
    # 0; at 2 - 3e-15 it is about 1e-8, and splits the roots that the two
    # blocks it joins share.  Raised only: above 2, the table's clamp gives 0.
    if values[-1] < 2 and g.connected and g.bipartite:
        values[-1] = 2.0
    # the least value is the zero every such Laplacian has, kept as a group
    # of its own, so that dropping it from a copy graph's groups leaves the
    # other groups' means as they were
    return _group_arrays(((float(values[0]), 1),) + summarize(Spectrum(values[1:]), _GROUP_TOL))


def _label(tag: str, v: float) -> str:
    # adding 0.0 folds -0.0 into 0.0
    return f"{tag} eigenvalue {round(v, _LABEL_DECIMALS) + 0.0:.10g}"


def _fixed_families(groups, degree: int, per_value_mult: int, tag: str) -> list[FixedFamily]:
    """Families from a copy graph's (values, counts), one zero dropped from
    the first."""
    families = []
    for i, (v, count) in enumerate(zip(*(a.tolist() for a in groups))):
        count -= i == 0
        if count:
            families.append(
                FixedFamily((1 + degree * v) / (degree + 1), count * per_value_mult, _label(tag, v))
            )
    return families


def _check_total(cfs: ClosedFormSpectrum, expected: int) -> ClosedFormSpectrum:
    if cfs.total_multiplicity != expected:
        raise InternalConsistencyError(
            f"family multiplicities total {cfs.total_multiplicity}, expected {expected}"
        )
    return cfs


def _refuse_fewer_edges(p: CoronaParams) -> None:
    if p.m < p.n:
        raise HypothesisError(
            f"m<n unsupported: base graph has m = {p.m} < n = {p.n}; "
            "the closed form needs at least as many edges as vertices"
        )


def closed_form_from_spectra(
    params: CoronaParams, base_groups, g1_groups, g2_groups
) -> ClosedFormSpectrum:
    """Closed-form spectrum of the double corona from the spectra of its
    base and copy graphs, as the paper's theorem states it.

    Each spectrum is a tuple of increasing (value, multiplicity) pairs of
    the graph's normalized Laplacian, whose multiplicities add up to n, n1
    and n2 of ``params``; the first pair of a copy graph holds its zero.
    The values may be floats, or exact ints and Fractions.  The base must
    have m >= n edges.
    """
    return _closed_form(params, *map(_group_arrays, (base_groups, g1_groups, g2_groups)))


def _closed_form(p: CoronaParams, base, g1, g2) -> ClosedFormSpectrum:
    """``closed_form_from_spectra`` over (values, counts) arrays."""
    for (_, counts), size, tag in ((base, p.n, "base"), (g1, p.n1, "first copy"),
                                   (g2, p.n2, "second copy")):
        if sum(counts.tolist()) != size:
            raise ValueError(f"{tag} spectrum has multiplicities that do not add up to {size}")
    _refuse_fewer_edges(p)
    fixed = _fixed_families(g1, p.r1, p.n, "attach1")
    fixed += _fixed_families(g2, p.r2, p.m, "attach2")
    roots = _family_table(p, *base, _COPY1)
    # the m - n edge excess: the partition from the new vertex on at base
    # eigenvalue 2, a quadratic, or 2(x - 1) when the second copy is null
    excess = _family_table(p, *_group_arrays(((2, p.m - p.n),)), _NEW) if p.m > p.n else None
    return _check_total(ClosedFormSpectrum(tuple(fixed), roots, excess), p.total_vertices)


def closed_form_spectrum(g: Graph, g1: Graph, g2: Graph) -> ClosedFormSpectrum:
    """Closed-form spectrum of the double corona of regular g, g1, g2.

    Either copy graph may be null: a null g2 (g1) gives the vertex (edge)
    corona, both null the bare R-graph.  The inputs must pass
    ``CoronaParams.from_graphs``, and the base must have m >= n edges.
    """
    p = CoronaParams.from_graphs(g, g1, g2)
    # refused before any input spectrum is solved
    _refuse_fewer_edges(p)
    return _closed_form(p, _spectrum_groups(g, p.r), _spectrum_groups(g1, p.r1),
                        _spectrum_groups(g2, p.r2))


def flatten(cfs: ClosedFormSpectrum) -> Spectrum:
    """Expand all families into a sorted eigenvalue multiset: the values of
    ``cfs.runs()``, each repeated by its count.

    Each root family contributes the eigenvalues of its quotient matrix,
    each with the family's multiplicity.  The values are repeated in the
    order ``runs`` sorts them from, and ``Spectrum`` sorts them stably.
    """
    return Spectrum(np.repeat(*cfs._counted_values()))
