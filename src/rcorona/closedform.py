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
its roots come from one table, the corona's equitable partition per base
eigenvalue (Brouwer & Haemers, Spectra of Graphs, section 2.3): the
polynomial is the partition's tridiagonal determinant, expanded without
division and so exactly whenever the inputs are exact, and its roots are
the eigenvalues of the partition's symmetric quotient matrix, of order at
most 4.  The spectra of G, G1 and G2 and the quotient blocks go to LAPACK
(``numpy.linalg.eigvalsh``); the corona itself is never solved here, and
nothing here calls the package's own eigensolver, so the numeric route,
which alone uses that solver, stays an independent check.
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from .errors import HypothesisError, InternalConsistencyError
from .graphs import Graph, degree_profile, is_connected
from .spectra import Spectrum, normalized_laplacian, summarize

__all__ = [
    "CoronaParams",
    "RealPolynomial",
    "FixedFamily",
    "RootFamily",
    "ClosedFormSpectrum",
    "copy_block_forms",
    "fixed_family_value",
    "family_polynomial",
    "excess_polynomial",
    "quotient_matrix",
    "excess_quotient",
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
        if g.is_null or not is_connected(g):
            raise HypothesisError("closed-form spectrum requires a nonempty connected base graph")
        prof = degree_profile(g)
        if prof.regular_degree is None:
            raise HypothesisError("base graph must be regular")
        copies = []
        for tag, gi in (("first", g1), ("second", g2)):
            degree = 0 if gi.is_null else degree_profile(gi).regular_degree
            if degree is None:
                raise HypothesisError(f"{tag} attachment graph must be regular")
            copies += gi.vertex_count, degree
        return cls(g.vertex_count, g.edge_count, prof.regular_degree, *copies)

    @property
    def total_vertices(self) -> int:
        return self.n + self.m + self.n * self.n1 + self.m * self.n2


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial c0 + c1*x + ... + cd*x^d, degree at most 4."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

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
    """The roots of ``poly``, each with ``multiplicity``; they are computed
    as the eigenvalues of the symmetric ``quotient`` matrix."""

    poly: RealPolynomial
    multiplicity: int
    label: str
    quotient: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Spectrum as labeled families: fixed values plus per-polynomial roots."""

    fixed_families: tuple[FixedFamily, ...]
    root_families: tuple[RootFamily, ...]
    excess_family: RootFamily | None

    @property
    def total_multiplicity(self) -> int:
        total = sum(f.multiplicity for f in self.fixed_families)
        total += sum(f.poly.degree * f.multiplicity for f in self.root_families)
        if self.excess_family is not None:
            total += self.excess_family.poly.degree * self.excess_family.multiplicity
        return total

    def to_json(self) -> str:
        def fam(f: RootFamily) -> dict:
            return {"coeffs": list(f.poly.coefficients), "mult": f.multiplicity, "label": f.label}

        return json.dumps(
            {
                "fixed": [
                    {"value": f.value, "mult": f.multiplicity, "label": f.label}
                    for f in self.fixed_families
                ],
                "roots": [fam(f) for f in self.root_families],
                "excess": fam(self.excess_family) if self.excess_family else None,
            }
        )


# --- scalar building blocks ------------------------------------------------


def fixed_family_value(eig: float, degree: int):
    """Map a copy-graph eigenvalue t to (1 + degree*t)/(degree + 1)."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return (1 + degree * eig) / (degree + 1)


def copy_block_forms(g1: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The corona's copy-block matrix computed two independent ways.

    Returns the entrywise (Hadamard) product of the normalized Laplacian
    with B = a*J + (1-a)*I for a = r/(r+1), and the equivalent shifted
    form (I + r*L)/(r+1).  The two must agree entrywise; exposed so tests
    can verify that identity on regular inputs.
    """
    prof = degree_profile(g1)
    if prof.regular_degree is None or prof.regular_degree < 1:
        raise HypothesisError("copy-block forms require a regular graph with degree >= 1")
    r = prof.regular_degree
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


def _partition(p: CoronaParams, mu, first: int):
    """The present classes from path position ``first`` on, and the table
    rows: w, each class's corona degree; a, the weight inside each class;
    c, the weight joining class k to class k + 1."""
    w = (p.r1 + 1, 2 * p.r + p.n1, 2 + p.n2, p.r2 + 1)
    a = (p.r1, p.r * (1 - mu), 0, p.r2)
    # a computed base eigenvalue may overshoot 2 by rounding
    c = (p.n1, max(p.r * (2 - mu), 0), p.n2)
    classes = range(max(first, _COPY1 if p.n1 else _OLD), _COPY2 + 1 if p.n2 else _COPY2)
    return classes, w, a, c


def _polynomial(p: CoronaParams, mu, first: int) -> RealPolynomial:
    # det(xW - W + A) by the continuant
    # P_k = (w_k x - w_k + a_k) P_{k-1} - c_{k-1} P_{k-2}
    classes, w, a, c = _partition(p, mu, first)
    prev, cur = [], [1]
    for k in classes:
        nxt = [0] * (len(cur) + 1)
        for i, coef in enumerate(cur):
            nxt[i] += (a[k] - w[k]) * coef
            nxt[i + 1] += w[k] * coef
        for i, coef in enumerate(prev):
            nxt[i] -= c[k - 1] * coef
        prev, cur = cur, nxt
    return RealPolynomial(tuple(cur))


def _quotient(p: CoronaParams, mu, first: int) -> tuple[tuple[float, ...], ...]:
    # Q = I - M with M_kk = a_k/w_k and M_k,k+1 = sqrt(c_k/(w_k w_k+1))
    classes, w, a, c = _partition(p, mu, first)
    m = [[0.0] * 4 for _ in range(4)]
    for k in classes:
        m[k][k] = a[k] / w[k]
        if k + 1 in classes:
            m[k][k + 1] = m[k + 1][k] = math.sqrt(c[k] / (w[k] * w[k + 1]))
    rows = [k for k in _QUOTIENT_ORDER if k in classes]
    return tuple(tuple(float(i == j) - float(m[i][j]) for j in rows) for i in rows)


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
    division, so exact inputs give exact coefficients before conversion.
    """
    return _polynomial(p, base_eig, _COPY1)


def excess_polynomial(p: CoronaParams) -> RealPolynomial:
    """The polynomial carrying the m - n edge excess: the partition from the
    new vertex on at base eigenvalue 2, a quadratic, or 2(x - 1) when the
    second copy graph is null."""
    return _polynomial(p, 2, _NEW)


def quotient_matrix(p: CoronaParams, base_eig) -> tuple[tuple[float, ...], ...]:
    """The symmetric quotient Q = I - W^(-1/2) A W^(-1/2) whose eigenvalues
    are the roots of ``family_polynomial(p, base_eig)``.

    Rows are old vertex, new vertex, first copy, second copy, without the
    row of a null copy graph; det(xI - Q) times the product of the class
    degrees is the printed polynomial.
    """
    return _quotient(p, base_eig, _COPY1)


def excess_quotient(p: CoronaParams) -> tuple[tuple[float, ...], ...]:
    """The {new vertex, second copy} block of Q at base eigenvalue 2, whose
    eigenvalues are the roots of ``excess_polynomial(p)``."""
    return _quotient(p, 2, _NEW)


# --- assembly ----------------------------------------------------------------


def _input_spectrum(g: Graph) -> Spectrum:
    # LAPACK, never the numeric oracle: see the module docstring
    return Spectrum(np.linalg.eigvalsh(normalized_laplacian(g)).tolist())


def _copy_spectrum(g: Graph, size: int, degree: int) -> Spectrum:
    # an edgeless copy graph joins each copy vertex only to its center; the
    # copy block is the identity and the fixed-family map ignores the
    # eigenvalues entirely, so zeros stand in without a Laplacian
    if degree == 0:
        return Spectrum((0.0,) * size)
    return _input_spectrum(g)


def _label(tag: str, v: float) -> str:
    # adding 0.0 folds -0.0 into 0.0
    return f"{tag} eigenvalue {round(v, _LABEL_DECIMALS) + 0.0:.10g}"


def _fixed_families(
    spectrum: Spectrum, degree: int, per_value_mult: int, tag: str
) -> list[FixedFamily]:
    """Families from a copy graph's spectrum with one zero dropped."""
    tail = Spectrum(spectrum.values[1:])
    return [
        FixedFamily(fixed_family_value(v, degree), count * per_value_mult, _label(tag, v))
        for v, count in summarize(tail, _GROUP_TOL).groups
    ]


def _check_total(cfs: ClosedFormSpectrum, expected: int) -> ClosedFormSpectrum:
    if cfs.total_multiplicity != expected:
        raise InternalConsistencyError(
            f"family multiplicities total {cfs.total_multiplicity}, expected {expected}"
        )
    return cfs


def closed_form_spectrum(g: Graph, g1: Graph, g2: Graph) -> ClosedFormSpectrum:
    """Closed-form spectrum of the double corona of regular g, g1, g2.

    Either copy graph may be null: a null g2 (g1) gives the vertex (edge)
    corona, both null the bare R-graph.  The inputs must pass
    ``CoronaParams.from_graphs``, and the base must have m >= n edges.
    """
    p = CoronaParams.from_graphs(g, g1, g2)
    if p.m < p.n:
        raise HypothesisError(
            f"m<n unsupported: base graph has m = {p.m} < n = {p.n}; "
            "the closed form needs at least as many edges as vertices"
        )
    fixed = _fixed_families(_copy_spectrum(g1, p.n1, p.r1), p.r1, p.n, "attach1")
    fixed += _fixed_families(_copy_spectrum(g2, p.n2, p.r2), p.r2, p.m, "attach2")
    roots = [
        RootFamily(family_polynomial(p, v), count, _label("base", v), quotient_matrix(p, v))
        for v, count in summarize(_input_spectrum(g), _GROUP_TOL).groups
    ]
    excess = (
        RootFamily(excess_polynomial(p), p.m - p.n, "edge excess", excess_quotient(p))
        if p.m > p.n
        else None
    )
    cfs = ClosedFormSpectrum(tuple(fixed), tuple(roots), excess)
    return _check_total(cfs, p.total_vertices)


def flatten(cfs: ClosedFormSpectrum) -> Spectrum:
    """Expand all families into a sorted eigenvalue multiset.

    Each root family contributes the eigenvalues of its quotient matrix;
    the quotients are solved in one batch per matrix size.
    """
    values: list[float] = []
    for fam in cfs.fixed_families:
        values.extend([fam.value] * fam.multiplicity)
    by_size: dict[int, list[RootFamily]] = {}
    for fam in cfs.root_families + ((cfs.excess_family,) if cfs.excess_family else ()):
        if len(fam.quotient) != fam.poly.degree:
            raise InternalConsistencyError(
                f"{fam.label}: {len(fam.quotient)}x{len(fam.quotient)} quotient for "
                f"degree {fam.poly.degree} polynomial {list(fam.poly.coefficients)}"
            )
        by_size.setdefault(fam.poly.degree, []).append(fam)
    for fams in by_size.values():
        roots = np.linalg.eigvalsh(np.array([fam.quotient for fam in fams]))
        for fam, row in zip(fams, roots.tolist()):
            for root in row:
                values.extend([root] * fam.multiplicity)
    return Spectrum(tuple(values))
