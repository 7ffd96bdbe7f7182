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

Setting G2 (resp. G1) to the null graph degenerates the quartic to a
cubic: the vertex (resp. edge) corona.  The printed polynomials are
expanded symbolically (convolution of coefficient arrays), exactly
whenever the inputs are exact.  Their roots are computed as the
eigenvalues of the equitable-partition quotient matrix of each family
(Brouwer & Haemers, Spectra of Graphs, section 2.3), a symmetric matrix of
order at most 4 whose characteristic polynomial is a positive multiple of
the printed one.  Only these small blocks go to LAPACK; the corona itself
is never solved here, so the numeric oracle stays an independent check.
"""

from dataclasses import dataclass
from fractions import Fraction
import json
import math

import numpy as np

from .errors import HypothesisError, InternalConsistencyError, PoleError
from .graphs import Graph, degree_profile, is_connected
from .spectra import Spectrum, nl_spectrum, normalized_laplacian, summarize

__all__ = [
    "CoronaParams",
    "RealPolynomial",
    "FixedFamily",
    "RootFamily",
    "ClosedFormSpectrum",
    "coronal",
    "copy_block_forms",
    "fixed_family_value",
    "quartic_factor",
    "vertex_corona_cubic",
    "edge_corona_cubic",
    "excess_quadratic",
    "quotient_matrix",
    "excess_quotient",
    "closed_form_spectrum",
    "flatten",
]

_GROUP_TOL = 1e-9


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
        prof = degree_profile(g)
        if prof.regular_degree is None:
            raise HypothesisError("base graph must be regular")
        sizes = []
        for tag, gi in (("first", g1), ("second", g2)):
            if gi.is_null:
                sizes.append((0, 0))
                continue
            p = degree_profile(gi)
            if p.regular_degree is None:
                raise HypothesisError(f"{tag} attachment graph must be regular")
            sizes.append((gi.vertex_count, p.regular_degree))
        (n1, r1), (n2, r2) = sizes
        return cls(g.vertex_count, g.edge_count, prof.regular_degree, n1, r1, n2, r2)

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


def coronal(size: int, degree: int, x: float):
    """Row-sum coronal of a regular graph's scaled Laplacian block:
    size / (x - 1/(degree+1)).  The null graph contributes 0."""
    if size < 0 or degree < 0:
        raise ValueError("size and degree must be non-negative")
    if size == 0:
        return 0.0
    pole = 1.0 / (degree + 1) if not isinstance(x, Fraction) else Fraction(1, degree + 1)
    if x == pole:
        raise PoleError(f"coronal has a pole at x = 1/{degree + 1}")
    return size / (x - pole)


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


# --- symbolic polynomial expansion ------------------------------------------


def _pmul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    exact = all(isinstance(c, (int, Fraction)) for c in a + b)
    if exact:
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out
    cells: list[list[float]] = [[] for _ in out]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            cells[i + j].append(float(ai) * float(bj))
    return [math.fsum(cell) if cell else 0.0 for cell in cells]


def _padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def _pscale(a: list, s) -> list:
    return [s * c for c in a]


def _first_factor(p: CoronaParams) -> list:
    # (x-1)(2+n2)(x*r2+x-1) - n2
    return _padd(_pscale(_pmul([-1, 1], [-1, p.r2 + 1]), 2 + p.n2), [-p.n2])


def _second_factor(p: CoronaParams, mu) -> list:
    # (x-1)(2r+n1)(x*r1+x-1) + r(1-mu)(x*r1+x-1) - n1
    spoke1 = [-1, p.r1 + 1]
    out = _pscale(_pmul([-1, 1], spoke1), 2 * p.r + p.n1)
    out = _padd(out, _pscale(spoke1, p.r * (1 - mu)))
    return _padd(out, [-p.n1])


def quartic_factor(p: CoronaParams, base_eig) -> RealPolynomial:
    """The quartic whose four roots the corona inherits from one base
    eigenvalue; requires both attachment graphs nonempty.

    ``base_eig`` may be a float, int, or Fraction; with exact inputs the
    expansion is carried out in exact arithmetic before conversion.
    """
    if p.n1 < 1 or p.n2 < 1:
        raise HypothesisError("quartic factor requires both attachment graphs nonempty")
    spoke1 = [-1, p.r1 + 1]
    spoke2 = [-1, p.r2 + 1]
    out = _pmul(_first_factor(p), _second_factor(p, base_eig))
    out = _padd(out, _pscale(_pmul(spoke1, spoke2), p.r * (base_eig - 2)))
    return RealPolynomial(tuple(out))


def vertex_corona_cubic(p: CoronaParams, base_eig) -> RealPolynomial:
    """Per-base-eigenvalue cubic for the vertex corona (second copy null)."""
    if p.n1 < 1:
        raise HypothesisError("vertex-corona cubic requires a nonempty attachment graph")
    spoke1 = [-1, p.r1 + 1]
    out = _pscale(_pmul([-1, 1], _second_factor(p, base_eig)), 2)
    out = _padd(out, _pscale(spoke1, p.r * (base_eig - 2)))
    return RealPolynomial(tuple(out))


def edge_corona_cubic(p: CoronaParams, base_eig) -> RealPolynomial:
    """Per-base-eigenvalue cubic for the edge corona (first copy null)."""
    if p.n2 < 1:
        raise HypothesisError("edge-corona cubic requires a nonempty attachment graph")
    spoke2 = [-1, p.r2 + 1]
    out = _pmul([-1 - base_eig, 2], _first_factor(p))
    out = _padd(out, _pscale(spoke2, base_eig - 2))
    return RealPolynomial(tuple(out))


def excess_quadratic(p: CoronaParams) -> RealPolynomial:
    """The quadratic carrying the m-n edge-excess multiplicity."""
    if p.n2 < 1:
        raise HypothesisError("excess quadratic requires a nonempty second attachment graph")
    return RealPolynomial(tuple(_first_factor(p)))


# --- quotient matrices --------------------------------------------------------

# Rows of the equitable-partition quotient: an old (base) vertex, a new (edge)
# vertex, and the all-ones vector on each attachment copy.
_OLD, _NEW, _COPY1, _COPY2 = range(4)


def _quotient(p: CoronaParams, mu, rows: list[int]) -> tuple[tuple[float, ...], ...]:
    d0, de = 2 * p.r + p.n1, 2 + p.n2
    m = [[0.0] * 4 for _ in range(4)]
    m[_OLD][_OLD] = p.r * (1 - mu) / d0
    # a computed base eigenvalue may overshoot 2 by rounding
    m[_OLD][_NEW] = m[_NEW][_OLD] = math.sqrt(max(p.r * (2 - mu), 0) / (d0 * de))
    m[_OLD][_COPY1] = m[_COPY1][_OLD] = math.sqrt(p.n1 / (d0 * (p.r1 + 1)))
    m[_COPY1][_COPY1] = p.r1 / (p.r1 + 1)
    m[_NEW][_COPY2] = m[_COPY2][_NEW] = math.sqrt(p.n2 / (de * (p.r2 + 1)))
    m[_COPY2][_COPY2] = p.r2 / (p.r2 + 1)
    return tuple(tuple(float(i == j) - float(m[i][j]) for j in rows) for i in rows)


def quotient_matrix(p: CoronaParams, base_eig) -> tuple[tuple[float, ...], ...]:
    """The symmetric quotient Q = I - M whose eigenvalues are the corona
    eigenvalues inherited from one base eigenvalue.

    Rows are old vertex, new vertex, first copy, second copy; the row of a
    null copy graph is dropped, so Q is 4x4 for the double corona and 3x3
    for the vertex and edge coronas.  det(xI - Q) is a positive multiple of
    the printed per-eigenvalue polynomial.
    """
    copies = [row for row, size in ((_COPY1, p.n1), (_COPY2, p.n2)) if size]
    return _quotient(p, base_eig, [_OLD, _NEW, *copies])


def excess_quotient(p: CoronaParams) -> tuple[tuple[float, ...], ...]:
    """The {new vertex, second copy} block of Q at base eigenvalue 2, which
    carries the m - n edge excess; [1] when the second copy graph is null."""
    return _quotient(p, 2, [_NEW, _COPY2] if p.n2 else [_NEW])


# --- assembly ----------------------------------------------------------------


def _require_base(g: Graph, p: CoronaParams) -> None:
    if not is_connected(g):
        raise HypothesisError("closed-form spectrum requires a connected base graph")
    if p.m < p.n:
        raise HypothesisError(
            f"m<n unsupported: base graph has m = {p.m} < n = {p.n}; "
            "the closed form needs at least as many edges as vertices"
        )


def _copy_spectrum(g: Graph, size: int, degree: int) -> Spectrum:
    # an edgeless copy graph joins each copy vertex only to its center; the
    # copy block is the identity and the fixed-family map ignores the
    # eigenvalues entirely, so zeros stand in without a Laplacian
    if degree == 0:
        return Spectrum((0.0,) * size)
    return nl_spectrum(g)


def _fixed_families(
    spectrum: Spectrum, degree: int, per_value_mult: int, tag: str
) -> list[FixedFamily]:
    """Families from a copy graph's spectrum with one zero dropped."""
    tail = Spectrum(spectrum.values[1:])
    return [
        FixedFamily(
            fixed_family_value(v, degree),
            count * per_value_mult,
            f"{tag} eigenvalue {v:.10g}",
        )
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

    A null g2 (g1) gives the vertex (edge) corona, whose per-eigenvalue
    polynomial is a cubic instead of the quartic; both null is refused.
    """
    if g1.is_null and g2.is_null:
        raise HypothesisError(
            "no closed form implemented for the bare R-graph (both copies null); "
            "use the numeric path"
        )
    p = CoronaParams.from_graphs(g, g1, g2)
    _require_base(g, p)
    if p.n2 == 0:
        factor, excess_poly = vertex_corona_cubic, RealPolynomial((-1.0, 1.0))
    elif p.n1 == 0:
        factor, excess_poly = edge_corona_cubic, excess_quadratic(p)
    else:
        factor, excess_poly = quartic_factor, excess_quadratic(p)
    fixed = _fixed_families(_copy_spectrum(g1, p.n1, p.r1), p.r1, p.n, "attach1")
    fixed += _fixed_families(_copy_spectrum(g2, p.n2, p.r2), p.r2, p.m, "attach2")
    roots = [
        RootFamily(factor(p, v), count, f"base eigenvalue {v:.10g}", quotient_matrix(p, v))
        for v, count in summarize(nl_spectrum(g), _GROUP_TOL).groups
    ]
    excess = (
        RootFamily(excess_poly, p.m - p.n, "edge excess", excess_quotient(p))
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
    return Spectrum(tuple(values), "closed-form")
