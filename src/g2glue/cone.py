"""Exact (rational) spectral data for the cone over SO(3): homogeneous
harmonic forms, critical rates, log-kernel checks, index jumps, an
independent Cartesian oracle on R^4 \\ {0}, and the exact weighted-exponent
rate calculator for the two-scale gluing tables.

Everything in this module is exact integer/Fraction arithmetic except the
oracle residual, which is exact symbolic differentiation reported as a
float.  Link spectra are explicit data tables generated from the classical
S^3 decomposition (functions: eigenvalue m(m+2), multiplicity (m+1)^2,
parity (-1)^m; coexact 1-forms: eigenvalue (m+1)^2, multiplicity 2m(m+2),
parity (-1)^{m+1}); the SO(3) tables are their even-parity subsets.  The
function entries are re-verified independently by polynomial algebra in
s3_function_spectrum_check, and the multiplicity-six entry at eigenvalue 4
is corroborated by the six explicit harmonic 2-forms of the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import sympy as sp

__all__ = [
    "SpectrumEntry", "LinkSpectrum", "so3_link", "s3_link",
    "LinkPairData", "cone_laplacian_apply", "HomogeneousRate",
    "critical_rates", "log_kernel_check", "index_change",
    "harmonic_oracle_r4", "order_minus2_basis", "decaying_pair_forms",
    "constant_two_forms", "s3_function_spectrum_check",
    "RatePiece", "jk_rate_bound", "naive_gradient_table",
    "naive_value_table", "refined_gradient_table", "refined_value_table",
    "kappa_feasible", "linf_exponent", "best_B",
    "InsufficientSpectrumError",
]


class InsufficientSpectrumError(ValueError):
    """The link tables do not cover the eigenvalue range a query needs."""


# ----------------------------------------------------------------------
# link spectra
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumEntry:
    eigenvalue: Fraction
    multiplicity: int
    kind: str          # 'function' or 'coexact1'
    parity: int        # +1 even / -1 odd under the antipodal map


@dataclass(frozen=True)
class LinkSpectrum:
    """Eigenvalue tables for a 3-dimensional link (S^3 or SO(3))."""
    name: str
    entries: tuple
    m_max: int

    def _covered(self, kind: str) -> Fraction:
        """Largest eigenvalue up to which the kind's table is complete."""
        if kind == "function":
            nxt = (self.m_max + 1) * (self.m_max + 3)
        else:
            nxt = (self.m_max + 2) ** 2
        return Fraction(nxt)

    def _select(self, kind: str, eig: Fraction) -> int:
        if eig >= self._covered(kind):
            raise InsufficientSpectrumError(
                f"{self.name}: {kind} table covers eigenvalues < "
                f"{self._covered(kind)}, requested {eig}")
        return sum(e.multiplicity for e in self.entries
                   if e.kind == kind and e.eigenvalue == eig)

    # -- multiplicities of eigenform species on a 3-manifold link --------
    # Betti numbers: b0 = b3 = 1, b1 = b2 = 0 for both S^3 and SO(3).
    def multiplicity(self, q: int, kind: str, eig: Fraction) -> int:
        """Multiplicity of degree-q eigenforms of the given kind.

        kinds: 'closed', 'coclosed', 'coexact', 'exact', 'function'.
        Degree 2 and 3 data come from degrees 1 and 0 through the Hodge
        star, which commutes with the Laplacian.
        """
        eig = Fraction(eig)
        if eig < 0:
            return 0
        if q == 0:
            if kind in ("closed",):          # closed 0-forms are constants
                return 1 if eig == 0 else 0
            if kind in ("coclosed", "function"):
                return self._select("function", eig) if eig > 0 else 1
            if kind in ("coexact",):         # nonconstant eigenfunctions
                return self._select("function", eig) if eig > 0 else 0
            if kind == "exact":
                return 0
        elif q == 1:
            if eig == 0:
                return 0                      # b1 = 0
            if kind == "exact":
                return self._select("function", eig)
            if kind == "coexact":
                return self._select("coexact1", eig)
            if kind == "closed":              # closed = exact (+ harmonic)
                return self._select("function", eig)
            if kind == "coclosed":
                return self._select("coexact1", eig)
        elif q == 2:                          # *(1-forms)
            swap = {"closed": "coclosed", "coclosed": "closed",
                    "exact": "coexact", "coexact": "exact"}
            return self.multiplicity(1, swap[kind], eig)
        elif q == 3:                          # *(functions)
            swap = {"closed": "coclosed", "coclosed": "closed",
                    "exact": "coexact", "coexact": "exact"}
            return self.multiplicity(0, swap[kind], eig)
        raise ValueError(f"bad query q={q} kind={kind}")

    def eigenvalues(self, q: int, kind: str, ceiling: Fraction):
        """All eigenvalues <= ceiling carried by the kind in degree q."""
        ceiling = Fraction(ceiling)
        out = set()
        for base_kind in ("function", "coexact1"):
            if self._covered(base_kind) <= ceiling:
                raise InsufficientSpectrumError(
                    f"{self.name}: need eigenvalues up to {ceiling}, "
                    f"{base_kind} table stops below that")
        candidates = {e.eigenvalue for e in self.entries}
        candidates.add(Fraction(0))
        for eig in sorted(candidates):
            if eig <= ceiling and self.multiplicity(q, kind, eig) > 0:
                out.add(eig)
        return sorted(out)


def s3_link(m_max: int = 40) -> LinkSpectrum:
    entries = []
    for m in range(0, m_max + 1):
        entries.append(SpectrumEntry(Fraction(m * (m + 2)), (m + 1) ** 2,
                                     "function", (-1) ** m))
        if m >= 1:
            entries.append(SpectrumEntry(Fraction((m + 1) ** 2),
                                         2 * m * (m + 2),
                                         "coexact1", (-1) ** (m + 1)))
    return LinkSpectrum("S3", tuple(entries), m_max)


def so3_link(m_max: int = 40) -> LinkSpectrum:
    entries = tuple(e for e in s3_link(m_max).entries if e.parity == 1)
    return LinkSpectrum("SO3", entries, m_max)


# ----------------------------------------------------------------------
# the cone Laplacian on homogeneous forms with log coefficients
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinkPairData:
    """Eigen-data of a coexact/exact link pair (alpha, beta):
    d alpha = c_da * beta, d* beta = c_db * alpha, so both are Laplace
    eigenforms with eigenvalue c_da * c_db."""
    c_da: Fraction
    c_db: Fraction

    @property
    def eigenvalue(self) -> Fraction:
        return self.c_da * self.c_db


def cone_laplacian_apply(lam, k: int, n: int, j: int, pair: LinkPairData,
                         delta_alpha=None, delta_beta=None):
    """Coefficients of Delta((log r)^j gamma) for gamma = r^{lam+k}
    (dr/r ^ alpha + beta) homogeneous of order lam on an n-dimensional cone.

    Returns (A, B): dicts {log power: rational coefficient}, the
    coefficient multiplying alpha (resp. beta) at each power of log r in
    the r^{lam+k-2} (dr/r ^ A + B) expansion.  delta_alpha/delta_beta
    override the Laplace eigenvalues of the pair (for inconsistency
    probes); by default they follow from the pair data.
    """
    lam = Fraction(lam)
    if n < 2:
        raise ValueError("need cone dimension n >= 2")
    if j < 0:
        raise ValueError("log power must be >= 0")
    e_a = Fraction(delta_alpha) if delta_alpha is not None else pair.eigenvalue
    e_b = Fraction(delta_beta) if delta_beta is not None else pair.eigenvalue
    if delta_alpha is not None or delta_beta is not None:
        if e_a != e_b:
            raise ValueError("inconsistent eigen-data: the pair relations "
                             "force equal Laplace eigenvalues")

    A: dict[int, Fraction] = {}
    B: dict[int, Fraction] = {}

    def add(d, power, coeff):
        if power >= 0 and coeff != 0:
            d[power] = d.get(power, Fraction(0)) + coeff

    # u ( Delta a - (lam+k-2)(lam+n-k) a - 2 d* b )
    add(A, j, e_a - (lam + k - 2) * (lam + n - k) - 2 * pair.c_db)
    # - r u' (2 lam + n - 1) a - r^2 u'' a  with u = log^j
    add(A, j - 1, -Fraction(j) * (2 * lam + n - 1))
    add(A, j - 2, -Fraction(j * (j - 1)))

    add(B, j, e_b - (lam + n - k - 2) * (lam + k) - 2 * pair.c_da)
    add(B, j - 1, -Fraction(j) * (2 * lam + n - 1))
    add(B, j - 2, -Fraction(j * (j - 1)))
    return A, B


# ----------------------------------------------------------------------
# critical rates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousRate:
    rate: Fraction
    degree: int
    case: str             # 'i', 'ii', 'iii', 'iv'
    dimension: int
    link_eigenvalue: Fraction


def _rational_sqrt(x: Fraction):
    """sqrt of a nonnegative rational if rational, else None."""
    if x < 0:
        return None
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def _solve_quadratic(a: Fraction, b: Fraction, E: Fraction):
    """Rational solutions of (lam + a)(lam + b) = E."""
    # lam^2 + (a+b) lam + ab - E = 0
    disc = (a - b) ** 2 + 4 * E
    root = _rational_sqrt(disc)
    if root is None:
        return []
    sols = {Fraction(-(a + b) + root, 2), Fraction(-(a + b) - root, 2)}
    return sorted(sols)


def _case_parameters(k: int, n: int):
    """(a, b, link degree, kind) per case of the four-type decomposition."""
    return {
        "i": (Fraction(k - 2), Fraction(n - k), k - 1, "closed"),
        "ii": (Fraction(k), Fraction(n - k), k - 1, "coexact"),
        "iii": (Fraction(k - 2), Fraction(n - k - 2), k - 1, "coexact"),
        "iv": (Fraction(n - k - 2), Fraction(k), k, "coclosed"),
    }


def critical_rates(link: LinkSpectrum, p: int, lam1, lam2,
                   n: int = 4) -> list[HomogeneousRate]:
    """All rates in [lam1, lam2) carrying nonzero homogeneous harmonic
    p-forms on the n-dimensional cone over the link, with dimensions.

    Rates come out of the four-case decomposition; only exact rational
    roots exist for rational spectra.  Cases (ii)/(iii) coincide at
    lam = -(n-2)/2 and are counted once there.
    """
    lam1, lam2 = Fraction(lam1), Fraction(lam2)
    if lam2 <= lam1:
        raise ValueError("need lam1 < lam2")
    if not (0 <= p <= n):
        raise ValueError("bad form degree")
    found: dict[Fraction, list] = {}
    for case, (a, b, q, kind) in _case_parameters(p, n).items():
        if q < 0 or q > 3:
            continue
        # eigenvalue demand over the interval: convex quadratics peak at
        # the endpoints
        ceiling = max((lam1 + a) * (lam1 + b), (lam2 + a) * (lam2 + b))
        for eig in link.eigenvalues(q, kind, ceiling):
            if case in ("ii", "iii") and eig == 0:
                continue  # zero pair is trivial
            for lam in _solve_quadratic(a, b, eig):
                if not (lam1 <= lam < lam2):
                    continue
                if case == "ii" and (lam + p == 0 or lam + n - p == 0):
                    continue
                if case == "iii" and (lam + p - 2 == 0 or lam + n - p - 2 == 0):
                    continue
                if case == "iii" and lam == Fraction(-(n - 2), 2):
                    continue  # coincides with case (ii); counted there
                mult = link.multiplicity(q, kind, eig)
                if mult > 0:
                    found.setdefault(lam, []).append(
                        HomogeneousRate(lam, p, case, mult, eig))
    out = []
    for lam in sorted(found):
        out.extend(found[lam])
    return out


def _case_iii_pair(lam: Fraction, k: int, n: int) -> LinkPairData:
    """The first-order relations of a case-(iii) pair at rate lam:
    d alpha = -(lam+n-k-2) beta, d* beta = -(lam+k-2) alpha."""
    return LinkPairData(c_da=-(lam + n - k - 2), c_db=-(lam + k - 2))


def log_kernel_check(lam, p: int, link: LinkSpectrum | None = None,
                     n: int = 4, pair: LinkPairData | None = None) -> bool:
    """True when homogeneous-with-log harmonic forms at rate lam reduce to
    the plain homogeneous ones (no log terms survive).

    Mechanics of the descending-coefficient argument: for each harmonic
    family at the rate, the top log coefficient of Delta((log r)^j gamma)
    must vanish through the pair relations, and the next coefficient
    -j (2 lam + n - 1) must be nonzero so the descent kills gamma_j for
    j > 0.  A synthetic pair violating the harmonic-case identity makes
    the recursion fail to close and returns False.
    """
    lam = Fraction(lam)
    link = link if link is not None else so3_link()
    rates = critical_rates(link, p, lam, lam + Fraction(1, 10**6), n=n) \
        if pair is None else []
    rates = [r for r in rates if r.rate == lam]
    if pair is None and not rates:
        return True          # empty kernel: vacuously log-free
    descent_coeff = -(2 * lam + n - 1)
    if descent_coeff == 0:
        return False
    pairs = []
    if pair is not None:
        pairs.append((pair, "iii"))
    else:
        for rate in rates:
            if rate.case in ("ii", "iii"):
                if rate.case == "iii":
                    pairs.append((_case_iii_pair(lam, p, n), rate.case))
                else:
                    pairs.append((LinkPairData(c_da=lam + p,
                                               c_db=lam + n - p), rate.case))
            # cases (i)/(iv): single eigenforms; their log-descent uses the
            # same -j(2 lam + n - 1) coefficient, nonzero here
    for pr, _case in pairs:
        A, B = cone_laplacian_apply(lam, p, n, 1, pr)
        if A.get(1, Fraction(0)) != 0 or B.get(1, Fraction(0)) != 0:
            return False      # harmonic-case identity fails: cannot descend
        if A.get(0, Fraction(0)) == 0 or B.get(0, Fraction(0)) == 0:
            return False      # descent term degenerates
    return True


def index_change(p: int, lam1, lam2, link: LinkSpectrum | None = None,
                 n: int = 4) -> int:
    """Index jump of the weighted Laplacian between rates lam1 < lam2:
    the sum of kernel dimensions over critical rates in (lam1, lam2)."""
    lam1, lam2 = Fraction(lam1), Fraction(lam2)
    link = link if link is not None else so3_link()
    eps = Fraction(1, 10 ** 9)
    for endpoint in (lam1, lam2):
        hits = critical_rates(link, p, endpoint, endpoint + eps, n=n)
        if any(r.rate == endpoint for r in hits):
            raise ValueError(f"endpoint {endpoint} is a critical rate")
    total = 0
    for rate in critical_rates(link, p, lam1 + eps, lam2, n=n):
        if not (lam1 < rate.rate < lam2):
            continue
        if not log_kernel_check(rate.rate, p, link, n=n):
            raise RuntimeError("log terms spoil the kernel-dimension count "
                               f"at rate {rate.rate}")
        total += rate.dimension
    return total


# ----------------------------------------------------------------------
# Cartesian oracle on R^4 \ {0}
# ----------------------------------------------------------------------

_X = sp.symbols("x1:5", real=True)
_S = sum(x ** 2 for x in _X)

_PAIRS4 = tuple(combinations(range(4), 2))


def _two_form(coeffs: dict) -> dict:
    """Normalize a {(i,j): expr} 2-form dict (i < j)."""
    out = {}
    for (i, j), c in coeffs.items():
        c = sp.sympify(c)
        if i == j:
            raise ValueError("repeated index")
        if i > j:
            i, j, c = j, i, -c
        out[(i, j)] = sp.expand(out.get((i, j), 0) + c)
    return {k: v for k, v in out.items() if v != 0}


def constant_two_forms():
    """The three self-dual and three anti-self-dual constant 2-forms."""
    sd = [_two_form({(0, 1): 1, (2, 3): 1}),
          _two_form({(0, 2): 1, (3, 1): 1}),
          _two_form({(0, 3): 1, (1, 2): 1})]
    asd = [_two_form({(0, 1): 1, (2, 3): -1}),
           _two_form({(0, 2): 1, (3, 1): -1}),
           _two_form({(0, 3): 1, (1, 2): -1})]
    return sd, asd


def order_minus2_basis():
    """Six harmonic 2-forms homogeneous of order -2 on R^4 minus the
    origin: |x|^{-2} times each constant (anti-)self-dual form.  All are
    invariant under x -> -x, hence descend to the quotient by +-1."""
    sd, asd = constant_two_forms()
    return [{ij: c / _S for ij, c in w.items()} for w in sd + asd]


def _interior_position(omega: dict) -> dict:
    """mu = V -| omega for the position field V = sum x_i d/dx_i."""
    out = {}
    for (i, j), c in omega.items():
        out[i] = sp.expand(out.get(i, 0) + c * (-_X[j]))
        out[j] = sp.expand(out.get(j, 0) + c * _X[i])
    # (V -| dx_i ^ dx_j) = x_i dx_j - x_j dx_i
    fixed = {}
    for (i, j), c in omega.items():
        fixed[j] = sp.expand(fixed.get(j, 0) + c * _X[i])
        fixed[i] = sp.expand(fixed.get(i, 0) - c * _X[j])
    return fixed


def decaying_pair_forms():
    """The order -4 harmonic combinations s^{-3} xi ^ mu - s^{-2} omega / 2
    (xi = sum x_i dx_i, mu = V -| omega), one per chirality: the Cartesian
    shape of the L^2 harmonic form of the family at k = 0 and its hatted
    analogue."""
    sd, asd = constant_two_forms()
    out = []
    for omega in (sd[0], asd[0]):
        mu = _interior_position(omega)
        xi_mu = {}
        for i in range(4):
            for j, c in mu.items():
                if i == j:
                    continue
                a, b, s = (i, j, 1) if i < j else (j, i, -1)
                xi_mu[(a, b)] = sp.expand(xi_mu.get((a, b), 0)
                                          + s * _X[i] * c)
        cand = {}
        for ij in set(xi_mu) | set(omega):
            cand[ij] = sp.together(xi_mu.get(ij, 0) / _S ** 3
                                   - omega.get(ij, 0) / (2 * _S ** 2))
        out.append(_two_form(cand))
    return out


def _homogeneity_order(form: dict):
    """Common Euler degree of the components, or None if inhomogeneous."""
    order = None
    for c in form.values():
        euler = sp.simplify(sum(x * sp.diff(c, x) for x in _X))
        if sp.simplify(euler) == 0 and sp.simplify(c) == 0:
            continue
        ratio = sp.simplify(euler / c)
        if not ratio.is_number:
            return None
        if order is None:
            order = ratio
        elif sp.simplify(ratio - order) != 0:
            return None
    return order


def harmonic_oracle_r4(candidate: dict, require_homogeneous: bool = True):
    """Componentwise Hodge-Laplacian residual of a 2-form on R^4 \\ {0}
    by exact symbolic differentiation.

    Returns {"residual": float, "order": sympy number, "closed": bool,
    "coclosed": bool}.  residual is 0.0 exactly when every component of
    sum_i d^2/dx_i^2 simplifies to zero.  Raises for inhomogeneous
    candidates unless require_homogeneous=False.
    """
    form = _two_form(candidate)
    order = _homogeneity_order(form)
    if require_homogeneous and order is None:
        raise ValueError("candidate is not homogeneous of a single order")

    residual = 0.0
    for c in form.values():
        lap = sp.simplify(sum(sp.diff(c, x, 2) for x in _X))
        if lap != 0:
            # sample on rational points away from the origin
            vals = []
            for pt in [(1, 0, 0, 0), (1, 2, -1, 3), (2, 1, 1, 1)]:
                vals.append(abs(float(lap.subs(dict(zip(_X, pt))))))
            residual = max(residual, max(vals))

    # closedness: d of the 2-form
    closed = True
    for (i, j, k) in combinations(range(4), 3):
        term = (sp.diff(form.get((j, k), sp.Integer(0)), _X[i])
                - sp.diff(form.get((i, k), sp.Integer(0)), _X[j])
                + sp.diff(form.get((i, j), sp.Integer(0)), _X[k]))
        if sp.simplify(term) != 0:
            closed = False
            break
    # coclosedness: divergence of the components row by row
    coclosed = True
    for i in range(4):
        div = sp.Integer(0)
        for j in range(4):
            if i == j:
                continue
            a, b, s = (i, j, 1) if i < j else (j, i, -1)
            div += s * sp.diff(form.get((a, b), sp.Integer(0)), _X[j])
        if sp.simplify(div) != 0:
            coclosed = False
            break
    return {"residual": residual, "order": order,
            "closed": closed, "coclosed": coclosed}


# ----------------------------------------------------------------------
# function spectrum on S^3 by polynomial algebra
# ----------------------------------------------------------------------

def s3_function_spectrum_check(m: int) -> dict:
    """Verify the degree-m seed harmonic polynomial Re((x1 + i x2)^m)
    restricts to a Laplace eigenfunction on S^3 with eigenvalue m(m+2)
    and antipodal parity (-1)^m, by exact polynomial algebra.

    The verification is mechanical: (a) the Euclidean Laplacian of p
    vanishes identically; (b) p is Euler-homogeneous of degree m; (c) the
    radial calculus identity Delta(p s^{-m/2}) = -m(m+2) p s^{-m/2-1}
    (s = |x|^2) combines (a), (b) and the exact coefficient arithmetic
    -2m^2 + m(m-2) = -m(m+2), which gives the sphere eigenvalue.
    """
    if not (0 <= m <= 8):
        raise ValueError("m must lie in 0..8")
    z = _X[0] + sp.I * _X[1]
    p = sp.expand(sp.re(z ** m))
    if p == 0:
        raise ValueError("seed polynomial vanished")
    lap = sp.expand(sum(sp.diff(p, x, 2) for x in _X))
    if lap != 0:
        raise ValueError("seed polynomial is not harmonic")
    euler = sp.expand(sum(x * sp.diff(p, x) for x in _X) - m * p)
    if euler != 0:
        raise ValueError("seed polynomial is not homogeneous of degree m")
    # radial calculus with exact rationals:
    # Delta(s^a) = 4a(a+1) s^{a-1}, grad contributions give -2m^2
    a = Fraction(-m, 2)
    radial = 4 * a * (a + 1)            # m(m-2)
    cross = Fraction(-2 * m * m)
    eigen = -(radial + cross)           # m(m+2), sign-flipped to Hodge
    if eigen != m * (m + 2):
        raise RuntimeError(f"radial calculus gave {eigen}, not m(m+2)")
    parity_poly = sp.expand(p.subs(dict(zip(_X, [-x for x in _X]))) -
                            (-1) ** m * p)
    parity_ok = parity_poly == 0
    return {
        "m": m,
        "eigenvalue": int(eigen),
        "parity": (-1) ** m,
        "parity_verified": parity_ok,
        "descends_to_so3": m % 2 == 0,
        "residual": 0.0,
    }


# ----------------------------------------------------------------------
# the exact rate calculator for the two-scale torsion tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RatePiece:
    """Bound of the form sum_i t^{a_i} rcheck^{b_i} on the radial region
    rcheck in [t^{e_lo}, t^{e_hi}] (exponents e_lo >= e_hi, both <= 0;
    the core region rcheck <= 1 is (0, 0))."""
    label: str
    e_lo: Fraction
    e_hi: Fraction
    terms: tuple     # of (a, b) Fraction pairs

    def __post_init__(self):
        object.__setattr__(self, "e_lo", Fraction(self.e_lo))
        object.__setattr__(self, "e_hi", Fraction(self.e_hi))
        object.__setattr__(self, "terms",
                           tuple((Fraction(a), Fraction(b))
                                 for a, b in self.terms))
        if self.e_hi > self.e_lo:
            raise ValueError("region endpoints must satisfy e_lo >= e_hi")


def jk_rate_bound(pieces: list, weight_exponent) -> Fraction | None:
    """Exact dominant t-exponent of sup over the manifold of
    w_t^{-weight} * |piece|, with w_t ~ t (1 + rcheck).

    At rcheck = t^e (e <= 0) a term t^a rcheck^b weighted by
    w^{-weight} contributes exponent a + b e - weight (1 + e); the sup
    over a region of an affine exponent sits at an endpoint.  Returns the
    minimum exponent (the dominant power of t as t -> 0), or None when
    every piece is zero (no constraint).  Raises on radial coverage gaps.
    """
    weight = Fraction(weight_exponent)
    if not pieces:
        return None
    spans = sorted(((p.e_lo, p.e_hi) for p in pieces), reverse=True)
    if spans[0][0] != 0:
        raise ValueError("regions must start at the core rcheck <= 1")
    reach = spans[0][1]
    for lo, hi in spans[1:]:
        if lo > reach:
            continue
        if lo < reach:
            raise ValueError(f"uncovered radial region between t^{reach} "
                             f"and t^{lo}")
        reach = hi
    best = None
    for piece in pieces:
        for (a, b) in piece.terms:
            for e in (piece.e_lo, piece.e_hi):
                expo = a + b * e - weight * (1 + e)
                best = expo if best is None or expo < best else best
    return best


def _p(label, e_lo, e_hi, terms):
    return RatePiece(label, e_lo, e_hi, terms)


def naive_gradient_table(B) -> list:
    """|grad(torsion 4-form)| of the one-cutoff gluing: O(1) in the core,
    O(rcheck^-4) in the transition tail, O(t^-1 rcheck^-5 + 1) on the
    interpolation neck at rcheck ~ t^B, zero outside."""
    B = Fraction(B)
    return [
        _p("core", 0, 0, [(0, 0)]),
        _p("tail", 0, B, [(0, -4)]),
        _p("neck", B, B, [(-1, -5), (0, 0)]),
    ]


def naive_value_table(B) -> list:
    """|torsion 4-form| itself: O(t) core, O(t rcheck^-3) tail,
    O(t^{-4B} + t^{1+B}) neck."""
    B = Fraction(B)
    return [
        _p("core", 0, 0, [(1, 0)]),
        _p("tail", 0, B, [(1, -3)]),
        _p("neck", B, B, [(0, -4), (1, 1)]),
    ]


def refined_gradient_table(gamma=Fraction(1, 1000)) -> list:
    """Gradient bounds of the corrected (second-order matched) structure:
    two interpolation scales at rcheck ~ t^{-1/9} and rcheck ~ t^{-4/5}."""
    g = Fraction(gamma)
    return [
        _p("core", 0, 0, [(1, 0)]),
        _p("inner", 0, Fraction(-1, 9), [(1, 1)]),
        _p("bump1", Fraction(-1, 9), Fraction(-1, 9), [(Fraction(8, 9), 0)]),
        _p("mid", Fraction(-1, 9), Fraction(-4, 5), [(1, -3 + g)]),
        _p("bump2", Fraction(-4, 5), Fraction(-4, 5), [(3, 0)]),
    ]


def refined_value_table(gamma=Fraction(1, 1000)) -> list:
    g = Fraction(gamma)
    return [
        _p("core", 0, 0, [(2, 0)]),
        _p("inner", 0, Fraction(-1, 9), [(2, 2)]),
        _p("bump1", Fraction(-1, 9), Fraction(-1, 9), [(Fraction(16, 9), 0)]),
        _p("mid", Fraction(-1, 9), Fraction(-4, 5), [(2, -2 + g)]),
        _p("bump2", Fraction(-4, 5), Fraction(-4, 5), [(Fraction(16, 5), 0)]),
    ]


def kappa_feasible(kappa, beta, alpha) -> bool:
    """Smallness threshold feeding the correction iteration:
    kappa > 1 - beta + alpha with beta in (-4, 0), alpha in (0, 1)."""
    kappa, beta, alpha = Fraction(kappa), Fraction(beta), Fraction(alpha)
    if not (Fraction(-4) < beta < 0):
        raise ValueError("beta must lie in (-4, 0)")
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    return kappa > 1 - beta + alpha


def linf_exponent(kappa, beta) -> Fraction:
    """Uniform-norm decay exponent implied by the weighted estimate:
    |difference| <= t^kappa w^{beta-1} <= t^{kappa + beta - 1}."""
    return Fraction(kappa) + Fraction(beta) - 1


def best_B(table_builder, weight_exponent, grid_denominator: int = 20):
    """Scan B on a rational grid in [-1, 0] maximizing the dominant
    exponent of the given table; returns (B, exponent)."""
    best = None
    for num in range(-grid_denominator, 1):
        B = Fraction(num, grid_denominator)
        expo = jk_rate_bound(table_builder(B), weight_exponent)
        if expo is not None and (best is None or expo > best[1]):
            best = (B, expo)
    return best
