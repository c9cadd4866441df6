"""Exact (rational) spectral data for the cone over SO(3): homogeneous
harmonic forms, critical rates, log-kernel checks, index jumps, an
independent Cartesian oracle on R^4 \\ {0}, and the exact weighted-exponent
rate calculator for the two-scale gluing tables.

Everything in this module is exact integer/Fraction arithmetic, or, in
the oracle, polynomial arithmetic over QQ on components P |x|^(-2a); only
the oracle residual is reported as a float.  Link spectra are explicit
data tables generated from the classical S^3 decomposition (functions:
eigenvalue m(m+2), multiplicity (m+1)^2, parity (-1)^m; coexact 1-forms:
eigenvalue (m+1)^2, multiplicity 2m(m+2), parity (-1)^{m+1}); the SO(3)
tables are their even-parity subsets.  s3_function_spectrum_check computes
the function eigenvalues from the seed polynomials with the oracle's
Laplacian, and the multiplicity-six entry at eigenvalue 4 is corroborated
by the six explicit harmonic 2-forms of the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from .forms import _wedge_table, index_list, sort_index

__all__ = [
    "SpectrumEntry", "LinkSpectrum", "so3_link", "s3_link",
    "LinkPairData", "cone_laplacian_apply", "HomogeneousRate",
    "critical_rates", "log_kernel_check", "index_change",
    "harmonic_oracle_r4", "order_minus2_basis", "decaying_pair_forms",
    "constant_two_forms", "s3_function_spectrum_check",
    "RatePiece", "jk_rate_bound", "naive_gradient_table",
    "naive_value_table", "refined_gradient_table",
    "kappa_feasible", "linf_exponent", "best_B",
    "InsufficientSpectrumError",
]


class InsufficientSpectrumError(ValueError):
    """The link tables do not cover the eigenvalue range a query needs."""


# n, the cone's dimension: the link tables below are those of a
# 3-dimensional link (S^3 or SO(3)), so the cone over it is 4-dimensional.
_N = 4


# ----------------------------------------------------------------------
# link spectra
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumEntry:
    eigenvalue: Fraction
    multiplicity: int
    kind: str          # 'function' or 'coexact1'
    parity: int        # +1 even / -1 odd under the antipodal map


# The Hodge star of the link exchanges closed with coclosed and exact with
# coexact forms.
_STAR_KIND = {"closed": "coclosed", "coclosed": "closed",
              "exact": "coexact", "coexact": "exact"}


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
        elif q in (2, 3):                     # *(1-forms), *(functions)
            return self.multiplicity(3 - q, _STAR_KIND[kind], eig)
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


def cone_laplacian_apply(lam, k: int, j: int, pair: LinkPairData):
    """Coefficients of Delta((log r)^j gamma) for gamma = r^{lam+k}
    (dr/r ^ alpha + beta) homogeneous of order lam on an n-dimensional cone.

    Returns (A, B): dicts {log power: rational coefficient}, the
    coefficient multiplying alpha (resp. beta) at each power of log r in
    the r^{lam+k-2} (dr/r ^ A + B) expansion.  alpha and beta share the
    Laplace eigenvalue of the pair.
    """
    lam = Fraction(lam)
    if j < 0:
        raise ValueError("log power must be >= 0")
    e = pair.eigenvalue

    A: dict[int, Fraction] = {}
    B: dict[int, Fraction] = {}

    def add(d, power, coeff):
        if power >= 0 and coeff != 0:
            d[power] = d.get(power, Fraction(0)) + coeff

    # u ( Delta a - (lam+k-2)(lam+n-k) a - 2 d* b )
    add(A, j, e - (lam + k - 2) * (lam + _N - k) - 2 * pair.c_db)
    # - r u' (2 lam + n - 1) a - r^2 u'' a  with u = log^j
    add(A, j - 1, -Fraction(j) * (2 * lam + _N - 1))
    add(A, j - 2, -Fraction(j * (j - 1)))

    add(B, j, e - (lam + _N - k - 2) * (lam + k) - 2 * pair.c_da)
    add(B, j - 1, -Fraction(j) * (2 * lam + _N - 1))
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


def _case_parameters(k: int):
    """(a, b, link degree, kind) per case of the four-type decomposition."""
    return {
        "i": (Fraction(k - 2), Fraction(_N - k), k - 1, "closed"),
        "ii": (Fraction(k), Fraction(_N - k), k - 1, "coexact"),
        "iii": (Fraction(k - 2), Fraction(_N - k - 2), k - 1, "coexact"),
        "iv": (Fraction(_N - k - 2), Fraction(k), k, "coclosed"),
    }


def critical_rates(link: LinkSpectrum, p: int, lam1,
                   lam2) -> list[HomogeneousRate]:
    """All rates in [lam1, lam2) carrying nonzero homogeneous harmonic
    p-forms on the n-dimensional cone over the link, with dimensions.

    Rates come out of the four-case decomposition; only exact rational
    roots exist for rational spectra.  Cases (ii)/(iii) coincide at
    lam = -(n-2)/2 and are counted once there.
    """
    lam1, lam2 = Fraction(lam1), Fraction(lam2)
    if lam2 <= lam1:
        raise ValueError("need lam1 < lam2")
    if not (0 <= p <= _N):
        raise ValueError("bad form degree")
    found: dict[Fraction, list] = {}
    for case, (a, b, q, kind) in _case_parameters(p).items():
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
                if case == "ii" and (lam + p == 0 or lam + _N - p == 0):
                    continue
                if case == "iii" and (lam + p - 2 == 0 or lam + _N - p - 2 == 0):
                    continue
                if case == "iii" and lam == Fraction(-(_N - 2), 2):
                    continue  # coincides with case (ii); counted there
                mult = link.multiplicity(q, kind, eig)
                if mult > 0:
                    found.setdefault(lam, []).append(
                        HomogeneousRate(lam, p, case, mult, eig))
    out = []
    for lam in sorted(found):
        out.extend(found[lam])
    return out


def _case_iii_pair(lam: Fraction, k: int) -> LinkPairData:
    """The first-order relations of a case-(iii) pair at rate lam:
    d alpha = -(lam+n-k-2) beta, d* beta = -(lam+k-2) alpha."""
    return LinkPairData(c_da=-(lam + _N - k - 2), c_db=-(lam + k - 2))


def log_kernel_check(lam, p: int, pair: LinkPairData | None = None) -> bool:
    """True when homogeneous-with-log harmonic forms at rate lam reduce to
    the plain homogeneous ones (no log terms survive).

    Mechanics of the descending-coefficient argument: for each harmonic
    family at the rate, the top log coefficient of Delta((log r)^j gamma)
    must vanish through the pair relations, and the next coefficient
    -j (2 lam + n - 1) must be nonzero so the descent kills gamma_j for
    j > 0.  A synthetic pair violating the harmonic-case identity makes
    the recursion fail to close and returns False.

    Without a synthetic pair the check cannot fail on a rate that
    critical_rates returns: under the case-(ii)/(iii) pair relations the
    log^1 coefficients vanish identically in lam, so it returns False
    only at 2 lam + n - 1 = 0, and no critical rate of degree 0..4 in
    [-12, 10) lies there.
    """
    lam = Fraction(lam)
    rates = critical_rates(so3_link(), p, lam, lam + Fraction(1, 10**6)) \
        if pair is None else []
    rates = [r for r in rates if r.rate == lam]
    if pair is None and not rates:
        return True          # empty kernel: vacuously log-free
    descent_coeff = -(2 * lam + _N - 1)
    if descent_coeff == 0:
        return False
    pairs = []
    if pair is not None:
        pairs.append((pair, "iii"))
    else:
        for rate in rates:
            if rate.case in ("ii", "iii"):
                if rate.case == "iii":
                    pairs.append((_case_iii_pair(lam, p), rate.case))
                else:
                    pairs.append((LinkPairData(c_da=lam + p,
                                               c_db=lam + _N - p), rate.case))
            # cases (i)/(iv): single eigenforms; their log-descent uses the
            # same -j(2 lam + n - 1) coefficient, nonzero here
    for pr, _case in pairs:
        A, B = cone_laplacian_apply(lam, p, 1, pr)
        if A.get(1, Fraction(0)) != 0 or B.get(1, Fraction(0)) != 0:
            return False      # harmonic-case identity fails: cannot descend
    return True


def index_change(p: int, lam1, lam2) -> int:
    """Index jump of the weighted Laplacian on the cone over SO(3) between
    rates lam1 < lam2: the sum of kernel dimensions over critical rates in
    (lam1, lam2)."""
    lam1, lam2 = Fraction(lam1), Fraction(lam2)
    link = so3_link()
    eps = Fraction(1, 10 ** 9)
    for endpoint in (lam1, lam2):
        hits = critical_rates(link, p, endpoint, endpoint + eps)
        if any(r.rate == endpoint for r in hits):
            raise ValueError(f"endpoint {endpoint} is a critical rate")
    total = 0
    for rate in critical_rates(link, p, lam1 + eps, lam2):
        if not log_kernel_check(rate.rate, p):
            raise RuntimeError("log terms spoil the kernel-dimension count "
                               f"at rate {rate.rate}")
        total += rate.dimension
    return total


# ----------------------------------------------------------------------
# Cartesian oracle on R^4 \ {0}
# ----------------------------------------------------------------------

_X = sp.symbols("x1:5", real=True)
_S = sum(x ** 2 for x in _X)


def _two_form(coeffs: dict) -> dict:
    """Normalize a {(i,j): expr} 2-form dict (i < j)."""
    out = {}
    for key, c in coeffs.items():
        sign, ij = sort_index(key)
        if sign == 0 or len(ij) != 2:
            raise ValueError(f"{key} is not a pair of distinct indices")
        out[ij] = sp.expand(out.get(ij, 0) + sign * sp.sympify(c))
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


def decaying_pair_forms():
    """The order -4 harmonic combinations s^{-3} xi ^ mu - s^{-2} omega / 2
    (xi = sum x_i dx_i, mu = V -| omega), one per chirality: the Cartesian
    shape of the L^2 harmonic form of the family at k = 0 and its hatted
    analogue."""
    sd, asd = constant_two_forms()
    pairs = index_list(_N, 2)
    # dx_a ^ dx_b = sign dx_ab, so also d/dx_a -| dx_ab = sign dx_b
    table = _wedge_table(_N, 1, 1)
    out = []
    for omega in (sd[0], asd[0]):
        mu = {}
        for a, b, ab, sign in table:
            if pairs[ab] in omega:
                mu[b] = sp.expand(mu.get(b, 0)
                                  + sign * _X[a] * omega[pairs[ab]])
        xi_mu = {}
        for a, b, ab, sign in table:
            if b in mu:
                xi_mu[pairs[ab]] = sp.expand(xi_mu.get(pairs[ab], 0)
                                             + sign * _X[a] * mu[b])
        cand = {}
        for ij in set(xi_mu) | set(omega):
            cand[ij] = sp.together(xi_mu.get(ij, 0) / _S ** 3
                                   - omega.get(ij, 0) / (2 * _S ** 2))
        out.append(_two_form(cand))
    return out


# The oracle holds each component as a term (P, a), meaning P * S^(-a) with
# P a homogeneous polynomial over QQ and S = |x|^2.  Derivatives of terms
# are terms again, so every "is this zero?" is a polynomial test.

def _poly(expr) -> sp.Poly:
    return sp.Poly(expr, *_X, domain="QQ")


_SP = _poly(_S)
_XP = tuple(_poly(x) for x in _X)
_ZERO = _poly(0)


def _term(expr):
    """(P, a) with expr = P * S^(-a).  Raises ValueError unless expr is
    rational over QQ, its reduced denominator is a constant times a power
    of S and its numerator is homogeneous."""
    num, den = sp.fraction(sp.cancel(expr))
    try:
        P, Q = _poly(num), _poly(den)
    except sp.polys.polyerrors.BasePolynomialError as exc:
        raise ValueError(f"{expr} is not rational in x1..x4 over QQ") from exc
    a = Q.total_degree() // 2
    c, rem = Q.div(_SP ** a)
    if not (rem.is_zero and c.is_ground):
        raise ValueError(f"denominator {den} is not a power of |x|^2")
    if not P.is_homogeneous:
        raise ValueError(f"numerator {num} is not homogeneous")
    return P.quo_ground(c.LC()), a


def _diff(term, i: int):
    """d/dx_i (P S^-a) = (S dP/dx_i - 2a x_i P) S^(-a-1)."""
    P, a = term
    return _SP * P.diff(_X[i]) - 2 * a * _XP[i] * P, a + 1


def _laplacian(term):
    """sum_i d^2/dx_i^2 (P S^-a) = (S Delta P - 4a x.grad P + 4a(a-1) P)
    S^(-a-1), which is _diff applied twice and summed over i, using
    sum_i x_i^2 = S."""
    P, a = term
    lap = sum((P.diff((x, 2)) for x in _X), _ZERO)
    euler = sum((xp * P.diff(x) for xp, x in zip(_XP, _X)), _ZERO)
    return _SP * lap - 4 * a * euler + 4 * a * (a - 1) * P, a + 1


def _combine(terms):
    """Sum of terms at their highest power of S."""
    top = max(a for _, a in terms)
    return sum((P * _SP ** (top - a) for P, a in terms), _ZERO), top


def harmonic_oracle_r4(candidate: dict):
    """Componentwise Hodge-Laplacian residual of a 2-form on R^4 \\ {0}
    by exact polynomial arithmetic on components P |x|^(-2a).

    Returns {"residual": float, "order": int, "closed": bool,
    "coclosed": bool}.  residual is 0.0 exactly when every component of
    sum_i d^2/dx_i^2 vanishes identically; order is deg P - 2a.  Raises
    ValueError for inhomogeneous candidates and for components whose
    denominator is not a power of |x|^2.
    """
    form = {ij: _term(c) for ij, c in _two_form(candidate).items()}
    orders = {P.total_degree() - 2 * a for P, a in form.values()
              if not P.is_zero}
    if len(orders) != 1:
        raise ValueError("candidate is not homogeneous of a single order")

    residual = 0.0
    for term in form.values():
        lap, a = _laplacian(term)
        for pt in ((1, 0, 0, 0), (1, 2, -1, 3), (2, 1, 1, 1)):
            value = lap(*pt) / sum(v * v for v in pt) ** a
            residual = max(residual, abs(float(value)))

    slots = [form.get(ij, (_ZERO, 0)) for ij in index_list(_N, 2)]
    # each slot negated once: sign * P would build a Poly from the int
    signed = {1: slots, -1: [(-P, a) for P, a in slots]}

    def vanishes(q: int) -> bool:
        """d omega (q = 3) or -delta omega (q = 1) is zero, tested one
        output slot at a time: dx_a ^ dx_I = sign dx_J gives
        (d omega)_J = sum sign d_a omega_I and (-delta omega)_I =
        sum sign d_a omega_J."""
        rows = {}
        for a, lo, hi, sign in _wedge_table(_N, 1, min(2, q)):
            i, o = (lo, hi) if q > 2 else (hi, lo)
            rows.setdefault(o, []).append((a, i, sign))
        return all(_combine([_diff(signed[sign][i], a)
                             for a, i, sign in row])[0].is_zero
                   for row in rows.values())

    closed, coclosed = vanishes(3), vanishes(1)
    order, = orders
    return {"residual": residual, "order": order,
            "closed": closed, "coclosed": coclosed}


# ----------------------------------------------------------------------
# function spectrum on S^3 by polynomial algebra
# ----------------------------------------------------------------------

def _sphere_eigenvalue(p: sp.Poly):
    """Laplace eigenvalue on S^3 of the restriction of a homogeneous
    polynomial p of degree m.  p S^(-m/2) has Euler degree 0, so its
    Laplacian on R^4 \\ {0} is S^-1 times the sphere Laplacian of the
    restriction: an eigenfunction with eigenvalue lambda gives
    -lambda p S^(-m/2-1).  lambda is read off as the exact quotient by p;
    raises RuntimeError when that quotient is not a constant."""
    lap, _ = _laplacian((p, sp.Rational(p.total_degree(), 2)))
    quotient, rem = lap.div(p)
    if not (rem.is_zero and quotient.is_ground):
        raise RuntimeError(f"{p.as_expr()} does not restrict to a Laplace "
                           "eigenfunction on S^3")
    return -quotient.LC()


def s3_function_spectrum_check(m: int) -> dict:
    """Laplace eigenvalue and antipodal parity on S^3 of the degree-m
    seed harmonic polynomial p = Re((x1 + i x2)^m), by exact polynomial
    algebra.  The eigenvalue is computed from p, not assumed: the
    oracle's Laplacian is applied to p |x|^(-m) and divided exactly by p
    (_sphere_eigenvalue).  The classical value is m(m+2).  The parity is
    read off p too, as the polynomial identity p(-x) = +-p(x); the
    restriction is a function on SO(3) = S^3/{+-1} exactly when it is +1.
    """
    if not (0 <= m <= 8):
        raise ValueError("m must lie in 0..8")
    z = _X[0] + sp.I * _X[1]
    p = sp.expand(sp.re(z ** m))
    if p == 0:
        raise ValueError("seed polynomial vanished")
    eigen = _sphere_eigenvalue(_poly(p))
    antipodal = p.subs(dict(zip(_X, [-x for x in _X])), simultaneous=True)
    if sp.expand(antipodal - p) == 0:
        parity = 1
    elif sp.expand(antipodal + p) == 0:
        parity = -1
    else:
        raise RuntimeError(f"{p} is neither even nor odd under x -> -x")
    return {
        "m": m,
        "eigenvalue": int(eigen),
        "parity": parity,
        "descends_to_so3": parity == 1,
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


def naive_gradient_table(B) -> list:
    """|grad(torsion 4-form)| of the one-cutoff gluing: O(1) in the core,
    O(rcheck^-4) in the transition tail, O(t^-1 rcheck^-5 + 1) on the
    interpolation neck at rcheck ~ t^B, zero outside."""
    B = Fraction(B)
    return [
        RatePiece("core", 0, 0, [(0, 0)]),
        RatePiece("tail", 0, B, [(0, -4)]),
        RatePiece("neck", B, B, [(-1, -5), (0, 0)]),
    ]


def naive_value_table(B) -> list:
    """|torsion 4-form| itself: O(t) core, O(t rcheck^-3) tail,
    O(t^{-4B} + t^{1+B}) neck."""
    B = Fraction(B)
    return [
        RatePiece("core", 0, 0, [(1, 0)]),
        RatePiece("tail", 0, B, [(1, -3)]),
        RatePiece("neck", B, B, [(0, -4), (1, 1)]),
    ]


def refined_gradient_table() -> list:
    """Gradient bounds of the corrected (second-order matched) structure:
    two interpolation scales at rcheck ~ t^{-1/9} and rcheck ~ t^{-4/5},
    with the mid-region loss rcheck^g at g = 1/1000."""
    g = Fraction(1, 1000)
    return [
        RatePiece("core", 0, 0, [(1, 0)]),
        RatePiece("inner", 0, Fraction(-1, 9), [(1, 1)]),
        RatePiece("bump1", Fraction(-1, 9), Fraction(-1, 9),
                  [(Fraction(8, 9), 0)]),
        RatePiece("mid", Fraction(-1, 9), Fraction(-4, 5), [(1, -3 + g)]),
        RatePiece("bump2", Fraction(-4, 5), Fraction(-4, 5), [(3, 0)]),
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


def best_B(table_builder, weight_exponent):
    """Scan B on the grid k/20 in [-1, 0] maximizing the dominant exponent
    of the given table; returns (B, exponent)."""
    best = None
    for num in range(-20, 1):
        B = Fraction(num, 20)
        expo = jk_rate_bound(table_builder(B), weight_exponent)
        if expo is not None and (best is None or expo > best[1]):
            best = (B, expo)
    return best
