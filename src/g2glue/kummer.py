"""The generalized Kummer construction on T^7/Gamma: group combinatorics,
singular-set enumeration, the glued 3-form with its torsion, and
decay-exponent certification.

Combinatorics are exact (Fraction arithmetic over half-integer shifts).
The involutions below use the convention that the associative coordinates
sit last (alpha fixes the (x5, x6, x7) torus); the flat 3-form they
preserve is INVARIANT_PHI_TERMS, the image of forms.phi0 under the signed
permutation L (L_PERM, L_SIGNS), and a positive G2-form (its
reconstructed metric is the identity).

Chart-wise geometry: the gluing chart carries the coframe
(delta1, delta2, delta3, dt, e1, e2, e3) with the Eguchi-Hanson
orthonormal legs in slots 3..6.  The cutoff argument is the flat-model
distance s(r) = 2 sqrt(r), zeta = 1/9, with a quintic C^2 step between
zeta/4 and zeta/2.

The group layer imports neither sympy nor eguchi_hanson, so torus reads
the group without loading them; the geometry functions that need them
import them on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import ClassVar

import numpy as np

from .forms import (Form, PositivityError, _read_only, _theta_at, hodge_star,
                    index_list, index_position, inner_product, metric_from_g2,
                    phi0, pullback, sort_index, wedge)

__all__ = [
    "TorusIsometry", "ALPHA", "BETA", "GAMMA", "L_PERM", "L_SIGNS",
    "INVARIANT_PHI_TERMS",
    "gamma_elements", "FixedTorus",
    "fixed_point_tori", "singular_components", "GluingChart",
    "glued_structure", "torsion_form", "closedness_residual",
    "torsion_decay_fit", "plateau_metric_error",
]

HALF = Fraction(1, 2)


# ----------------------------------------------------------------------
# the group
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TorusIsometry:
    """x -> signs * x + shift on T^7 = R^7 / Z^7 (entries mod 1)."""
    signs: tuple
    shift: tuple
    name: str = ""

    def __post_init__(self):
        if len(self.signs) != 7 or len(self.shift) != 7:
            raise ValueError("need 7 coordinates")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")
        shift = tuple(Fraction(a) % 1 for a in self.shift)
        if any(a not in (0, HALF) for a in shift):
            raise ValueError("shifts must be 0 or 1/2 mod 1")
        object.__setattr__(self, "shift", shift)

    def compose(self, other: "TorusIsometry") -> "TorusIsometry":
        """self after other: x -> self(other(x))."""
        signs = tuple(s * o for s, o in zip(self.signs, other.signs))
        shift = tuple((s * b + a) % 1 for s, a, b in
                      zip(self.signs, self.shift, other.shift))
        return TorusIsometry(signs, shift,
                             name=(self.name + other.name) or "")

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and \
            all(a == 0 for a in self.shift)

    def key(self):
        return (self.signs, self.shift)


ALPHA = TorusIsometry((-1, -1, -1, -1, 1, 1, 1),
                      (0, 0, 0, 0, 0, 0, 0), "a")
BETA = TorusIsometry((-1, -1, 1, 1, -1, -1, 1),
                     (0, HALF, 0, 0, 0, 0, 0), "b")
GAMMA = TorusIsometry((-1, 1, -1, 1, -1, 1, -1),
                      (HALF, 0, HALF, 0, 0, 0, 0), "c")

# The signed permutation L: dx_i -> L_SIGNS[i] dx_{L_PERM[i]}, the pullback
# by the matrix with L_SIGNS[i] at (i, L_PERM[i]).  It maps forms.phi0 onto
# the flat 3-form that the group preserves, so the conjugate group
# L^-1 Gamma L (signs and shifts read through L_PERM) preserves phi0.
L_PERM = (0, 1, 6, 2, 5, 4, 3)
L_SIGNS = (1, 1, 1, -1, 1, 1, 1)


def _l_image(form: Form) -> Form:
    """L's image of a constant form."""
    A = np.zeros((7, 7))
    A[range(7), L_PERM] = L_SIGNS
    return pullback(A, form)


# flat 3-form preserved by the group (0-based index triples), L's image of
# phi0: the product split with the associative torus last
INVARIANT_PHI_TERMS = {
    idx: float(c) for idx, c in zip(index_list(7, 3), _l_image(phi0()).coeffs)
    if c != 0.0}


def gamma_elements() -> list[TorusIsometry]:
    """The eight elements generated by alpha, beta, gamma; closure and
    involutivity are verified exactly."""
    gens = [ALPHA, BETA, GAMMA]
    elements = {}
    ident = TorusIsometry((1,) * 7, (0,) * 7, "")
    frontier = [ident]
    elements[ident.key()] = ident
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                h = g.compose(el)
                if h.key() not in elements:
                    elements[h.key()] = h
                    nxt.append(h)
        frontier = nxt
    out = list(elements.values())
    if len(out) != 8:
        raise RuntimeError(f"group closure failed: {len(out)} elements")
    for el in out:
        if not el.compose(el).is_identity():
            raise RuntimeError(f"element {el.name} is not an involution")
    for a in gens:
        for b in gens:
            if a.compose(b).key() != b.compose(a).key():
                raise RuntimeError("the generators do not commute")
    return out


# ----------------------------------------------------------------------
# fixed-point sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FixedTorus:
    """An affine subtorus: free coordinates plus pinned rational values."""
    free: tuple
    pinned: tuple     # ((coord, value), ...) sorted

    @property
    def dimension(self) -> int:
        return len(self.free)

    def intersects(self, other: "FixedTorus") -> bool:
        mine = dict(self.pinned)
        theirs = dict(other.pinned)
        for c, v in mine.items():
            if c in theirs and theirs[c] != v:
                return False
        return True

    def apply(self, g: TorusIsometry) -> "FixedTorus":
        pinned = tuple(sorted(
            (c, (g.signs[c] * v + g.shift[c]) % 1) for c, v in self.pinned))
        return FixedTorus(self.free, pinned)


def fixed_point_tori(g: TorusIsometry) -> list[FixedTorus]:
    """Exact coordinatewise solution of signs*x + shift = x on T^7.

    Identity returns the single degenerate all-free torus; elements with a
    shifted non-flipped coordinate have no fixed points.
    """
    free, choices = [], []
    for i, (s, a) in enumerate(zip(g.signs, g.shift)):
        if s == 1:
            if a != 0:
                return []
            free.append(i)
        else:
            # -x + a = x  =>  x in {a/2, a/2 + 1/2}
            choices.append((i, (a / 2 % 1, (a / 2 + HALF) % 1)))
    out = []
    for combo in product(*[vals for _, vals in choices]):
        pinned = tuple(sorted(zip((i for i, _ in choices), combo)))
        out.append(FixedTorus(tuple(free), pinned))
    return out


def singular_components() -> dict:
    """Orbits of the fixed 3-tori under the group: the singular set of the
    quotient, with the free-action certificate.

    Every field is read from the one list gamma_elements() returns.
    Returns counts per non-identity element, the components (the orbits
    of each generator's fixed tori under the other generators; twelve are
    expected), the smallest orbit length measured (4 exactly when that
    Z2 x Z2 acts freely), pairwise disjointness, b2 of T^7/Gamma (the
    number of coordinate 2-forms dx_i ^ dx_j that every element
    preserves, i.e. whose two signs agree) and the expected kernel
    dimension 12 + b2 of the quotient.
    """
    elements = gamma_elements()
    b2 = sum(all(el.signs[i] == el.signs[j] for el in elements)
             for i, j in combinations(range(7), 2))
    # the generators are the elements named by one letter
    gens = {el.name: el for el in elements if len(el.name) == 1}
    counts = {}
    for el in elements:
        if el.is_identity():
            continue
        tori = fixed_point_tori(el)
        counts[el.name] = len(tori)

    components = []
    all_tori = []
    for gname, gen in gens.items():
        tori = fixed_point_tori(gen)
        if len(tori) != 16:
            raise RuntimeError(f"{gname} fixes {len(tori)} tori, not 16")
        all_tori.extend(tori)
        subgroup = _subgroup_without(elements, gname)
        seen = set()
        orbits = []
        for t in tori:
            if t in seen:
                continue
            orbit = set()
            for h in subgroup:
                img = t.apply(h)
                if img not in tori:
                    raise RuntimeError("subgroup does not permute the tori")
                orbit.add(img)
            seen |= orbit
            orbits.append(tuple(sorted(orbit, key=lambda s: s.pinned)))
        components.extend((gname, orb) for orb in orbits)

    # pairwise disjointness of all 48 tori
    disjoint = all(not a.intersects(b)
                   for a, b in combinations(all_tori, 2))
    return {
        "counts": counts,
        "components": components,
        "n_components": len(components),
        "orbit_size": min(len(orb) for _, orb in components),
        "disjoint": disjoint,
        "b2": b2,
        "kernel_dimension": 12 + b2,
    }


def _subgroup_without(elements, gname: str):
    """The subgroup generated by the other generators: the elements whose
    name, the composed generators' names, leaves out gname."""
    return [el for el in elements if gname not in el.name]


# ----------------------------------------------------------------------
# the gluing chart
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GluingChart:
    """Cutoff data for one singular component: zeta = 1/9 and a quintic
    C^2 step between zeta/4 and zeta/2 in the flat distance s = 2 sqrt(r)."""
    t: float
    zeta: ClassVar[float] = 1.0 / 9.0

    def __post_init__(self):
        if not (0 < self.t < 1):
            raise ValueError("need t in (0, 1)")

    @property
    def k(self) -> float:
        return self.t ** 4

    def s_of_r(self, r):
        return 2.0 * np.sqrt(np.asarray(r, dtype=float))

    def r_of_s(self, s):
        return (np.asarray(s, dtype=float) / 2.0) ** 2

    def ds_dr(self, r):
        return 1.0 / np.sqrt(np.asarray(r, dtype=float))

    def annulus(self, n: int) -> np.ndarray:
        """n radii evenly spaced in s just inside zeta/4 < s < zeta/2."""
        return self.r_of_s(np.linspace(self.zeta / 4 * 1.0001,
                                       self.zeta / 2 * 0.9999, n))

    def chi(self, s):
        s = np.asarray(s, dtype=float)
        lo, hi = self.zeta / 4.0, self.zeta / 2.0
        u = np.clip((s - lo) / (hi - lo), 0.0, 1.0)
        return u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)

    def chi_prime(self, s):
        s = np.asarray(s, dtype=float)
        lo, hi = self.zeta / 4.0, self.zeta / 2.0
        u = np.clip((s - lo) / (hi - lo), 0.0, 1.0)
        return 30.0 * u ** 2 * (1.0 - u) ** 2 / (hi - lo)


@lru_cache(maxsize=None)
def _glue_slots():
    """Where the fiber 2-form monomials e_ab (a < b, EH legs in slots
    3..6) land in the glued forms: delta_i ^ e_ab for i = 0, 1, 2 in the
    3-forms, delta_j ^ delta_k ^ e_ab for (i, j, k) cyclic in the
    4-forms, with the sign of delta_j ^ delta_k.  A 2-form commutes with
    every form, so each wedge with the delta_i is a signed copy into
    these slots."""
    pos3, pos4 = index_position(7, 3), index_position(7, 4)
    fiber = index_list(4, 2)
    phi = np.array([[pos3[(i, a + 3, b + 3)] for a, b in fiber]
                    for i in range(3)])
    signs, pairs = zip(*(sort_index(((i + 1) % 3, (i + 2) % 3))
                         for i in range(3)))
    theta = np.array([[pos4[jk + (a + 3, b + 3)] for a, b in fiber]
                      for jk in pairs])
    return (pos3[(0, 1, 2)], _read_only(phi), _read_only(theta), signs,
            pos4[(3, 4, 5, 6)])


@lru_cache(maxsize=None)
def _fiber_forms():
    """(omega_1, omega_2, omega_3, dr ^ tau_1, d tau_1) of g_(k), built once
    per process on first use; each compiles its evaluator on its first
    evaluate_onb, with k a runtime argument."""
    from . import eguchi_hanson as eh
    om1, om2, om3 = eh.hyperkaehler_triple()
    _, _, tau1 = eh.harmonic_forms()
    dr_tau1 = eh.RadialForm(2, {(0, 1): eh.f_sym() ** 2 - eh.R})
    return om1, om2, om3, dr_tau1, tau1.d()


def _fiber_two_forms(chart: GluingChart, rs: np.ndarray):
    """The three modified 2-forms at the sample radii, as 4d ONB Forms.

    omega_tilde_1 = omega_1^(k) - chi'(s) s'(r) dr ^ tau_1 - chi(s) d tau_1,
    omega_tilde_{2,3} = omega_{2,3}^(k) (their tau's vanish identically).
    """
    om1, om2, om3, drt, dt1 = (form.evaluate_onb(chart.k, rs)
                               for form in _fiber_forms())

    s = chart.s_of_r(rs)
    cp = chart.chi_prime(s) * chart.ds_dr(rs)
    c = chart.chi(s)
    om1_t = Form(4, 2, om1.coeffs - cp * drt.coeffs - c * dt1.coeffs)
    return om1_t, om2, om3


def glued_structure(t: float, rs):
    """(phi_t, theta_t): the glued 3-form and its companion 4-form at the
    chart points with Eguchi-Hanson radial coordinate rs (batched).

    phi_t = delta_123 - sum_i omega_tilde_i ^ delta_i and
    theta_t = (1/2) omega_tilde_1 ^ omega_tilde_1
              - sum_cyc omega_tilde_i ^ delta_j ^ delta_k;
    both are closed (the radial cutoff derivative cancels exactly).
    """
    chart = GluingChart(t)
    rs = np.asarray(rs, dtype=float)
    if np.any(rs <= 0):
        raise ValueError("chart requires r > 0")
    om = _fiber_two_forms(chart, rs)
    vol_slot, phi_slots, theta_slots, signs, fiber_slot = _glue_slots()

    phi = np.zeros((35,) + rs.shape)
    phi[vol_slot] = 1.0
    theta_t = np.zeros((35,) + rs.shape)
    theta_t[fiber_slot] = 0.5 * wedge(om[0], om[0]).coeffs[0]
    for i in range(3):
        phi[phi_slots[i]] -= om[i].coeffs
        theta_t[theta_slots[i]] -= signs[i] * om[i].coeffs
    return Form(7, 3, phi), Form(7, 4, theta_t)


def closedness_residual(t: float, rs) -> float:
    """Residual of d phi_t = 0 and d theta_t = 0 at the radii rs.

    Both forms are closed exactly when the three fiber 2-forms are: the
    delta_i are closed and d(w ^ w) = 2 dw ^ w.  The reference triple
    (omega_1 - d(chi tau_1), omega_2, omega_3) is built symbolically with
    chi an undefined function of r, apart from the fiber forms that
    glued_structure uses, and each form is checked closed for every chi.
    It is then evaluated with the chart's cutoff chi(s(r)) and
    d/dr chi(s(r)) = chi'(s) s'(r) and compared with that triple.
    Returns the largest mismatch relative to the size of the form, or inf
    if a reference form is not closed.
    """
    import sympy as sp
    from . import eguchi_hanson as eh
    chart = GluingChart(t)
    rs = np.asarray(rs, dtype=float)
    chi = sp.Function("chi")(eh.R)
    chi0, chi1 = sp.symbols("chi0 chi1")
    om1, om2, om3 = eh.hyperkaehler_triple()
    _, _, tau1 = eh.harmonic_forms()
    reference = (om1 - (chi * tau1).d(), om2, om3)
    if not all(form.d().is_zero() for form in reference):
        return float("inf")
    s = chart.s_of_r(rs)
    args = (rs, chart.k, chart.chi(s), chart.chi_prime(s) * chart.ds_dr(rs))
    resid = 0.0
    for ref, impl in zip(reference, _fiber_two_forms(chart, rs)):
        comps = ref.onb_components()
        exprs = tuple(comps.get(mono, sp.S.Zero).subs(chi.diff(eh.R), chi1)
                      .subs(chi, chi0) for mono in index_list(4, 2))
        values = sp.lambdify((eh.R, eh.K, chi0, chi1), exprs, "numpy")(*args)
        expected = np.stack([np.broadcast_to(v, rs.shape) for v in values])
        scale = max(np.abs(impl.coeffs).max(), 1e-300)
        resid = max(resid, np.abs(expected - impl.coeffs).max() / scale)
    return float(resid)


def torsion_form(t: float, rs):
    """psi_t = *_{g(phi_t)} (Theta(phi_t) - theta_t) at the chart points,
    plus pointwise norms.  Raises PositivityError when phi_t leaves the
    G2 cone (t too large for the annulus)."""
    phi, theta_t = glued_structure(t, rs)
    g, vol = metric_from_g2(phi)
    mismatch = _theta_at(g, phi) - theta_t         # Theta(phi) with this g
    psi = hodge_star(g, mismatch)
    # |psi|^2 vol = psi ^ *psi, and *psi = **mismatch = mismatch since
    # ** = id in dimension 7: no third star is taken
    norms = np.sqrt(np.maximum(wedge(psi, mismatch).coeffs[0] / vol, 0.0))
    return psi, norms, g


def _grad_norm(t: float, rs, g) -> np.ndarray:
    """|nabla psi_t|: eh.radial_derivative of the coframe components of
    psi_t (one batched torsion_form call), measured with the metric g of
    phi_t at rs."""
    from . import eguchi_hanson as eh
    dpsi = Form(7, 3, eh.radial_derivative(
        lambda r: torsion_form(t, r)[0].coeffs, t, rs))
    return np.sqrt(np.maximum(inner_product(g, dpsi, dpsi), 0.0))


def torsion_decay_fit(t_list, n_samples: int = 2000, beta: float = -0.05,
                      with_gradient: bool = True) -> dict:
    """Sup of |psi_t| (and |nabla psi_t|) over the gluing annulus for each
    t, the weighted C^0_{beta-2;t} sup, and least-squares log-log slopes.

    Rows of the returned table: (t, sup_psi, sup_grad, weighted_sup).
    Entries are NaN when phi_t is not a G2-structure on the annulus
    (t beyond the positivity threshold T0).
    """
    from . import eguchi_hanson as eh
    t_list = list(t_list)
    if len(t_list) < 4:
        raise ValueError("need at least 4 values of t")
    if any(not (0 < t <= 0.3) for t in t_list):
        raise ValueError("t values must lie in (0, 0.3]")
    if n_samples < 1:
        raise ValueError("need at least 1 sample on the annulus")
    rows = []
    for t in t_list:
        rs = GluingChart(t).annulus(n_samples)
        try:
            _, norms, g = torsion_form(t, rs)
            sup_psi = float(norms.max())
            weighted = eh.weighted_norm([norms[None]], t, rs, beta - 2.0)
            sup_grad = float(_grad_norm(t, rs, g).max()) \
                if with_gradient else float("nan")
        except PositivityError:
            sup_psi, sup_grad, weighted = float("nan"), float("nan"), float("nan")
        rows.append((t, sup_psi, sup_grad, weighted))

    usable = [(t, s, w) for (t, s, _, w) in rows if np.isfinite(s) and s > 0]
    if len(usable) < 3:
        raise RuntimeError("degenerate fit: fewer than 3 usable t values "
                           "(positivity failed on the annulus)")
    ts = np.array([u[0] for u in usable])
    sups = np.array([u[1] for u in usable])
    weighted = np.array([u[2] for u in usable])
    slope = float(np.polyfit(np.log(ts), np.log(sups), 1)[0])
    weighted_slope = float(np.polyfit(np.log(ts), np.log(weighted), 1)[0])
    return {
        "rows": rows,
        "slope": slope,
        "weighted_slope": weighted_slope,
        "usable": len(usable),
    }


def plateau_metric_error(t: float) -> dict:
    """Max deviation of g(phi_t) from the product metric on the two
    plateaus.  In the chart coframe (orthonormal for g_L + g_(t^4)) the
    inner product metric is the identity; the outer flat metric is the
    diagonal g_L + g_(0), i.e. diag(1,1,1,c,c,1/c,1/c) with
    c = sqrt(k + r^2)/r."""
    chart = GluingChart(t)
    out = {}
    for name, s_val in (("inner", chart.zeta / 8), ("outer", chart.zeta * 0.75)):
        r = float(chart.r_of_s(s_val))
        phi, _ = glued_structure(t, np.array([r]))
        g, _ = metric_from_g2(phi)
        if name == "inner":
            expected = np.eye(7)
        else:
            c = np.sqrt(chart.k + r ** 2) / r
            expected = np.diag([1, 1, 1, c, c, 1 / c, 1 / c])
        out[name] = float(np.abs(g.entries[0] - expected).max())
    return out


def positivity_threshold(t_candidates=None) -> float:
    """Largest sampled t for which phi_t stays a G2-structure across the
    gluing annulus (the runtime stand-in for 'for t small enough'), or 0.0
    if there is none.

    Every candidate is validated first (GluingChart raises ValueError for
    t outside (0, 1)); the scan then runs in descending t and stops at the
    first t that passes.  It runs only the positivity gate,
    metric_from_g2 of the glued phi_t at 400 annulus radii, and builds no
    torsion."""
    if t_candidates is None:
        t_candidates = np.geomspace(0.2, 0.001, 24)
    charts = [GluingChart(t) for t in t_candidates]
    for chart in sorted(charts, key=lambda c: c.t, reverse=True):
        try:
            metric_from_g2(glued_structure(chart.t, chart.annulus(400))[0])
        except PositivityError:
            continue
        return float(chart.t)
    return 0.0
