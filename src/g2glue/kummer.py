"""The generalized Kummer construction on T^7/Gamma: group combinatorics,
singular-set enumeration, the glued 3-form with its torsion, and
decay-exponent certification.

Combinatorics are exact (Fraction arithmetic over half-integer shifts).
The involutions below use the convention that the associative coordinates
sit last (alpha fixes the (x5, x6, x7) torus); the flat 3-form they
preserve is the product arrangement listed in INVARIANT_PHI_TERMS, which
is a positive G2-form (its reconstructed metric is the identity).

Chart-wise geometry: the gluing chart carries the coframe
(delta1, delta2, delta3, dt, e1, e2, e3) with the Eguchi-Hanson
orthonormal legs in slots 3..6.  The cutoff argument is the flat-model
distance s(r) = 2 sqrt(r), zeta = 1/9, with a quintic C^2 step between
zeta/4 and zeta/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import sympy as sp

from . import eguchi_hanson as eh
from .forms import (Form, PositivityError, hodge_star, index_list,
                    inner_product, metric_from_g2, theta, wedge)

__all__ = [
    "TorusIsometry", "ALPHA", "BETA", "GAMMA", "INVARIANT_PHI_TERMS",
    "gamma_elements", "preserves_invariant_form", "FixedTorus",
    "fixed_point_tori", "singular_components", "GluingChart",
    "glued_structure", "torsion_form", "closedness_residual",
    "torsion_decay_fit", "approximate_kernel_basis", "plateau_metric_error",
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

# flat 3-form preserved by the group (0-based index triples);
# the arrangement is the product split with the associative torus last
INVARIANT_PHI_TERMS = {
    (4, 5, 6): 1.0, (2, 3, 6): 1.0, (0, 1, 6): 1.0, (1, 3, 5): 1.0,
    (0, 2, 5): -1.0, (0, 3, 4): -1.0, (1, 2, 4): -1.0,
}


def invariant_phi() -> Form:
    return Form.from_dict(7, 3, INVARIANT_PHI_TERMS)


def preserves_invariant_form(g: TorusIsometry) -> bool:
    """Sign-action check: every term of the invariant 3-form must carry an
    even number of flipped coordinates (shifts act trivially on constant
    forms)."""
    return all(g.signs[i] * g.signs[j] * g.signs[k] == 1
               for (i, j, k) in INVARIANT_PHI_TERMS)


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


def singular_components(b2_torus_quotient: int = 0) -> dict:
    """Orbits of the fixed 3-tori under the group: the singular set of the
    quotient, with the free-action certificate.

    Returns counts per generator, the components (the orbits of each
    generator's fixed tori under the other two generators; twelve are
    expected), the smallest orbit length measured (4 exactly when that
    Z2 x Z2 acts freely), pairwise disjointness, and the expected kernel
    dimension 12 + b2 of the quotient used by the approximate-kernel
    bookkeeping.
    """
    elements = gamma_elements()
    gens = {"a": ALPHA, "b": BETA, "c": GAMMA}
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
        "kernel_dimension": 12 + b2_torus_quotient,
    }


def _subgroup_without(elements, gname: str):
    """The Z2 x Z2 generated by the two other involutions."""
    others = [g for n, g in (("a", ALPHA), ("b", BETA), ("c", GAMMA))
              if n != gname]
    sub = {}
    ident = TorusIsometry((1,) * 7, (0,) * 7, "")
    for combo in ([], [others[0]], [others[1]], [others[0], others[1]]):
        el = ident
        for g in combo:
            el = g.compose(el)
        sub[el.key()] = el
    return list(sub.values())


# ----------------------------------------------------------------------
# the gluing chart
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GluingChart:
    """Cutoff data for one singular component: zeta = 1/9 and a quintic
    C^2 step between zeta/4 and zeta/2 in the flat distance s = 2 sqrt(r)."""
    t: float
    zeta: float = 1.0 / 9.0

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


def _embed_fiber(form4: Form, batch) -> Form:
    """A 2- or 4-form on the Eguchi-Hanson fiber as a 7d form in slots 3..6."""
    out = Form.zero(7, form4.degree, batch)
    from .forms import index_list, index_position
    pos7 = index_position(7, form4.degree)
    for p4, idx in enumerate(index_list(4, form4.degree)):
        out.coeffs[pos7[tuple(i + 3 for i in idx)]] = form4.coeffs[p4]
    return out


def _fiber_two_forms(chart: GluingChart, rs: np.ndarray):
    """The three modified 2-forms at the sample radii, as 4d ONB Forms.

    omega_tilde_1 = omega_1^(k) - chi'(s) s'(r) dr ^ tau_1 - chi(s) d tau_1,
    omega_tilde_{2,3} = omega_{2,3}^(k) (their tau's vanish identically).
    """
    k = chart.k
    om1s, om2s, om3s = eh.hyperkaehler_triple()
    nu, lam, tau1 = eh.harmonic_forms()
    f = eh.f_sym()
    dr_tau1 = eh.RadialForm(2, {(0, 1): f ** 2 - eh.R})     # dr ^ tau_1
    dtau1 = tau1.d()

    om1 = om1s.evaluate_onb(k, rs)
    om2 = om2s.evaluate_onb(k, rs)
    om3 = om3s.evaluate_onb(k, rs)
    drt = dr_tau1.evaluate_onb(k, rs)
    dt1 = dtau1.evaluate_onb(k, rs)

    s = chart.s_of_r(rs)
    cp = chart.chi_prime(s) * chart.ds_dr(rs)
    c = chart.chi(s)
    om1_t = Form(4, 2, om1.coeffs - cp * drt.coeffs - c * dt1.coeffs)
    return om1_t, om2, om3


def glued_structure(t: float, rs, chart: GluingChart | None = None):
    """(phi_t, theta_t): the glued 3-form and its companion 4-form at the
    chart points with Eguchi-Hanson radial coordinate rs (batched).

    phi_t = delta_123 - sum_i omega_tilde_i ^ delta_i and
    theta_t = (1/2) omega_tilde_1 ^ omega_tilde_1
              - sum_cyc omega_tilde_i ^ delta_j ^ delta_k;
    both are closed (the radial cutoff derivative cancels exactly).
    """
    chart = chart or GluingChart(t)
    if chart.t != t:
        raise ValueError("chart parameter mismatch")
    rs = np.asarray(rs, dtype=float)
    if np.any(rs <= 0):
        raise ValueError("chart requires r > 0")
    batch = rs.shape
    om = _fiber_two_forms(chart, rs)
    om7 = [_embed_fiber(o, batch) for o in om]
    delta = [Form.basis(7, (i,)) for i in range(3)]

    phi = wedge(wedge(delta[0], delta[1]), delta[2])
    base = phi.coeffs.reshape((35,) + (1,) * len(batch))
    phi = Form(7, 3, np.broadcast_to(base, (35,) + batch).copy())
    for i in range(3):
        phi = phi - wedge(om7[i], delta[i])

    vol_fiber = 0.5 * wedge(om7[0], om7[0])
    theta_t = vol_fiber
    for i, (j, k) in enumerate([(1, 2), (2, 0), (0, 1)]):
        theta_t = theta_t - wedge(om7[i], wedge(delta[j], delta[k]))
    return phi, theta_t


def closedness_residual(t: float, rs) -> float:
    """Residual of d phi_t = 0 and d theta_t = 0 at the radii rs.

    Both forms are closed exactly when the three fiber 2-forms are: the
    delta_i are closed and d(w ^ w) = 2 dw ^ w.  The reference triple
    (omega_1 - d(chi tau_1), omega_2, omega_3) is built symbolically with
    chi an undefined function of r, and each form is checked closed for
    every chi.  It is then evaluated with the chart's cutoff chi(s(r)) and
    d/dr chi(s(r)) = chi'(s) s'(r) and compared with the triple that
    glued_structure uses.  Returns the largest mismatch relative to the
    size of the form, or inf if a reference form is not closed.
    """
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
        expected = np.zeros_like(impl.coeffs)
        for pos, mono in enumerate(index_list(4, 2)):
            expr = comps.get(mono, sp.S.Zero).subs(chi.diff(eh.R), chi1) \
                .subs(chi, chi0)
            expected[pos] = sp.lambdify((eh.R, eh.K, chi0, chi1), expr,
                                        "numpy")(*args)
        scale = max(np.abs(impl.coeffs).max(), 1e-300)
        resid = max(resid, np.abs(expected - impl.coeffs).max() / scale)
    return float(resid)


def torsion_form(t: float, rs, chart: GluingChart | None = None):
    """psi_t = *_{g(phi_t)} (Theta(phi_t) - theta_t) at the chart points,
    plus pointwise norms.  Raises PositivityError when phi_t leaves the
    G2 cone (t too large for the annulus)."""
    chart = chart or GluingChart(t)
    rs = np.asarray(rs, dtype=float)
    phi, theta_t = glued_structure(t, rs, chart)
    g, _ = metric_from_g2(phi)
    mismatch = theta(phi) - theta_t
    psi = hodge_star(g, mismatch)
    norms = np.sqrt(np.maximum(inner_product(g, psi, psi), 0.0))
    return psi, norms, g


def _grad_norm(t: float, rs, chart: GluingChart) -> np.ndarray:
    """|nabla psi_t| by radial finite differences of the coframe
    components at step 1e-6 * s (arclength derivative)."""
    rs = np.asarray(rs, dtype=float)
    delta = 1e-6 * rs
    _, _, g = torsion_form(t, rs, chart)
    psi_p, _, _ = torsion_form(t, rs + delta, chart)
    psi_m, _, _ = torsion_form(t, rs - delta, chart)
    fk = (chart.k + rs ** 2) ** 0.25
    dcomp = fk * (psi_p.coeffs - psi_m.coeffs) / (2.0 * delta)
    dpsi = Form(7, 3, dcomp)
    return np.sqrt(np.maximum(inner_product(g, dpsi, dpsi), 0.0))


def torsion_decay_fit(t_list, n_samples: int = 2000, beta: float = -0.05,
                      with_gradient: bool = True) -> dict:
    """Sup of |psi_t| (and |nabla psi_t|) over the gluing annulus for each
    t, the weighted C^0_{beta-2;t} sup, and least-squares log-log slopes.

    Rows of the returned table: (t, sup_psi, sup_grad, weighted_sup).
    Entries are NaN when phi_t is not a G2-structure on the annulus
    (t beyond the positivity threshold T0).
    """
    t_list = list(t_list)
    if len(t_list) < 4:
        raise ValueError("need at least 4 values of t")
    if any(not (0 < t <= 0.3) for t in t_list):
        raise ValueError("t values must lie in (0, 0.3]")
    rows = []
    for t in t_list:
        chart = GluingChart(t)
        s = np.linspace(chart.zeta / 4 * 1.0001, chart.zeta / 2 * 0.9999,
                        n_samples)
        rs = chart.r_of_s(s)
        try:
            _, norms, _ = torsion_form(t, rs, chart)
            sup_psi = float(norms.max())
            w = t + eh.radial_distance_many(chart.k, rs)
            weighted = float((w ** (-(beta - 2.0)) * norms).max())
            sup_grad = float(_grad_norm(t, rs, chart).max()) \
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
        phi, _ = glued_structure(t, np.array([r]), chart)
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
    gluing annulus (the runtime stand-in for 'for t small enough')."""
    if t_candidates is None:
        t_candidates = np.geomspace(0.2, 0.001, 24)
    best = 0.0
    for t in sorted(t_candidates):
        chart = GluingChart(t)
        s = np.linspace(chart.zeta / 4 * 1.0001, chart.zeta / 2 * 0.9999, 400)
        try:
            torsion_form(t, chart.r_of_s(s), chart)
        except PositivityError:
            continue
        best = max(best, t)
    return best


# ----------------------------------------------------------------------
# approximate kernel
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelElement:
    """One cutoff 2-form chi(s) nu_{t^4} attached to a singular component."""
    component: int
    t: float

    def evaluate(self, rs) -> Form:
        chart = GluingChart(self.t)
        rs = np.asarray(rs, dtype=float)
        nu, _, _ = eh.harmonic_forms()
        base = nu.evaluate_onb(self.t ** 4, rs)
        c = chart.chi(chart.s_of_r(rs))
        return Form(4, 2, c * base.coeffs)


def approximate_kernel_basis(t: float, b2_torus_quotient: int = 0) -> dict:
    """The twelve cutoff forms chi * nu_{t^4, i} plus the count of flat
    2-form directions: a basis description of the approximate kernel.

    Verifies continuity of chi * nu across s = zeta/4 numerically and
    reports the span dimension 12 + b2; elements on distinct components
    have disjoint supports, hence vanishing pairwise inner products.
    """
    if not (0 < t < 1):
        raise ValueError("need t in (0,1)")
    chart = GluingChart(t)
    elements = [KernelElement(i, t) for i in range(12)]
    s0 = chart.zeta / 4
    eps = 1e-9
    below = elements[0].evaluate(chart.r_of_s(s0 - eps))
    above = elements[0].evaluate(chart.r_of_s(s0 + eps))
    jump = float(np.abs(above.coeffs - below.coeffs).max())
    return {
        "elements": elements,
        "flat_directions": b2_torus_quotient,
        "dimension": 12 + b2_torus_quotient,
        "cut_continuity_jump": jump,
        "disjoint_supports": True,
    }
