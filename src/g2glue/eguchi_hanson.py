"""The Eguchi-Hanson family g_(k) on R_{>0} x SO(3): coframe calculus,
hyperkaehler triples, explicit harmonic forms, ALE decay, the scaling
diffeomorphism, and weighted Hoelder norm evaluation.

Forms live in the coframe {dr, eta^1, eta^2, eta^3} (left-invariant
eta^i, or the right-invariant hatted family) with sympy coefficient
functions of (r, k).  The orthonormal coframe of g_(k) is

    dt = f^-1 dr,  e1 = r f^-1 eta^1,  e2 = f eta^2,  e3 = f eta^3,

f = f_k(r) = (k + r^2)^(1/4).  Structure equations: d eta^1 = eta^2 ^ eta^3
and cyclic for the left-invariant coframe (the sign is forced by closedness
of the hyperkaehler triple given this f), d etahat^1 = -etahat^2 ^ etahat^3
and cyclic for the right-invariant one.  Numeric evaluation happens along
the identity section of SO(3), where the two coframes coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType

import numpy as np
import sympy as sp
from scipy.special import hyp2f1

from .forms import Form, Metric, hodge_star, sort_index

__all__ = [
    "R", "K", "f_sym", "RadialForm",
    "hyperkaehler_triple", "harmonic_forms", "asd_triple",
    "radial_distance_many", "sphere_geometry",
    "ale_decay_ratio", "scaling_pullback_check",
    "radial_derivative", "weighted_norm", "rescaling_invariance_check",
    "eh_metric_coefficients",
]

R, K = sp.symbols("r k", positive=True)


def f_sym():
    """The profile f_k(r) = (k + r^2)^(1/4)."""
    return (K + R ** 2) ** sp.Rational(1, 4)


# u stands for f_k(r): with k = u^4 - r^2 every (k + r^2)^(p/q) is a power
# of u, and r, u are algebraically independent
_U = sp.Symbol("u", positive=True)


def _over_u(c):
    """c as one cancelled quotient of polynomials in r, u and whatever
    other generators it has.  It is 0 exactly when c vanishes identically
    on Q(r, f_k(r)) (with those generators adjoined)."""
    return sp.cancel(sp.sympify(c).subs(K, _U ** 4 - R ** 2))


def _normal(c):
    """The exact normal form of a coefficient, written back over (r, k)."""
    return _over_u(c).subs(_U, f_sym())


# coframe labels: 0 = dr, 1..3 = eta^i (or hatted eta^i)
_LABELS = (0, 1, 2, 3)


@lru_cache(maxsize=None)
def _monomials(degree: int):
    return tuple(combinations(_LABELS, degree))


# structure constants: d eta^i = sign * eta^j ^ eta^k, (i j k) cyclic
FRAME_SIGN = {"left": 1, "right": -1}
_CYCLIC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


@dataclass(frozen=True)
class RadialForm:
    """p-form with sympy coefficients of (r, k) on wedge monomials in
    {dr, eta^1, eta^2, eta^3}; frame is 'left' or 'right'.  Immutable:
    coeffs is a read-only mapping, so the compiled evaluator of
    evaluate_onb never goes stale."""
    degree: int
    coeffs: dict            # monomial tuple -> sympy expression (read-only)
    frame: str = "left"

    def __post_init__(self):
        if self.frame not in FRAME_SIGN:
            raise ValueError("frame must be 'left' or 'right'")
        clean = {}
        for mono, c in self.coeffs.items():
            mono = tuple(mono)
            if len(mono) != self.degree or tuple(sorted(mono)) != mono:
                raise ValueError(f"bad monomial {mono}")
            c = sp.sympify(c)
            if c != 0:
                clean[mono] = clean.get(mono, 0) + c
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: "RadialForm") -> "RadialForm":
        if self.degree != other.degree or self.frame != other.frame:
            raise ValueError("degree/frame mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return RadialForm(self.degree, out, self.frame)

    def __sub__(self, other: "RadialForm") -> "RadialForm":
        return self + (-1) * other

    def __mul__(self, s) -> "RadialForm":
        return RadialForm(self.degree,
                          {m: sp.sympify(s) * c for m, c in self.coeffs.items()},
                          self.frame)

    __rmul__ = __mul__

    # -- exterior derivative ----------------------------------------------
    def d(self) -> "RadialForm":
        """Termwise exterior derivative: d/dr on coefficients plus the
        Maurer-Cartan structure equations on the coframe; each coefficient
        of the result is in the exact normal form."""
        sgn = FRAME_SIGN[self.frame]
        out = {}

        def add(mono, c):
            out[mono] = out.get(mono, 0) + c

        for mono, c in self.coeffs.items():
            # radial part
            if 0 not in mono:
                add(tuple(sorted((0,) + mono)), sp.diff(c, R))
            # structure part: d eta^i = sgn * eta^j ^ eta^k (cyclic),
            # written into eta^i's slot with (-1)^pos from Leibniz
            for pos, lab in enumerate(mono):
                if lab == 0:
                    continue
                sign, new = sort_index(mono[:pos] + _CYCLIC[lab]
                                       + mono[pos + 1:])
                if sign:
                    add(new, ((-1) ** pos) * sgn * sign * c)
        return RadialForm(self.degree + 1,
                          {m: _normal(c) for m, c in out.items()}, self.frame)

    # -- conversion to the orthonormal coframe -----------------------------
    def onb_components(self) -> dict:
        """Components in the g_(k)-orthonormal coframe (dt, e1, e2, e3),
        as sympy expressions (valid on the identity section for 'right')."""
        f = f_sym()
        conv = {0: f, 1: f / R, 2: 1 / f, 3: 1 / f}
        out = {}
        for mono, c in self.coeffs.items():
            fac = sp.Integer(1)
            for lab in mono:
                fac *= conv[lab]
            out[mono] = _normal(c * fac)
        return out

    @cached_property
    def _compiled(self):
        """The ONB components over every monomial, as one function of
        (r, k) from a single lambdify; built on the first evaluate_onb."""
        comps = self.onb_components()
        return sp.lambdify((R, K), tuple(comps.get(m, 0) for m in
                                         _monomials(self.degree)), "numpy")

    def evaluate_onb(self, k_val, r_val) -> Form:
        """Numeric Form (dim 4, basis order dt,e1,e2,e3) at (k, r); r may
        be an array.  The ONB conversion (with its exact normal form) and
        the lambdify run once per form instance; k is a runtime argument,
        so one compiled form serves every k."""
        r_arr = np.asarray(r_val, dtype=float)
        batch = r_arr.shape
        coeffs = np.stack([np.broadcast_to(v, batch)
                           for v in self._compiled(r_arr, k_val)])
        return Form(4, self.degree, coeffs)

    def pointwise_norm(self, k_val, r_val) -> np.ndarray:
        """|a|_{g_(k)} at radius r (coframe components are orthonormal)."""
        form = self.evaluate_onb(k_val, r_val)
        return np.sqrt((form.coeffs ** 2).sum(axis=0))

    def subs_k(self, k_val) -> "RadialForm":
        return RadialForm(self.degree,
                          {m: c.subs(K, k_val) for m, c in self.coeffs.items()},
                          self.frame)

    def is_zero(self) -> bool:
        """Exact: every coefficient cancels to 0 over u = f_k(r)."""
        return all(_over_u(c) == 0 for c in self.coeffs.values())


# ----------------------------------------------------------------------
# the standard forms of the family
# ----------------------------------------------------------------------

def hyperkaehler_triple(frame_sign: int = 1):
    """Symbolic (omega_1, omega_2, omega_3) of g_(k); closed only for the
    forced structure sign (+1 left-invariant).  Pass frame_sign=-1 to get
    the same radial expressions over the right-invariant coframe."""
    frame = "left" if frame_sign == 1 else "right"
    f = f_sym()
    om1 = RadialForm(2, {(0, 1): R / f ** 2, (2, 3): f ** 2}, frame)
    om2 = RadialForm(2, {(0, 2): 1, (1, 3): -R}, frame)          # dr^eta2 + r eta3^eta1
    om3 = RadialForm(2, {(0, 3): 1, (1, 2): R}, frame)           # dr^eta3 + r eta1^eta2
    return om1, om2, om3


def harmonic_forms():
    """Symbolic (nu, lambda, tau_1): nu = d lambda is the L^2 harmonic
    2-form, tau_1 primitive for omega_1^(k) - omega_1^(0)."""
    f = f_sym()
    nu = RadialForm(2, {(0, 1): R / f ** 6, (2, 3): -1 / f ** 2})
    lam = RadialForm(1, {(1,): -1 / f ** 2})
    tau1 = RadialForm(1, {(1,): f ** 2 - R})     # f_k^2 - f_0^2 = sqrt(k+r^2) - r
    return nu, lam, tau1


def asd_triple():
    """Symbolic (omegahat_1, omegahat_2, omegahat_3) over the
    right-invariant coframe; closed, and anti-self-dual along the
    identity section."""
    f = f_sym()
    o1 = RadialForm(2, {(0, 1): R / f ** 2, (2, 3): -f ** 2}, "right")
    o2 = RadialForm(2, {(0, 2): 1, (1, 3): R}, "right")          # dr^etahat2 - r etahat3^etahat1
    o3 = RadialForm(2, {(0, 3): 1, (1, 2): -R}, "right")         # dr^etahat3 - r etahat1^etahat2
    return o1, o2, o3


def eh_metric_coefficients(k_val, r):
    """Diagonal of g_(k) in the (dr, eta^1, eta^2, eta^3) coframe."""
    r = np.asarray(r, dtype=float)
    f2 = np.sqrt(k_val + r ** 2)
    return np.stack([1.0 / f2, r ** 2 / f2, f2, f2])


# ----------------------------------------------------------------------
# radial distance and exceptional-sphere geometry
# ----------------------------------------------------------------------

def radial_distance_many(k: float, rs: np.ndarray) -> np.ndarray:
    """d(r) = int_0^r (k + s^2)^(-1/4) ds at every radius of rs, in closed
    form: d = sqrt(r) sqrt(u) 2F1(1/4, 1/2; 3/2; -u^2) with u = r / sqrt(k),
    one vectorised hyp2f1 call.

    Where u > 1e150, u^2 overflows and d = 2 sqrt(r): the term dropped,
    a constant times k^(1/4), is below 1e-75 of it.  k = 0 is the flat
    cone, d = 2 sqrt(r).  (The Pfaff form
    r (k + r^2)^(-1/4) 2F1(1/4, 1; 3/2; r^2 / (k + r^2)) loses up to 3e-4
    relative where k << r^2, as its argument nears 1.)
    """
    rs = np.asarray(rs, dtype=float)
    if not k >= 0 or not np.all(np.isfinite(rs)) or np.any(rs < 0):
        raise ValueError("need finite r >= 0 and k >= 0")
    if k == 0.0:
        return 2.0 * np.sqrt(rs)
    with np.errstate(over="ignore", invalid="ignore"):
        # u and u^2 overflow, and the product turns NaN, only where the
        # far branch is taken
        u = rs / np.sqrt(k)
        near = np.sqrt(rs) * np.sqrt(u) * hyp2f1(0.25, 0.5, 1.5, -u * u)
    return np.where(u > 1e150, 2.0 * np.sqrt(rs), near)


def sphere_geometry(k: float) -> dict:
    """Diameter and Riemannian volume of the exceptional sphere with the
    bolt metric c2 eta^2 x eta^2 + c3 eta^3 x eta^3 of g_(k) at r = 0
    (eh_metric_coefficients; eta^1 collapses there).

    The sphere is parametrized by the section R_z(phi) R_y(theta) of
    SO(3) -> S^2, which maps e_z to the sphere point; the eta^2 and eta^3
    legs of d/dtheta and d/dphi are the L_x and L_y parts of R^-1 dR (L_z
    is the stabilizer), by central differences at step 1e-6.  Both are
    taken at once on a 64-node Gauss-Legendre (theta) by 64-point (phi)
    grid for the volume, and on the meridian phi = 0.3 for the diameter.

    Exact scaling (diameter ~ k^{1/4}, volume ~ k^{1/2}) is asserted by the
    caller; the proportionality constants are reported next to the
    reference values pi/2 and pi, which presume a coframe normalization
    half of the one forced by closedness of the triple (see module notes).
    """
    if k <= 0:
        raise ValueError("need k > 0")
    c2, c3 = eh_metric_coefficients(k, 0.0)[2:]
    nodes, wts = np.polynomial.legendre.leggauss(64)
    thetas, wts = 0.5 * np.pi * (nodes + 1.0), wts * 0.5 * np.pi
    # column 0 is the meridian, columns 1..64 the volume grid
    th, ph = np.meshgrid(thetas, np.append(
        0.3, np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)), indexing="ij")

    def section(th, ph):
        # R_z(ph) R_y(th): one product per entry
        ct, st, cp, sp_ = np.cos(th), np.sin(th), np.cos(ph), np.sin(ph)
        rows = [[cp * ct, -sp_, cp * st], [sp_ * ct, cp, sp_ * st],
                [-st, np.zeros_like(th), ct]]
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    h = 1e-6
    legs = []
    for dth, dph in ((h, 0.0), (0.0, h)):
        M = (np.swapaxes(section(th, ph), -1, -2)
             @ (section(th + dth, ph + dph) - section(th - dth, ph - dph))
             / (2 * h))
        legs.append((M[..., 2, 1], M[..., 0, 2]))      # the L_x, L_y parts
    (x_th, y_th), (x_ph, y_ph) = legs
    g11 = c2 * (x_th * x_th) + c3 * (y_th * y_th)
    g22 = c2 * (x_ph * x_ph) + c3 * (y_ph * y_ph)
    g12 = c2 * (x_th * x_ph) + c3 * (y_th * y_ph)
    diameter = float(np.dot(wts, np.sqrt(g11[:, 0])))
    # summed in grid order, point after point (cumsum, not numpy's pairwise
    # sum), so the bits are those of a loop over the grid
    rows = np.cumsum(np.sqrt(np.maximum(
        g11 * g22 - g12 ** 2, 0.0))[:, 1:], axis=1)[:, -1]
    area = np.cumsum(wts * rows * (2.0 * np.pi / 64))[-1]
    return {
        "diameter": diameter,
        "volume": float(area),
        "diameter_constant": diameter / k ** 0.25,
        "volume_constant": float(area) / k ** 0.5,
        "reference_diameter_constant": np.pi / 2.0,
        "reference_volume_constant": np.pi,
    }


# ----------------------------------------------------------------------
# ALE decay and the scaling diffeomorphism
# ----------------------------------------------------------------------

def ale_decay_ratio(k: float, r) -> np.ndarray:
    """|tau_1^(k)|_{g_(0)} / (k (k^{1/4} + r^{1/2})^{-3}), for k in (0,1],
    r > 1.  Bounded by 4 on that regime."""
    if not (0 < k <= 1):
        raise ValueError("need k in (0, 1]")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 1):
        raise ValueError("decay regime requires r > 1")
    tau_norm = (np.sqrt(k + r ** 2) - r) / np.sqrt(r)   # |tau_1|_{g_(0)}
    bound = k * (k ** 0.25 + np.sqrt(r)) ** -3.0
    return tau_norm / bound


def scaling_pullback_check(k: float, kp: float, r) -> float:
    """Max relative error of phi_{k,k'}^* g_(k) = lambda^2 g_(k'),
    lambda^4 = k/k', phi: r -> lambda^2 r."""
    if k <= 0 or kp <= 0:
        raise ValueError("need k, k' > 0")
    lam2 = np.sqrt(k / kp)
    r = np.asarray(r, dtype=float)
    g_at = eh_metric_coefficients(k, lam2 * r)
    # only the dr^2 slot picks up the Jacobian (d(lam^2 r) = lam^2 dr);
    # the eta-leg coefficients are plain function values at lam^2 r
    pulled = np.stack([lam2 ** 2 * g_at[0], g_at[1], g_at[2], g_at[3]])
    target = lam2 * eh_metric_coefficients(kp, r)       # lambda^2 = lam2
    return float(np.abs(pulled / target - 1.0).max())


# ----------------------------------------------------------------------
# weighted Hoelder norms
# ----------------------------------------------------------------------

def radial_derivative(values, t: float, rs) -> np.ndarray:
    """The arclength derivative d/ds = f_k d/dr (k = t^4) of a radial
    field by central differences at step 1e-6 r.  values maps radii of
    shape (2, n) to components of shape (ncomp, 2, n); it is called once,
    on the stacked radii r + delta and r - delta."""
    rs = np.asarray(rs, dtype=float)
    if np.any(rs <= 0):
        raise ValueError("need r > 0")
    delta = 1e-6 * rs
    pm = values(np.stack([rs + delta, rs - delta]))
    fk = (t ** 4 + rs ** 2) ** 0.25
    return fk * (pm[:, 0] - pm[:, 1]) / (2.0 * delta)


def weighted_norm(jets, t: float, r_samples, beta: float,
                  alpha: float | None = None) -> float:
    """The discretized C^{k,alpha}_{beta;t} norm of a radial field, with
    the weight w_t = t + d(r) of g_(t^4).

    jets[j] holds the coframe components of nabla^j a at the samples,
    shape (ncomp, n).  The value is the sum over j of
    sup w_t^{j-beta} |nabla^j a|; with alpha it adds, for each j, the
    Hoelder quotient w^{alpha+j-beta} |nabla^j a(x) - nabla^j a(y)| /
    d(x,y)^alpha (coframe-component difference as parallel transport,
    w = min(w_t(x), w_t(y))) over every pair with 0 < d(x,y) <= w.
    Every term is a maximum over the samples or their pairs, so the value
    never decreases when samples are added.

    The pairs come from a window sliding over the samples sorted by d:
    d and w_t increase together, so at offset s the smaller weight is the
    inner sample's, and once no pair at offset s has d(x,y) <= w none at
    a larger offset does.
    """
    rs = np.asarray(r_samples, dtype=float)
    if rs.size == 0:
        raise ValueError("empty sample set")
    if not t > 0:
        raise ValueError("t must be positive")
    if alpha is not None and not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0,1)")
    dists = radial_distance_many(t ** 4, rs)
    w = t + dists
    mags = [np.sqrt((np.asarray(c) ** 2).sum(axis=0)) for c in jets]
    total = sum(float((w ** (j - beta) * m).max()) for j, m in enumerate(mags))
    if alpha is None:
        return total
    order = np.argsort(dists, kind="stable")
    d, w = dists[order], w[order]
    jets = [np.asarray(c)[:, order] for c in jets]
    best = [0.0] * len(jets)
    for s in range(1, rs.size):
        gap = d[s:] - d[:-s]
        near = gap <= w[:-s]
        if not near.any():
            break
        i = np.flatnonzero(near & (gap > 0))
        for j, comps in enumerate(jets):
            diff = np.sqrt(((comps[:, i + s] - comps[:, i]) ** 2).sum(axis=0))
            quot = w[i] ** (alpha + j - beta) * diff / gap[i] ** alpha
            best[j] = max(best[j], float(quot.max(initial=0.0)))
    return total + sum(best)


def rescaling_invariance_check(a: RadialForm, beta: float, t: float,
                               r_samples) -> float:
    """Relative discrepancy of the L^inf parts in
    || sigma_{beta,t} a ||_{beta;1} = || a ||_{beta;t},
    sigma_{beta,t} a = t^{-beta-2} (r -> t^2 r)^* a  (2-forms)."""
    if a.degree != 2:
        raise ValueError("the rescaling map is defined on 2-forms")
    rs = np.asarray(r_samples, dtype=float)
    k_val = t ** 4

    # t-side: sup w_t^{-beta} |a|_{g_(t^4)} over the samples
    rhs = weighted_norm([a.evaluate_onb(k_val, rs).coeffs], t, rs, beta)

    # 1-side on the matched grid u = r / t^2; the form keeps its own
    # family parameter k = t^4 while the frame/weight switch to g_(1).
    # The radial map r -> t^2 r fixes SO(3), so only dr picks up t^2.
    us = rs / t ** 2
    lam2 = sp.sympify(t ** 2)
    pulled = t ** (-beta - 2) * RadialForm(a.degree, {
        m: (lam2 if 0 in m else 1) * c.subs(R, lam2 * R)
        for m, c in a.subs_k(k_val).coeffs.items()}, a.frame)
    lhs = weighted_norm([pulled.evaluate_onb(1.0, us).coeffs], 1.0, us, beta)
    if rhs == lhs == 0.0:
        return 0.0
    return abs(lhs - rhs) / max(abs(rhs), abs(lhs))


# ----------------------------------------------------------------------
# convenience: pointwise Hodge star in the orthonormal frame
# ----------------------------------------------------------------------

def star_onb(form4: Form) -> Form:
    """Hodge star of a numeric 4d form in the orthonormal coframe,
    orientation dt ^ e1 ^ e2 ^ e3."""
    return hodge_star(Metric.euclidean(4), form4)
