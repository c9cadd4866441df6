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
from functools import lru_cache
from itertools import combinations

import numpy as np
import sympy as sp
from scipy.integrate import quad

from .forms import Form, Metric, hodge_star, merge_sign

__all__ = [
    "R", "K", "f_sym", "RadialForm",
    "hyperkaehler_triple", "harmonic_forms", "asd_triple",
    "radial_distance", "radial_distance_many", "sphere_geometry",
    "ale_decay_ratio", "scaling_pullback_check",
    "WeightedNormSpec", "weighted_norm", "rescaling_invariance_check",
    "nu_l2_integral", "eh_metric_coefficients",
]

R, K = sp.symbols("r k", positive=True)


def f_sym(k=K):
    """The profile f_k(r) = (k + r^2)^(1/4)."""
    return (k + R ** 2) ** sp.Rational(1, 4)


# coframe labels: 0 = dr, 1..3 = eta^i (or hatted eta^i)
_LABELS = (0, 1, 2, 3)


@lru_cache(maxsize=None)
def _monomials(degree: int):
    return tuple(combinations(_LABELS, degree))


# structure constants: d eta^i = sign * eta^j ^ eta^k, (i j k) cyclic
FRAME_SIGN = {"left": 1, "right": -1}


@dataclass(frozen=True)
class RadialForm:
    """p-form with sympy coefficients of (r, k) on wedge monomials in
    {dr, eta^1, eta^2, eta^3}; frame is 'left' or 'right'."""
    degree: int
    coeffs: dict            # monomial tuple -> sympy expression
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
        object.__setattr__(self, "coeffs", clean)

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

    def wedge(self, other: "RadialForm") -> "RadialForm":
        if self.frame != other.frame:
            raise ValueError("frame mismatch")
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                if set(ma) & set(mb):
                    continue
                mono = tuple(sorted(ma + mb))
                out[mono] = out.get(mono, 0) + merge_sign(ma, mb) * ca * cb
        return RadialForm(self.degree + other.degree, out, self.frame)

    # -- exterior derivative ----------------------------------------------
    def d(self) -> "RadialForm":
        """Termwise exterior derivative: d/dr on coefficients plus the
        Maurer-Cartan structure equations on the coframe."""
        sgn = FRAME_SIGN[self.frame]
        out = {}

        def add(mono, c):
            c = sp.simplify(c)
            if c != 0:
                out[mono] = out.get(mono, 0) + c

        for mono, c in self.coeffs.items():
            # radial part
            if 0 not in mono:
                add(tuple(sorted((0,) + mono)), sp.diff(c, R))
            # structure part: d eta^i = sgn * eta^j ^ eta^k (cyclic)
            for pos, lab in enumerate(mono):
                if lab == 0:
                    continue
                j, kk = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[lab]
                rest = mono[:pos] + mono[pos + 1:]
                if j in rest or kk in rest:
                    continue
                pair = (j, kk) if j < kk else (kk, j)
                pair_sign = 1 if j < kk else -1
                new = tuple(sorted(rest + pair))
                # (-1)^pos from Leibniz; the 2-form slides to the front for
                # free, then sorts into the remaining 1-form labels
                s = ((-1) ** pos) * sgn * pair_sign * merge_sign(pair, rest)
                add(new, s * c)
        return RadialForm(self.degree + 1, out, self.frame)

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
            out[mono] = sp.simplify(c * fac)
        return out

    def _lambdified(self):
        comps = self.onb_components()
        monos = _monomials(self.degree)
        funcs = tuple(sp.lambdify((R, K), comps.get(m, 0), "numpy") for m in monos)
        return monos, funcs

    def evaluate_onb(self, k_val, r_val) -> Form:
        """Numeric Form (dim 4, basis order dt,e1,e2,e3) at (k, r); r may
        be an array."""
        monos, funcs = self._lambdified()
        r_arr = np.asarray(r_val, dtype=float)
        batch = r_arr.shape
        coeffs = np.zeros((len(monos),) + batch)
        for i, fn in enumerate(funcs):
            coeffs[i] = np.broadcast_to(fn(r_arr, k_val), batch)
        return Form(4, self.degree, coeffs)

    def pointwise_norm(self, k_val, r_val) -> np.ndarray:
        """|a|_{g_(k)} at radius r (coframe components are orthonormal)."""
        form = self.evaluate_onb(k_val, r_val)
        return np.sqrt((form.coeffs ** 2).sum(axis=0))

    def subs_k(self, k_val) -> "RadialForm":
        return RadialForm(self.degree,
                          {m: c.subs(K, k_val) for m, c in self.coeffs.items()},
                          self.frame)

    def pullback_radial(self, lam2) -> "RadialForm":
        """Pullback under the radial map r -> lam2 * r (fixing SO(3))."""
        lam2 = sp.sympify(lam2)
        out = {}
        for mono, c in self.coeffs.items():
            fac = lam2 if 0 in mono else 1
            out[mono] = fac * c.subs(R, lam2 * R)
        return RadialForm(self.degree, out, self.frame)

    def simplify(self) -> "RadialForm":
        return RadialForm(self.degree,
                          {m: sp.simplify(c) for m, c in self.coeffs.items()},
                          self.frame)

    def is_zero(self) -> bool:
        return all(sp.simplify(c) == 0 for c in self.coeffs.values())


def _mono_form(degree, entries, frame="left"):
    return RadialForm(degree, entries, frame)


# ----------------------------------------------------------------------
# the standard forms of the family
# ----------------------------------------------------------------------

def hyperkaehler_triple(frame_sign: int = 1):
    """Symbolic (omega_1, omega_2, omega_3) of g_(k); closed only for the
    forced structure sign (+1 left-invariant).  Pass frame_sign=-1 to get
    the same radial expressions over the right-invariant coframe."""
    frame = "left" if frame_sign == 1 else "right"
    f = f_sym()
    om1 = _mono_form(2, {(0, 1): R / f ** 2, (2, 3): f ** 2}, frame)
    om2 = _mono_form(2, {(0, 2): 1, (1, 3): -R}, frame)          # dr^eta2 + r eta3^eta1
    om3 = _mono_form(2, {(0, 3): 1, (1, 2): R}, frame)           # dr^eta3 + r eta1^eta2
    return om1, om2, om3


def harmonic_forms():
    """Symbolic (nu, lambda, tau_1): nu = d lambda is the L^2 harmonic
    2-form, tau_1 primitive for omega_1^(k) - omega_1^(0)."""
    f = f_sym()
    nu = _mono_form(2, {(0, 1): R / f ** 6, (2, 3): -1 / f ** 2})
    lam = _mono_form(1, {(1,): -1 / f ** 2})
    tau1 = _mono_form(1, {(1,): f ** 2 - R})     # f_k^2 - f_0^2 = sqrt(k+r^2) - r
    return nu, lam, tau1


def asd_triple():
    """Symbolic (omegahat_1, omegahat_2, omegahat_3) over the
    right-invariant coframe; closed, and anti-self-dual along the
    identity section."""
    f = f_sym()
    o1 = _mono_form(2, {(0, 1): R / f ** 2, (2, 3): -f ** 2}, "right")
    o2 = _mono_form(2, {(0, 2): 1, (1, 3): R}, "right")          # dr^etahat2 - r etahat3^etahat1
    o3 = _mono_form(2, {(0, 3): 1, (1, 2): -R}, "right")         # dr^etahat3 - r etahat1^etahat2
    return o1, o2, o3


def eh_metric_coefficients(k_val, r):
    """Diagonal of g_(k) in the (dr, eta^1, eta^2, eta^3) coframe."""
    r = np.asarray(r, dtype=float)
    f2 = np.sqrt(k_val + r ** 2)
    return np.stack([1.0 / f2, r ** 2 / f2, f2, f2])


# ----------------------------------------------------------------------
# radial distance and exceptional-sphere geometry
# ----------------------------------------------------------------------

def radial_distance(k: float, r: float, tol: float = 1e-12) -> float:
    """d_{g_(k)}(S^2, r) = int_0^r f_k(s)^-1 ds by adaptive quadrature."""
    if r < 0 or k < 0:
        raise ValueError("need r >= 0 and k >= 0")
    if r == 0.0:
        return 0.0
    if k == 0.0:
        return 2.0 * np.sqrt(r)
    val, err = _quad_segmented(k, 0.0, r, tol)
    if err > 1e-9 * max(1.0, abs(val)):
        raise RuntimeError(f"quadrature did not converge: err={err}")
    return val


def _quad_segmented(k: float, lo: float, hi: float, tol: float = 1e-12):
    """Quadrature of f_k^-1 over [lo, hi] split into geometric segments:
    on one huge interval QAGS can return a confidently wrong value
    (observed at r ~ 1e6)."""
    edges = [lo]
    e = max(np.sqrt(k), 1e-6, lo)
    while e <= lo:
        e *= 8.0
    while e < hi:
        edges.append(e)
        e *= 8.0
    edges.append(hi)
    val, err = 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        seg, seg_err = quad(lambda s: (k + s * s) ** -0.25, a, b,
                            epsabs=tol, epsrel=tol, limit=200)
        val += seg
        err += seg_err
    return val, err


def radial_distance_many(k: float, rs: np.ndarray) -> np.ndarray:
    """Cumulative adaptive quadrature over a batch of radii."""
    rs = np.asarray(rs, dtype=float)
    flat = rs.ravel()
    order = np.argsort(flat)
    out = np.empty_like(flat)
    if k == 0.0:
        return (2.0 * np.sqrt(rs))
    prev_r, prev_d = 0.0, 0.0
    for idx in order:
        r = flat[idx]
        if r > prev_r:
            seg, _ = _quad_segmented(k, prev_r, r)
            prev_d += seg
            prev_r = r
        out[idx] = prev_d
    return out.reshape(rs.shape)


def _so3_section(theta, phi):
    """Rotation R_z(phi) R_y(theta) mapping e_z to the sphere point."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp_ = np.cos(phi), np.sin(phi)
    ry = np.array([[ct, 0, st], [0, 1, 0], [-st, 0, ct]])
    rz = np.array([[cp, -sp_, 0], [sp_, cp, 0], [0, 0, 1]])
    return rz @ ry


def _mc_coefficients(theta, phi, h=1e-6):
    """so(3) coefficients of R^-1 dR along d/dtheta and d/dphi (unit-speed
    rotation generators; the stabilizer direction is L_z)."""
    Rm = _so3_section(theta, phi)
    out = []
    for dth, dph in ((h, 0.0), (0.0, h)):
        Rp = _so3_section(theta + dth, phi + dph)
        Rmn = _so3_section(theta - dth, phi - dph)
        M = Rm.T @ (Rp - Rmn) / (2 * h)
        out.append(np.array([M[2, 1], M[0, 2], M[1, 0]]))  # (Lx, Ly, Lz) parts
    return out


def sphere_geometry(k: float, n_theta: int = 64, n_phi: int = 64) -> dict:
    """Diameter and Riemannian volume of the exceptional sphere with the
    induced metric f_k(0)^2 (eta^2 x eta^2 + eta^3 x eta^3).

    Exact scaling (diameter ~ k^{1/4}, volume ~ k^{1/2}) is asserted by the
    caller; the proportionality constants are reported next to the
    reference values pi/2 and pi, which presume a coframe normalization
    half of the one forced by closedness of the triple (see module notes).
    """
    if k <= 0:
        raise ValueError("need k > 0")
    fk0_sq = np.sqrt(k)       # f_k(0)^2 = k^(1/2)

    # diameter: pole-to-pole meridian length (phi fixed)
    thetas, wts = np.polynomial.legendre.leggauss(n_theta)
    thetas = 0.5 * np.pi * (thetas + 1.0)
    wts = wts * 0.5 * np.pi
    speed = []
    for th in thetas:
        a_th, _ = _mc_coefficients(th, 0.3)
        speed.append(np.sqrt(fk0_sq * (a_th[0] ** 2 + a_th[1] ** 2)))
    diameter = float(np.dot(wts, speed))

    # volume: integrate sqrt(det) of the pulled-back metric
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    area = 0.0
    for th, wt in zip(thetas, wts):
        row = 0.0
        for ph in phis:
            a_th, a_ph = _mc_coefficients(th, ph)
            g11 = fk0_sq * (a_th[0] ** 2 + a_th[1] ** 2)
            g22 = fk0_sq * (a_ph[0] ** 2 + a_ph[1] ** 2)
            g12 = fk0_sq * (a_th[0] * a_ph[0] + a_th[1] * a_ph[1])
            row += np.sqrt(max(g11 * g22 - g12 ** 2, 0.0))
        area += wt * row * (2.0 * np.pi / n_phi)
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

def ale_decay_ratio(k: float, r, l: int = 0) -> np.ndarray:
    """|tau_1^(k)|_{g_(0)} / (k (k^{1/4} + r^{1/2})^{-3}), for k in (0,1],
    r > 1, l = 0.  Bounded by 4 on that regime."""
    if l != 0:
        raise ValueError("only l = 0 is implemented")
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


def nu_l2_integral(k: float, R_out: float) -> float:
    """int_{r <= R_out} |nu_k|^2 dvol up to the fixed SO(3) volume factor:
    |nu|^2 = 2 f^-8 and dvol = r dr ^ (angular volume).  Quadrature runs
    over geometric segments so the slowly-decaying tail stays accurate."""
    edges = [0.0]
    e = 1.0
    while e < R_out:
        edges.append(e)
        e *= 10.0
    edges.append(R_out)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg, _ = quad(lambda s: 2.0 * s / (k + s * s) ** 2, lo, hi,
                      epsabs=1e-14, epsrel=1e-13, limit=200)
        total += seg
    return total


# ----------------------------------------------------------------------
# weighted Hoelder norms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedNormSpec:
    """Parameters of the discretized C^{k,alpha}_{beta;t} norm."""
    k_derivs: int
    alpha: float
    beta: float
    t: float
    max_pairs: int = 10000

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0,1)")
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.k_derivs < 0:
            raise ValueError("k_derivs must be >= 0")


def _field_components(field, k_val, rs):
    """Orthonormal-frame components of a RadialForm or callable field."""
    if isinstance(field, RadialForm):
        return field.evaluate_onb(k_val, rs).coeffs
    out = np.asarray(field(rs), dtype=float)
    return out if out.ndim > 1 else out[None]


def weighted_norm(field, spec: WeightedNormSpec, r_samples,
                  parts: bool = False):
    """Discretized weighted Hoelder norm of a radial field on X.

    Sum over j <= k_derivs of the L^inf_{beta-j;t} part plus the Hoelder
    quotient over admissible sample pairs (d(x,y) <= w_t(x,y)); radial
    derivatives are taken with respect to g_(t^4)-arclength, and the
    parallel-transport comparison is the coframe-component difference.
    Discretization only ever under-estimates the supremum, so the value is
    monotone in the sample set.  With parts=True a breakdown
    {"linf": [...], "hoelder": h, "total": s} is returned.
    """
    rs = np.asarray(r_samples, dtype=float)
    if rs.size == 0:
        raise ValueError("empty sample set")
    k_val = spec.t ** 4
    dists = radial_distance_many(k_val, rs)
    w = spec.t + dists

    linf = []
    jets = []
    for j in range(spec.k_derivs + 1):
        if j == 0:
            comps = _field_components(field, k_val, rs)
        else:
            delta = np.maximum(1e-6 * rs, 1e-12)
            fk = (k_val + rs ** 2) ** 0.25
            plus = _field_components(field, k_val, rs + delta)
            minus = _field_components(field, k_val, rs - delta)
            comps = fk * (plus - minus) / (2.0 * delta)   # d/ds = f d/dr
        mag = np.sqrt((comps ** 2).sum(axis=0))
        linf.append(float((w ** (-(spec.beta - j)) * mag).max()))
        jets.append(comps)

    # Hoelder quotients over admissible pairs
    n = rs.size
    rng = np.random.default_rng(0)
    npairs = min(spec.max_pairs, n * (n - 1) // 2)
    hoelder = 0.0
    if n >= 2 and npairs > 0:
        ii = rng.integers(0, n, size=npairs)
        jj = rng.integers(0, n, size=npairs)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
        d = np.abs(dists[ii] - dists[jj])
        wmin = np.minimum(w[ii], w[jj])
        adm = (d > 0) & (d <= wmin)
        for j, comps in enumerate(jets):
            diff = np.sqrt(((comps[:, ii] - comps[:, jj]) ** 2).sum(axis=0))
            quot = np.where(adm, wmin ** (spec.alpha - (spec.beta - j))
                            * diff / np.maximum(d, 1e-300) ** spec.alpha, 0.0)
            hoelder += float(quot.max())
    total = sum(linf) + hoelder
    if parts:
        return {"linf": linf, "hoelder": hoelder, "total": total}
    return total


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
    w_t = t + radial_distance_many(k_val, rs)
    rhs_vals = w_t ** (-beta) * a.pointwise_norm(k_val, rs)
    rhs = float(rhs_vals.max())

    # 1-side on the matched grid u = r / t^2; the form keeps its own
    # family parameter k = t^4 while the frame/weight switch to g_(1)
    us = rs / t ** 2
    pulled = a.subs_k(t ** 4).pullback_radial(t ** 2) * (t ** (-beta - 2))
    w_1 = 1.0 + radial_distance_many(1.0, us)
    lhs_vals = w_1 ** (-beta) * pulled.pointwise_norm(1.0, us)
    lhs = float(lhs_vals.max())
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
