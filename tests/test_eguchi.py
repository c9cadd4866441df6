"""Tests for the Eguchi-Hanson coframe calculus and weighted norms."""

from itertools import product

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

from g2glue import eguchi_hanson as EH
from g2glue.forms import wedge


RNG = np.random.default_rng(42)


def random_kr(n):
    ks = 10.0 ** RNG.uniform(-3, 1, size=n)
    rs = 10.0 ** RNG.uniform(-2, 3, size=n)
    return ks, rs


# ----------------------------------------------------------------------
# symbolic identities
# ----------------------------------------------------------------------

def test_triple_closed_symbolically():
    for om in EH.hyperkaehler_triple():
        assert om.d().is_zero()


def test_wrong_structure_sign_breaks_closedness():
    bad1, bad2, bad3 = EH.hyperkaehler_triple(frame_sign=-1)
    assert not bad1.d().is_zero()
    assert not bad2.d().is_zero()


def test_harmonic_form_identities():
    nu, lam, tau1 = EH.harmonic_forms()
    om1, _, _ = EH.hyperkaehler_triple()
    flat_om1 = EH.RadialForm(2, {(0, 1): 1, (2, 3): EH.R})
    assert (lam.d() - nu).is_zero()
    assert nu.d().is_zero()
    assert (tau1.d() - (om1 - flat_om1)).is_zero()


def test_tau_vanishes_at_k_zero():
    _, _, tau1 = EH.harmonic_forms()
    assert all(sp.simplify(c.subs(EH.K, 0)) == 0 for c in tau1.subs_k(0).coeffs.values())


def test_flat_triple_at_k_zero():
    om1, om2, om3 = (f.subs_k(0) for f in EH.hyperkaehler_triple())
    r = EH.R
    assert (om1 - EH.RadialForm(2, {(0, 1): 1, (2, 3): r})).is_zero()
    assert (om2 - EH.RadialForm(2, {(0, 2): 1, (1, 3): -r})).is_zero()
    assert (om3 - EH.RadialForm(2, {(0, 3): 1, (1, 2): r})).is_zero()


def test_asd_triple_closed_and_primitive():
    o1, o2, o3 = EH.asd_triple()
    for o in (o1, o2, o3):
        assert o.d().is_zero()
    assert (EH.RadialForm(1, {(2,): EH.R}, "right").d() - o2).is_zero()
    assert (EH.RadialForm(1, {(3,): EH.R}, "right").d() - o3).is_zero()


def test_d_squared_zero():
    a = EH.RadialForm(1, {(0,): sp.sin(EH.R) * EH.K,
                          (1,): EH.R ** 3 / (1 + EH.K + EH.R ** 2),
                          (2,): sp.sqrt(EH.K + EH.R),
                          (3,): 1 / (EH.R + 1)})
    assert a.d().d().is_zero()
    b = EH.RadialForm(2, {(0, 1): sp.exp(-EH.R), (1, 2): EH.R ** 2,
                          (2, 3): EH.K * EH.R}, "right")
    assert b.d().d().is_zero()


def test_is_zero_decides_identities_of_the_profile():
    # (f^2 - r)(f^2 + r) - k vanishes only through f^4 = k + r^2
    f, r = EH.f_sym(), EH.R
    zero = (f ** 2 - r) * (f ** 2 + r) - EH.K
    assert EH.RadialForm(0, {(): zero}).is_zero()
    assert EH.RadialForm(1, {(2,): zero, (3,): r * zero}).is_zero()
    # a quotient that is equal only after rationalizing by f^4 - r^4
    quotient = 1 / (f - r) - (f + r) * (f ** 2 + r ** 2) / (EH.K + r ** 2 - r ** 4)
    assert EH.RadialForm(0, {(): quotient}).is_zero()
    assert not EH.RadialForm(0, {(): zero + r * sp.Integer(10) ** -40}).is_zero()
    assert not EH.RadialForm(2, {(0, 1): zero, (2, 3): f - f ** 2}).is_zero()


def test_d_and_onb_components_are_in_normal_form():
    # every coefficient that d and onb_components return is a fixed point
    # of the normal form
    _, _, tau1 = EH.harmonic_forms()
    for form in (tau1.d(), EH.hyperkaehler_triple()[0]):
        for c in list(form.coeffs.values()) + list(form.onb_components().values()):
            assert EH._normal(c) == c


# ----------------------------------------------------------------------
# pointwise numerics at random (k, r)
# ----------------------------------------------------------------------

def test_duality_and_norms_random_points():
    nu, lam, tau1 = EH.harmonic_forms()
    om1, om2, om3 = EH.hyperkaehler_triple()
    o1h, o2h, o3h = EH.asd_triple()
    ks, rs = random_kr(40)
    for k in ks[:8]:
        nu_f = nu.evaluate_onb(k, rs)
        rel = np.abs(EH.star_onb(nu_f).coeffs + nu_f.coeffs).max()
        assert rel < 1e-12
        for om in (om1, om2, om3):
            f = om.evaluate_onb(k, rs)
            assert np.abs(EH.star_onb(f).coeffs - f.coeffs).max() < 1e-12
        for oh in (o1h, o2h, o3h):
            f = oh.evaluate_onb(k, rs)
            assert np.abs(EH.star_onb(f).coeffs + f.coeffs).max() < 1e-12


def test_nu_value_at_unit_point():
    nu, _, _ = EH.harmonic_forms()
    c01 = nu.coeffs[(0, 1)].subs({EH.R: 1, EH.K: 1})
    c23 = nu.coeffs[(2, 3)].subs({EH.R: 1, EH.K: 1})
    assert sp.simplify(c01 - 2 ** sp.Rational(-3, 2)) == 0
    assert sp.simplify(c23 + 2 ** sp.Rational(-1, 2)) == 0


def test_triple_normalization():
    om1, om2, om3 = EH.hyperkaehler_triple()
    f1 = om1.evaluate_onb(1.2, np.array([0.7, 3.0]))
    f2 = om2.evaluate_onb(1.2, np.array([0.7, 3.0]))
    assert np.abs(wedge(f1, f1).coeffs - 2.0).max() < 1e-12
    assert np.abs(wedge(f1, f2).coeffs).max() < 1e-13
    assert np.abs(wedge(f2, f2).coeffs - 2.0).max() < 1e-12


def test_six_forms_linearly_independent():
    forms = [f.evaluate_onb(1.0, np.array(2.0))
             for f in EH.hyperkaehler_triple() + EH.asd_triple()]
    gram = np.array([[(a.coeffs * b.coeffs).sum() for b in forms] for a in forms])
    assert np.linalg.matrix_rank(gram, tol=1e-10) == 6


# ----------------------------------------------------------------------
# distances and the exceptional sphere
# ----------------------------------------------------------------------

def test_radial_distance_flat():
    for r in (0.25, 4.0, 100.0):
        assert np.isclose(EH.radial_distance_many(0.0, r), 2.0 * np.sqrt(r),
                          rtol=1e-12)


def test_radial_distance_small_r():
    # f_1(0) = 1, so distance ~ r near the bolt
    assert np.isclose(EH.radial_distance_many(1.0, 1e-6), 1e-6, rtol=1e-4)


def test_radial_distance_monotone_and_asymptotic():
    rs = np.array([1.0, 10.0, 1e3, 1e6, 1e10])
    ds = EH.radial_distance_many(1.0, rs)
    assert np.all(np.diff(ds) > 0)
    # the constant in d ~ c sqrt(r) is reported, not asserted against the
    # stated value 1 (the eta-normalization ambiguity); here c -> 2 with a
    # bounded offset: d = 2 sqrt(r) - c0 + o(1)
    ratios = ds / np.sqrt(rs)
    assert abs(ratios[-1] - 2.0) < 1e-4
    assert abs(ratios[-1] - 2.0) < abs(ratios[-2] - 2.0) < abs(ratios[-3] - 2.0)


@pytest.mark.parametrize("k, rs", [
    (1.0, [0.5, -1e-3]),
    (1.0, [0.5, np.nan]),
    (1.0, [np.inf]),
    (-1e-4, [0.5, 1.0]),
    (np.nan, [0.5]),
])
def test_radial_distance_many_rejects_bad_input(k, rs):
    with pytest.raises(ValueError):
        EH.radial_distance_many(k, np.array(rs))
    with pytest.raises(ValueError):
        EH.radial_distance_many(k, rs[-1])


def test_radial_distance_many_agrees_with_single_calls():
    rs = np.array([[2.0, 0.0], [0.3, 2.0]])
    ds = EH.radial_distance_many(0.5, rs)
    assert ds[0, 1] == 0.0 and ds[0, 0] == ds[1, 1]
    for r, d in zip(rs.ravel(), ds.ravel()):
        assert np.isclose(d, EH.radial_distance_many(0.5, r), rtol=1e-12)


def quad_radial_distance(k, r):
    """int_0^r (k + s^2)^(-1/4) ds by adaptive quadrature, on segments
    that start at sqrt(k) and grow by a factor 8: on one huge interval
    QAGS can return a confidently wrong value."""
    edges = [0.0]
    e = min(max(np.sqrt(k), 1e-300), r)
    while e < r:
        edges.append(e)
        e *= 8.0
    edges.append(r)
    return sum(quad(lambda s: (k + s * s) ** -0.25, a, b, epsabs=0.0,
                    epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("k", [1e-300, 1e-12, 1e-4, 1.0, 16.0])
def test_radial_distance_matches_quadrature(k):
    # the closed form against quadrature of its integral, from r << sqrt(k)
    # to r >> sqrt(k), through the far branch (u = r / sqrt(k) > 1e150)
    # at k = 1e-300
    rs = np.geomspace(1e-8, 1e100, 28)
    ds = EH.radial_distance_many(k, rs)
    assert np.all(np.isfinite(ds))
    ref = np.array([quad_radial_distance(k, r) for r in rs])
    assert np.abs(ds / ref - 1.0).max() <= 1e-12
    assert EH.radial_distance_many(k, rs[5]) == ds[5]


def test_sphere_scaling_exact():
    g1 = EH.sphere_geometry(1.0)
    g16 = EH.sphere_geometry(16.0)
    assert np.isclose(g16["volume"] / g1["volume"], 4.0, rtol=1e-10)
    assert np.isclose(g16["diameter"] / g1["diameter"], 2.0, rtol=1e-10)


def loop_sphere_geometry(k):
    """(diameter, volume) of the exceptional sphere, point by point over
    the grid of sphere_geometry: the reference of its one array pass."""
    _, _, c2, c3 = EH.eh_metric_coefficients(k, 0.0)

    def section(th, ph):
        ry = np.array([[np.cos(th), 0, np.sin(th)], [0, 1, 0],
                       [-np.sin(th), 0, np.cos(th)]])
        rz = np.array([[np.cos(ph), -np.sin(ph), 0],
                       [np.sin(ph), np.cos(ph), 0], [0, 0, 1]])
        return rz @ ry

    def legs(th, ph, h=1e-6):
        out = []
        for dth, dph in ((h, 0.0), (0.0, h)):
            M = section(th, ph).T @ (section(th + dth, ph + dph)
                                     - section(th - dth, ph - dph)) / (2 * h)
            out.append((M[2, 1], M[0, 2]))
        return out

    def g(u, v):
        return c2 * (u[0] * v[0]) + c3 * (u[1] * v[1])

    nodes, wts = np.polynomial.legendre.leggauss(64)
    thetas, wts = 0.5 * np.pi * (nodes + 1.0), wts * 0.5 * np.pi
    speed = []
    for th in thetas:
        a, _ = legs(th, 0.3)
        speed.append(np.sqrt(g(a, a)))
    diameter = float(np.dot(wts, speed))
    area = 0.0
    for th, wt in zip(thetas, wts):
        row = 0.0
        for ph in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
            a, b = legs(th, ph)
            row += np.sqrt(max(g(a, a) * g(b, b) - g(a, b) ** 2, 0.0))
        area += wt * row * (2.0 * np.pi / 64)
    return diameter, area


@pytest.mark.parametrize("k", [1.0, 16.0, 0.37])
def test_sphere_geometry_matches_the_pointwise_loop(k):
    # the same arithmetic, point by point: equal to the bit
    geo = EH.sphere_geometry(k)
    assert (geo["diameter"], geo["volume"]) == loop_sphere_geometry(k)


def test_sphere_metric_is_read_from_the_bolt(monkeypatch):
    # the bolt metric c2 eta^2 x eta^2 + c3 eta^3 x eta^3 comes from
    # eh_metric_coefficients at r = 0: with c2 and c3 scaled by 4 the
    # volume constant scales by 4 and the diameter constant by 2, so the
    # k^(1/2) law is measured, not written into the sphere geometry
    before = EH.sphere_geometry(1.0)
    coefficients = EH.eh_metric_coefficients
    monkeypatch.setattr(EH, "eh_metric_coefficients", lambda k, r: (
        coefficients(k, r) * np.array([1.0, 1.0, 4.0, 4.0])))
    after = EH.sphere_geometry(1.0)
    assert np.isclose(after["volume_constant"] / before["volume_constant"],
                      4.0, rtol=1e-12)
    assert np.isclose(after["diameter_constant"]
                      / before["diameter_constant"], 2.0, rtol=1e-12)


def test_sphere_constants_reported():
    geo = EH.sphere_geometry(1.0)
    # measured constants land on pi and 4 pi; the ratio to the reference
    # values pi/2 and pi reflects the coframe normalization factor 2
    assert np.isclose(geo["diameter_constant"], np.pi, rtol=1e-6)
    assert np.isclose(geo["volume_constant"], 4.0 * np.pi, rtol=1e-6)


# ----------------------------------------------------------------------
# ALE decay and scaling
# ----------------------------------------------------------------------

def test_ale_ratio_bounded_by_four():
    rr = np.geomspace(1.01, 1e4, 4000)
    assert EH.ale_decay_ratio(1.0, rr).max() <= 4.0
    assert EH.ale_decay_ratio(1e-2, rr).max() <= 4.0
    assert EH.ale_decay_ratio(1e-4, rr).max() <= 4.0


def test_ale_ratio_decreases_with_k():
    rr = np.geomspace(1.01, 1e4, 500)
    sups = [EH.ale_decay_ratio(k, rr).max() for k in (1.0, 1e-1, 1e-2)]
    assert sups[0] > sups[1] > sups[2]


def test_ale_tail_monotone():
    nu, _, tau1 = EH.harmonic_forms()
    v2 = tau1.pointwise_norm(1e-2, np.array(1e2))
    v6 = tau1.pointwise_norm(1e-2, np.array(1e6))
    assert v6 < v2


def test_ale_ratio_rejects_inner_region():
    with pytest.raises(ValueError):
        EH.ale_decay_ratio(1.0, np.array([0.5]))


def test_scaling_pullback_identity():
    rs = np.array([0.3, 2.0, 11.0])
    assert EH.scaling_pullback_check(2.0, 2.0, rs) == 0.0
    assert EH.scaling_pullback_check(16.0, 1.0, rs) < 1e-12
    assert EH.scaling_pullback_check(0.3, 7.1, rs) < 1e-12


# ----------------------------------------------------------------------
# integrability and decay rate
# ----------------------------------------------------------------------

def test_nu_decay_slope():
    nu, _, _ = EH.harmonic_forms()
    k = 1e-4
    t = k ** 0.25
    rr = np.geomspace(1e2, 1e6, 80)
    w = t + EH.radial_distance_many(k, rr)
    mag = nu.pointwise_norm(k, rr)
    slope = np.polyfit(np.log(w), np.log(mag), 1)[0]
    assert abs(slope + 4.0) < 0.05


# ----------------------------------------------------------------------
# weighted norms
# ----------------------------------------------------------------------

NU = EH.harmonic_forms()[0]


def nu_jets(t, rs):
    """The coframe components of nu and of its arclength derivative on
    g_(t^4) at the radii rs."""
    def values(r):
        return NU.evaluate_onb(t ** 4, r).coeffs
    return [values(rs), EH.radial_derivative(values, t, rs)]


def brute_force_norm(jets, t, rs, beta, alpha):
    """The weighted Hoelder norm with its quotient over all n^2 pairs."""
    d = EH.radial_distance_many(t ** 4, rs)
    w = t + d
    total = sum((w ** (j - beta) * np.sqrt((c ** 2).sum(axis=0))).max()
                for j, c in enumerate(jets))
    for j, c in enumerate(jets):
        best = 0.0
        for x in range(rs.size):
            for y in range(rs.size):
                gap, wmin = abs(d[x] - d[y]), min(w[x], w[y])
                if 0 < gap <= wmin:
                    diff = np.sqrt(((c[:, x] - c[:, y]) ** 2).sum())
                    best = max(best, wmin ** (alpha + j - beta) * diff
                               / gap ** alpha)
        total += best
    return total


def test_radial_derivative():
    # d/ds (r^2) = f_k(r) 2r on g_(k), k = t^4, from one call of values
    t, rs = 0.5, np.geomspace(1e-2, 1e2, 50)
    calls = []
    got = EH.radial_derivative(lambda r: calls.append(r.shape) or r[None] ** 2,
                               t, rs)
    assert calls == [(2, rs.size)]
    expected = (t ** 4 + rs ** 2) ** 0.25 * 2.0 * rs
    assert np.abs(got[0] - expected).max() <= 1e-8 * expected.max()
    with pytest.raises(ValueError):
        EH.radial_derivative(lambda r: r[None], t, np.array([0.0, 1.0]))


def test_weighted_norm_constant():
    rs = np.geomspace(1e-3, 50, 300)
    ones = [np.ones((1, rs.size))]
    linf = EH.weighted_norm(ones, 0.3, rs, 0.0)
    assert np.isclose(linf, 1.0, rtol=1e-12)
    assert EH.weighted_norm(ones, 0.3, rs, 0.0, alpha=0.5) - linf < 1e-12


def test_weighted_norm_weight_power():
    t, beta = 0.3, -2.0
    rs = np.geomspace(1e-3, 50, 300)
    w = t + EH.radial_distance_many(t ** 4, rs)
    out = EH.weighted_norm([(w ** beta)[None]], t, rs, beta)
    assert np.isclose(out, 1.0, rtol=1e-12)


def test_weighted_norm_nu_finite():
    t = 0.5
    rs = np.geomspace(1e-3, 1e4, 500)
    val = EH.weighted_norm(nu_jets(t, rs)[:1], t, rs, -4.0, alpha=0.5)
    assert np.isfinite(val) and val > 0


def test_weighted_norm_monotone_in_samples():
    rs = np.geomspace(1e-2, 1e3, 200)
    jets = nu_jets(0.5, rs)[:1]
    small = EH.weighted_norm([c[:, ::4] for c in jets], 0.5, rs[::4], -4.0,
                             alpha=0.5)
    big = EH.weighted_norm(jets, 0.5, rs, -4.0, alpha=0.5)
    assert big >= small - 1e-12
    # exactly, with one derivative: at t = 0.3, beta = -0.5, alpha = 0.5
    # on rs[::2], 10 000 random pairs gave 487.299, more than the 487.204
    # they gave on all of rs
    for t in (0.3, 0.5, 0.8):
        jets = nu_jets(t, rs)
        for beta, alpha in product((-4.0, -2.0, -0.5), (0.3, 0.5, 0.9)):
            big = EH.weighted_norm(jets, t, rs, beta, alpha)
            for step in (2, 3, 4):
                small = EH.weighted_norm([c[:, ::step] for c in jets], t,
                                         rs[::step], beta, alpha)
                assert big >= small, (t, beta, alpha, step)


def test_weighted_norm_matches_all_pairs():
    # every admissible pair, also with a repeated radius (d = 0, not
    # admissible) and a radius out of order
    rs = np.geomspace(1e-2, 1e2, 38)
    rs = np.concatenate([rs, [rs[17], 0.37]])
    for t, beta, alpha in ((0.3, -0.5, 0.5), (0.8, -4.0, 0.9),
                           (0.5, -2.0, 0.3)):
        jets = nu_jets(t, rs)
        got = EH.weighted_norm(jets, t, rs, beta, alpha)
        ref = brute_force_norm(jets, t, rs, beta, alpha)
        assert abs(got - ref) <= 1e-14 * ref


def test_weighted_norm_empty_samples():
    # an empty sample set, t <= 0 and alpha outside (0, 1) are refused
    for t, alpha, rs in ((0.3, 0.5, []), (0.0, 0.5, [1.0]), (-0.3, 0.5, [1.0]),
                         (0.3, 0.0, [1.0]), (0.3, 1.0, [1.0]),
                         (0.3, 1.5, [1.0])):
        rs = np.array(rs)
        with pytest.raises(ValueError):
            EH.weighted_norm([np.ones((1, rs.size))], t, rs, 0.0, alpha=alpha)


def test_rescaling_invariance():
    nu, _, _ = EH.harmonic_forms()
    rs = np.geomspace(1e-3, 30, 150)
    assert EH.rescaling_invariance_check(nu, -4.0, 0.6, rs) <= 1e-8
    const2 = EH.RadialForm(2, {(0, 1): 1.0})
    assert EH.rescaling_invariance_check(const2, 0.0, 0.45, rs) <= 1e-8
    zero = EH.RadialForm(2, {})
    assert EH.rescaling_invariance_check(zero, -1.0, 0.5, rs) == 0.0
