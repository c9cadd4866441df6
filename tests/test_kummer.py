"""Tests for the T^7/Gamma combinatorics and the glued structure."""

import numpy as np
import pytest
import sympy as sp

from g2glue import eguchi_hanson as EH
from g2glue import forms as F
from g2glue import kummer as KM
from g2glue.forms import (Form, PositivityError, index_list, index_position,
                          inner_product, metric_from_g2, wedge)


# ----------------------------------------------------------------------
# group combinatorics (exact)
# ----------------------------------------------------------------------

def test_group_order_and_involutions():
    els = KM.gamma_elements()
    assert len(els) == 8
    for el in els:
        assert el.compose(el).is_identity()


def test_generators_commute():
    ab = KM.ALPHA.compose(KM.BETA)
    ba = KM.BETA.compose(KM.ALPHA)
    assert ab.key() == ba.key()


def test_all_elements_preserve_flat_form():
    # the linear part of each element pulls the invariant 3-form back to
    # itself exactly (shifts act trivially on constant forms)
    phi = Form.from_dict(7, 3, KM.INVARIANT_PHI_TERMS)
    for el in KM.gamma_elements():
        pulled = F.pullback(np.diag(el.signs), phi)
        assert np.array_equal(pulled.coeffs, phi.coeffs)


def test_invariant_form_is_positive():
    g, vol = metric_from_g2(Form.from_dict(7, 3, KM.INVARIANT_PHI_TERMS))
    assert np.abs(g.entries - np.eye(7)).max() < 1e-12
    assert np.isclose(vol, 1.0)


def test_fixed_tori_counts():
    expected = {"a": 16, "b": 16, "c": 16, "ba": 0, "ca": 0, "cb": 0,
                "cba": 0}
    for el in KM.gamma_elements():
        if el.is_identity():
            continue
        assert len(KM.fixed_point_tori(el)) == expected[el.name]


def test_identity_fixes_everything():
    tori = KM.fixed_point_tori(KM.gamma_elements()[0].compose(
        KM.gamma_elements()[0]))
    assert len(tori) == 1 and tori[0].dimension == 7


def test_alpha_free_coordinates():
    tori = KM.fixed_point_tori(KM.ALPHA)
    assert all(t.free == (4, 5, 6) for t in tori)
    assert all(t.dimension == 3 for t in tori)
    pinned_sets = {t.pinned for t in tori}
    assert len(pinned_sets) == 16


def test_singular_components():
    sc = KM.singular_components()
    assert sc["n_components"] == 12
    assert sc["orbit_size"] == 4
    assert sc["disjoint"]
    assert sc["kernel_dimension"] == 12


def _invariant_two_forms(elements):
    """How many of the 21 coordinate 2-forms the linear part of every
    element pulls back to themselves."""
    return sum(all(np.array_equal(F.pullback(np.diag(el.signs), w).coeffs,
                                  w.coeffs) for el in elements)
               for w in (Form.basis(7, ij) for ij in index_list(7, 2)))


def test_b2_counts_the_invariant_two_forms(monkeypatch):
    assert _invariant_two_forms(KM.gamma_elements()) == 0
    assert KM.singular_components()["b2"] == 0
    # with the group cut down to {1, alpha}, the 2-forms on the flipped T^4
    # and on the fixed T^3 survive: 6 + 3
    small = [KM.TorusIsometry((1,) * 7, (0,) * 7), KM.ALPHA]
    assert _invariant_two_forms(small) == 9
    monkeypatch.setattr(KM, "gamma_elements", lambda: small)
    sc = KM.singular_components()
    assert sc["b2"] == 9 and sc["kernel_dimension"] == 21


def test_singular_components_read_the_one_group(monkeypatch):
    # generators, subgroups, components and orbit sizes all come from the
    # list gamma_elements() returns: cut down to {1, alpha}, alpha's 16
    # tori are 16 components, each its own orbit under the trivial group
    small = [KM.TorusIsometry((1,) * 7, (0,) * 7), KM.ALPHA]
    monkeypatch.setattr(KM, "gamma_elements", lambda: small)
    sc = KM.singular_components()
    assert sc["counts"] == {"a": 16}
    assert sc["n_components"] == 16 and sc["orbit_size"] == 1
    assert {name for name, _ in sc["components"]} == {"a"}
    assert sc["disjoint"]


def test_invariant_form_is_the_image_of_phi0():
    # INVARIANT_PHI_TERMS is derived as L's image of forms.PHI0_TERMS; it
    # is the arrangement the group was written for
    assert KM.INVARIANT_PHI_TERMS == {
        (4, 5, 6): 1.0, (2, 3, 6): 1.0, (0, 1, 6): 1.0, (1, 3, 5): 1.0,
        (0, 2, 5): -1.0, (0, 3, 4): -1.0, (1, 2, 4): -1.0,
    }
    # L term by term: dx_i -> L_SIGNS[i] dx_{L_PERM[i]}, sorted with sign
    image = {}
    for idx, c in F.PHI0_TERMS.items():
        sign, key = F.sort_index(KM.L_PERM[i] for i in idx)
        image[key] = c * sign * np.prod([KM.L_SIGNS[i] for i in idx])
    assert image == KM.INVARIANT_PHI_TERMS


# The glued chart's flat form is the third arrangement of phi0: in the
# chart coframe (delta_1, delta_2, delta_3, dt, e1, e2, e3) it is D^* phi0
# with D = diag(1, 1, 1, 1, -1, -1, 1),
# delta_123 - delta_145 - delta_167 - delta_246 + delta_257 - delta_347
# - delta_356.  Only this test states D.
CHART_D = np.diag([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


@pytest.mark.parametrize("t", [2e-3, 1e-3, 5e-4])
def test_chart_plateaus_carry_the_image_of_phi0(t):
    # on the inner plateau (s = zeta/8) the cutoff is 0 and the triple of
    # g_(t^4) is the constant one in its orthonormal coframe, so phi_t is
    # D^* phi0 to the bit; on the outer plateau (s = 0.75 zeta) it is the
    # triple of g_(0) read in the coframe of g_(t^4), whose omega_1
    # coefficients are c and 1/c with c = sqrt(1 + t^4 / r^2), so phi_t
    # leaves D^* phi0 by t^4 / (2 r^2), up to a relative t^4 / (4 r^2)
    flat = F.pullback(CHART_D, F.phi0()).coeffs
    chart = KM.GluingChart(t)
    inner, outer = chart.r_of_s(np.array([chart.zeta / 8, 0.75 * chart.zeta]))
    phi, _ = KM.glued_structure(t, np.array([inner]))
    assert np.array_equal(phi.coeffs[:, 0], flat)
    phi, _ = KM.glued_structure(t, np.array([outer]))
    deviation = np.abs(phi.coeffs[:, 0] - flat).max()
    assert np.isclose(deviation, t ** 4 / (2.0 * outer ** 2), rtol=1e-5, atol=0)


def test_group_closure_failure_raises(monkeypatch):
    # a real exception, not an assert that python -O strips
    monkeypatch.setattr(KM, "GAMMA", KM.ALPHA)
    with pytest.raises(RuntimeError, match="group closure failed"):
        KM.gamma_elements()


# ----------------------------------------------------------------------
# the glued structure
# ----------------------------------------------------------------------

def test_chart_cutoff_profile():
    chart = KM.GluingChart(0.05)
    z = chart.zeta
    assert chart.chi(z / 8) == 0.0
    assert chart.chi(z / 4) == 0.0
    assert chart.chi(z / 2) == 1.0
    assert chart.chi(0.9 * z) == 1.0
    s = np.linspace(z / 4, z / 2, 200)
    assert np.all(np.diff(chart.chi(s)) >= 0)
    # chain rule d/dr chi(s(r)) = chi'(s) s'(r) against a central difference
    r = chart.r_of_s(np.linspace(z / 4, z / 2, 50)[1:-1])
    h = 1e-6 * r
    fd = (chart.chi(chart.s_of_r(r + h)) - chart.chi(chart.s_of_r(r - h))) \
        / (2 * h)
    exact = chart.chi_prime(chart.s_of_r(r)) * chart.ds_dr(r)
    assert np.abs(fd - exact).max() <= 1e-6 * np.abs(exact).max()


def test_plateau_metrics_exact():
    err = KM.plateau_metric_error(0.05)
    assert err["inner"] < 1e-12
    assert err["outer"] < 1e-12


def test_inner_plateau_is_product_structure():
    # below the cutoff the 3-form has the constant product coefficients
    t = 0.05
    chart = KM.GluingChart(t)
    rs = np.array([chart.r_of_s(chart.zeta / 8)])
    phi, theta_t = KM.glued_structure(t, rs)
    psi, norms, _ = KM.torsion_form(t, rs)
    assert norms.max() < 1e-14
    from g2glue.forms import theta
    assert np.abs(theta(phi).coeffs - theta_t.coeffs).max() < 1e-13


def test_outer_region_is_flat_structure():
    t = 0.05
    chart = KM.GluingChart(t)
    rs = np.array([chart.r_of_s(0.8 * chart.zeta)])
    _, norms, _ = KM.torsion_form(t, rs)
    assert norms.max() < 1e-14


def test_closedness_residual(monkeypatch):
    rs = np.geomspace(1e-4, 3e-3, 100)
    assert KM.closedness_residual(0.05, rs) <= 1e-10
    # the residual must see a wrong cutoff-derivative term of
    # omega_tilde_1 (s'(r) dropped, or its sign flipped) in the triple
    # that glued_structure uses
    fiber = KM._fiber_two_forms
    for wrong_ds_dr in (np.ones_like,
                        lambda r: -KM.GluingChart(0.05).ds_dr(r)):
        class WrongChart(KM.GluingChart):
            def ds_dr(self, r):
                return wrong_ds_dr(np.asarray(r, dtype=float))

        with monkeypatch.context() as m:
            m.setattr(KM, "_fiber_two_forms",
                      lambda chart, r: fiber(WrongChart(chart.t), r))
            assert KM.closedness_residual(0.05, rs) > 1e-10
    # its reference is built apart from the compiled fiber forms, so it
    # sees a wrong omega_1 or d tau_1 in them
    om1, om2, om3, drt, dtau1 = KM._fiber_forms()
    for wrong in ((1.01 * om1, om2, om3, drt, dtau1),
                  (om1, om2, om3, drt, 1.01 * dtau1)):
        with monkeypatch.context() as m:
            m.setattr(KM, "_fiber_forms", lambda: wrong)
            assert KM.closedness_residual(0.05, rs) > 1e-10


def _counting_sympy(monkeypatch, names):
    """Count the calls to sympy.<name> for each of names."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(sp, name, counting(name, getattr(sp, name)))
    return calls


def test_closedness_residual_compiles_once_per_reference_form(monkeypatch):
    rs = np.geomspace(1e-4, 3e-3, 50)
    KM.closedness_residual(0.05, rs)
    calls = _counting_sympy(monkeypatch, ("simplify", "lambdify"))
    assert KM.closedness_residual(0.05, rs) <= 1e-10
    assert calls["simplify"] == 0
    assert calls["lambdify"] <= 3


def _glued_by_wedges(t, rs, chart):
    """phi_t and theta_t as the chain of wedges and subtractions the
    docstring of glued_structure states, with the fiber forms embedded in
    slots 3..6."""
    batch = rs.shape

    def embed(form4):
        out = Form.zero(7, form4.degree, batch)
        pos7 = index_position(7, form4.degree)
        for p4, idx in enumerate(index_list(4, form4.degree)):
            out.coeffs[pos7[tuple(i + 3 for i in idx)]] = form4.coeffs[p4]
        return out

    om7 = [embed(o) for o in KM._fiber_two_forms(chart, rs)]
    delta = [Form.basis(7, (i,)) for i in range(3)]
    phi = wedge(wedge(delta[0], delta[1]), delta[2])
    base = phi.coeffs.reshape((35,) + (1,) * len(batch))
    phi = Form(7, 3, np.broadcast_to(base, (35,) + batch).copy())
    for i in range(3):
        phi = phi - wedge(om7[i], delta[i])
    theta_t = 0.5 * wedge(om7[0], om7[0])
    for i, (j, k) in enumerate([(1, 2), (2, 0), (0, 1)]):
        theta_t = theta_t - wedge(om7[i], wedge(delta[j], delta[k]))
    return phi, theta_t


def test_glued_structure_matches_the_wedge_chain():
    for t in (0.004, 0.05):
        chart = KM.GluingChart(t)
        rs = chart.r_of_s(np.linspace(chart.zeta / 8, chart.zeta * 0.75, 200))
        phi, theta_t = KM.glued_structure(t, rs)
        ref_phi, ref_theta = _glued_by_wedges(t, rs, chart)
        assert phi.coeffs.shape == ref_phi.coeffs.shape
        assert np.array_equal(phi.coeffs, ref_phi.coeffs)
        assert theta_t.degree == 4
        assert np.abs(theta_t.coeffs - ref_theta.coeffs).max() \
            <= 1e-15 * np.abs(ref_theta.coeffs).max()
    # a batch of shape (2, n), as the gradient's r +- delta call makes
    rs2 = np.stack([rs, 1.01 * rs])
    assert np.array_equal(KM.glued_structure(t, rs2)[0].coeffs,
                          _glued_by_wedges(t, rs2, chart)[0].coeffs)


def test_fiber_forms_compiled_match_symbolic():
    # the cached evaluators against the symbolic onb_components, evaluated
    # by sympy at 30 digits, at random (k, r)
    rng = np.random.default_rng(3)
    for form in KM._fiber_forms():
        comps = form.onb_components()
        for k, r in zip(rng.uniform(1e-3, 1.0, 4), rng.uniform(1e-2, 2.0, 4)):
            got = form.evaluate_onb(k, r).coeffs
            exact = np.array([float(comps.get(m, sp.S.Zero).evalf(
                30, subs={EH.R: sp.Float(r, 30), EH.K: sp.Float(k, 30)}))
                for m in EH._monomials(form.degree)])
            assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()


def test_warm_torsion_form_compiles_nothing(monkeypatch):
    t = 0.004
    chart = KM.GluingChart(t)
    rs = chart.r_of_s(np.linspace(chart.zeta / 4, chart.zeta / 2, 50))
    cold = KM.torsion_form(t, rs)
    calls = _counting_sympy(monkeypatch, ("simplify", "lambdify"))
    warm = KM.torsion_form(t, rs)
    assert calls == {"simplify": 0, "lambdify": 0}
    assert np.array_equal(warm[0].coeffs, cold[0].coeffs)
    # a new k reuses the same compiled forms
    KM.torsion_form(2 * t, 4 * rs)
    assert calls == {"simplify": 0, "lambdify": 0}


def test_torsion_supported_on_annulus():
    t = 0.01
    chart = KM.GluingChart(t)
    inside = np.array([chart.r_of_s(chart.zeta / 8)])
    outside = np.array([chart.r_of_s(0.75 * chart.zeta)])
    mid = np.array([chart.r_of_s(0.375 * chart.zeta)])
    for rs in (inside, outside):
        _, norms, _ = KM.torsion_form(t, rs)
        assert norms.max() <= 1e-14
    _, norms, _ = KM.torsion_form(t, mid)
    assert norms.max() > 0


def test_torsion_norms_match_inner_product():
    # torsion_form takes |psi|^2 as (psi ^ mismatch) / vol, with
    # *psi = mismatch; it must equal <psi, psi>_g from a second star
    for t in (0.008, 0.004, 0.002, 0.001):
        chart = KM.GluingChart(t)
        s = np.linspace(chart.zeta / 4 * 1.0001, chart.zeta / 2 * 0.9999, 200)
        psi, norms, g = KM.torsion_form(t, chart.r_of_s(s))
        ref = np.sqrt(np.maximum(inner_product(g, psi, psi), 0.0))
        assert ref.max() > 0
        assert np.abs(norms - ref).max() <= 1e-12 * ref.max()


def test_torsion_bounded_by_t4():
    # |psi| <= c t^4 with the constant reported by the fit machinery
    t = 0.004
    chart = KM.GluingChart(t)
    s = np.linspace(chart.zeta / 4 * 1.0001, chart.zeta / 2 * 0.9999, 500)
    _, norms, _ = KM.torsion_form(t, chart.r_of_s(s))
    c = norms.max() / t ** 4
    assert 0 < c < 1e7


def test_decay_fit_in_regime():
    out = KM.torsion_decay_fit([0.008, 0.004, 0.002, 0.001], n_samples=600)
    assert 3.9 <= out["slope"] <= 4.1
    assert out["weighted_slope"] >= 3.9
    rows = dict((r[0], r[1]) for r in out["rows"])
    ratio = rows[0.008] / rows[0.004]
    assert abs(ratio - 16.0) <= 1.6


def test_gradient_from_one_batched_call(monkeypatch):
    # |nabla psi| from one torsion_form call at r +- delta equals the
    # central difference of two separate calls, measured with g at r
    t = 0.004
    chart = KM.GluingChart(t)
    rs = chart.r_of_s(np.linspace(chart.zeta / 4 * 1.0001,
                                  chart.zeta / 2 * 0.9999, 300))
    _, _, g = KM.torsion_form(t, rs)
    delta = 1e-6 * rs
    psi_p = KM.torsion_form(t, rs + delta)[0].coeffs
    psi_m = KM.torsion_form(t, rs - delta)[0].coeffs
    dpsi = Form(7, 3, (chart.k + rs ** 2) ** 0.25 * (psi_p - psi_m)
                / (2.0 * delta))
    expected = np.sqrt(np.maximum(inner_product(g, dpsi, dpsi), 0.0))
    got = KM._grad_norm(t, rs, g)
    assert expected.max() > 0
    assert np.abs(got - expected).max() <= 1e-12 * expected.max()
    # a fit with gradient makes two torsion_form calls per t
    calls = []
    torsion_form = KM.torsion_form
    monkeypatch.setattr(KM, "torsion_form",
                        lambda *a, **k: calls.append(a[0]) or torsion_form(*a, **k))
    fit = KM.torsion_decay_fit([0.008, 0.004, 0.002, 0.001], n_samples=100)
    assert sorted(calls) == sorted(2 * [0.008, 0.004, 0.002, 0.001])
    assert all(np.isfinite(row[2]) and row[2] > 0 for row in fit["rows"])


def test_positivity_threshold_below_stated_range():
    # the gluing leaves the G2 cone on the annulus before t = 0.025: the
    # construction is only valid 'for small t', quantified here
    t0 = KM.positivity_threshold(np.array([0.2, 0.1, 0.05, 0.025, 0.02,
                                           0.01]))
    assert 0.01 <= t0 < 0.025


def _threshold_by_torsion(candidates):
    """The largest t at which torsion_form builds psi_t on the 400 radii
    of the scan without PositivityError, or 0.0: the threshold as defined,
    by brute force over every candidate."""
    passing = [0.0]
    for t in candidates:
        chart = KM.GluingChart(t)
        s = np.linspace(chart.zeta / 4 * 1.0001, chart.zeta / 2 * 0.9999, 400)
        try:
            KM.torsion_form(t, chart.r_of_s(s))
        except PositivityError:
            continue
        passing.append(t)
    return max(passing)


def test_positivity_threshold_is_the_largest_passing_t():
    # the descending gate-only scan against the brute-force maximum on
    # shuffled, all-failing and all-passing candidate lists
    shuffled = list(np.random.default_rng(3).permutation(
        np.geomspace(0.2, 0.001, 24)))
    for candidates in (shuffled, [0.05, 0.2, 0.1, 0.025], [0.001, 0.01, 0.005]):
        t0 = KM.positivity_threshold(candidates)
        assert type(t0) is float
        assert t0 == _threshold_by_torsion(candidates)
    assert KM.positivity_threshold([0.05, 0.2, 0.1, 0.025]) == 0.0
    assert KM.positivity_threshold([0.001, 0.01, 0.005]) == 0.01


@pytest.mark.parametrize("bad", [1.5, 0.0, -0.01, float("nan")])
def test_positivity_threshold_refuses_any_invalid_t(bad):
    # the scan stops at the first t that passes, so every candidate is
    # validated before it starts
    for candidates in ([bad, 0.01, 0.005], [0.01, bad, 0.005],
                       [0.01, 0.005, bad]):
        with pytest.raises(ValueError):
            KM.positivity_threshold(candidates)


def test_positivity_threshold_runs_only_the_gate(monkeypatch):
    # the scan takes phi_t's metric and builds no torsion: with every
    # Hodge star and torsion_form refused it still returns
    expected = KM.positivity_threshold()

    def refused(*args, **kwargs):
        raise AssertionError("the positivity scan takes no Hodge star")
    for module in (F, KM):
        monkeypatch.setattr(module, "hodge_star", refused)
    monkeypatch.setattr(KM, "torsion_form", refused)
    assert KM.positivity_threshold() == expected
    assert 0.01 <= expected < 0.025


def test_torsion_rejects_positivity_failure():
    chart = KM.GluingChart(0.1)
    s = np.linspace(chart.zeta / 4 * 1.05, chart.zeta / 2 * 0.95, 50)
    with pytest.raises(PositivityError):
        KM.torsion_form(0.1, chart.r_of_s(s))


def test_glued_structure_errors():
    with pytest.raises(ValueError):
        KM.glued_structure(0.05, np.array([0.0]))
    with pytest.raises(ValueError):
        KM.GluingChart(0.0)
    with pytest.raises(ValueError):
        KM.torsion_decay_fit([0.4, 0.2, 0.1, 0.05])
    with pytest.raises(ValueError):
        KM.torsion_decay_fit([0.01, 0.005])


def test_decay_fit_degenerate_when_out_of_domain():
    with pytest.raises(RuntimeError):
        KM.torsion_decay_fit([0.3, 0.2, 0.15, 0.1], n_samples=100,
                             with_gradient=False)
