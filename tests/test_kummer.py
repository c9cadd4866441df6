"""Tests for the T^7/Gamma combinatorics and the glued structure."""

import numpy as np
import pytest

from g2glue import kummer as KM
from g2glue.forms import PositivityError, metric_from_g2


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
    for el in KM.gamma_elements():
        assert KM.preserves_invariant_form(el)


def test_invariant_form_is_positive():
    g, vol = metric_from_g2(KM.invariant_phi())
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
    assert KM.singular_components(b2_torus_quotient=3)["kernel_dimension"] == 15


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
    phi, theta_t = KM.glued_structure(t, rs, chart)
    psi, norms, _ = KM.torsion_form(t, rs, chart)
    assert norms.max() < 1e-14
    from g2glue.forms import theta
    assert np.abs(theta(phi).coeffs - theta_t.coeffs).max() < 1e-13


def test_outer_region_is_flat_structure():
    t = 0.05
    chart = KM.GluingChart(t)
    rs = np.array([chart.r_of_s(0.8 * chart.zeta)])
    _, norms, _ = KM.torsion_form(t, rs, chart)
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


def test_torsion_supported_on_annulus():
    t = 0.01
    chart = KM.GluingChart(t)
    inside = np.array([chart.r_of_s(chart.zeta / 8)])
    outside = np.array([chart.r_of_s(0.75 * chart.zeta)])
    mid = np.array([chart.r_of_s(0.375 * chart.zeta)])
    for rs in (inside, outside):
        _, norms, _ = KM.torsion_form(t, rs, chart)
        assert norms.max() <= 1e-14
    _, norms, _ = KM.torsion_form(t, mid, chart)
    assert norms.max() > 0


def test_torsion_bounded_by_t4():
    # |psi| <= c t^4 with the constant reported by the fit machinery
    t = 0.004
    chart = KM.GluingChart(t)
    s = np.linspace(chart.zeta / 4 * 1.0001, chart.zeta / 2 * 0.9999, 500)
    _, norms, _ = KM.torsion_form(t, chart.r_of_s(s), chart)
    c = norms.max() / t ** 4
    assert 0 < c < 1e7


def test_decay_fit_in_regime():
    out = KM.torsion_decay_fit([0.008, 0.004, 0.002, 0.001], n_samples=600)
    assert 3.9 <= out["slope"] <= 4.1
    assert out["weighted_slope"] >= 3.9
    rows = dict((r[0], r[1]) for r in out["rows"])
    ratio = rows[0.008] / rows[0.004]
    assert abs(ratio - 16.0) <= 1.6


def test_positivity_threshold_below_stated_range():
    # the gluing leaves the G2 cone on the annulus before t = 0.025: the
    # construction is only valid 'for small t', quantified here
    t0 = KM.positivity_threshold(np.array([0.2, 0.1, 0.05, 0.025, 0.02,
                                           0.01]))
    assert 0.01 <= t0 < 0.025


def test_torsion_rejects_positivity_failure():
    chart = KM.GluingChart(0.1)
    s = np.linspace(chart.zeta / 4 * 1.05, chart.zeta / 2 * 0.95, 50)
    with pytest.raises(PositivityError):
        KM.torsion_form(0.1, chart.r_of_s(s), chart)


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


# ----------------------------------------------------------------------
# approximate kernel
# ----------------------------------------------------------------------

def test_approximate_kernel_basis():
    out = KM.approximate_kernel_basis(0.05)
    assert len(out["elements"]) == 12
    assert out["dimension"] == 12
    assert out["cut_continuity_jump"] <= 1e-12
    assert out["disjoint_supports"]
    out3 = KM.approximate_kernel_basis(0.05, b2_torus_quotient=3)
    assert out3["dimension"] == 15


def test_kernel_element_vanishes_inside_cut():
    chart = KM.GluingChart(0.05)
    el = KM.approximate_kernel_basis(0.05)["elements"][0]
    inside = el.evaluate(np.array([chart.r_of_s(chart.zeta / 8)]))
    assert np.abs(inside.coeffs).max() == 0.0
    outside = el.evaluate(np.array([chart.r_of_s(0.6 * chart.zeta)]))
    assert np.abs(outside.coeffs).max() > 0.0
