"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured values at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 7's stated
parameter range {0.2, 0.1, 0.05, 0.025} lies beyond the positivity
domain of the glued structure (measured T0 ~ 0.02, see
notes/decisions.md): phi_t is not a G2-structure on part of the gluing
annulus at every stated t, so no torsion slope exists there.  The
stated-range test certifies that, by a wedge-matrix criterion that is
independent of metric_from_g2; the companion test confirms the
fourth-power law inside the positivity domain.
"""

import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from g2glue import cone, eguchi_hanson as eh, forms as F, kummer, torus


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


# ----------------------------------------------------------------------

def test_criterion_01_gamma_combinatorics():
    t0 = time.time()
    counts = {el.name: len(kummer.fixed_point_tori(el))
              for el in kummer.gamma_elements() if not el.is_identity()}
    sc = kummer.singular_components()
    ok = (all(counts[n] == 16 for n in ("a", "b", "c"))
          and all(counts[n] == 0 for n in ("ba", "ca", "cb", "cba"))
          and sc["n_components"] == 12 and sc["orbit_size"] == 4
          and sc["disjoint"])
    report(1, ok, f"counts={counts}, components={sc['n_components']}, "
                  f"orbits={sc['orbit_size']}, {time.time()-t0:.2f}s")
    assert ok


def test_criterion_02_eguchi_hanson_identities():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ks = 10.0 ** rng.uniform(-3, 0.5, size=25)
    rs = 10.0 ** rng.uniform(-2, 3, size=40)   # 25 x 40 = 1000 points

    nu, lam, tau1 = eh.harmonic_forms()
    om1, om2, om3 = eh.hyperkaehler_triple()
    hats = eh.asd_triple()
    flat1 = eh.RadialForm(2, {(0, 1): 1, (2, 3): eh.R})
    dlam, dtau = lam.d(), tau1.d()
    sym_ok = (all(o.d().is_zero() for o in (om1, om2, om3))
              and all(o.d().is_zero() for o in hats)
              and nu.d().is_zero())

    worst = 0.0
    for k in ks:
        scale = np.maximum(nu.pointwise_norm(k, rs), 1e-300)
        worst = max(worst, float((np.abs(
            dlam.evaluate_onb(k, rs).coeffs
            - nu.evaluate_onb(k, rs).coeffs).max(axis=0) / scale).max()))
        diff = (om1 - flat1).evaluate_onb(k, rs)
        scale2 = np.maximum(np.sqrt((diff.coeffs ** 2).sum(axis=0)), 1e-300)
        worst = max(worst, float((np.abs(
            dtau.evaluate_onb(k, rs).coeffs - diff.coeffs
        ).max(axis=0) / scale2).max()))
        nf = nu.evaluate_onb(k, rs)
        worst = max(worst, float(np.abs(
            eh.star_onb(nf).coeffs + nf.coeffs).max()
            / max(np.abs(nf.coeffs).max(), 1e-300)))
        for o in hats:
            f = o.evaluate_onb(k, rs)
            worst = max(worst, float(np.abs(
                eh.star_onb(f).coeffs + f.coeffs).max()
                / max(np.abs(f.coeffs).max(), 1e-300)))
    ok = sym_ok and worst <= 1e-10
    report(2, ok, f"symbolic identities {sym_ok}, worst relative residual "
                  f"{worst:.2e} <= 1e-10, {time.time()-t0:.2f}s")
    assert ok


def test_criterion_03_ale_decay():
    t0 = time.time()
    rr = np.geomspace(1.01, 1e4, 4000)
    sups = {k: float(eh.ale_decay_ratio(k, rr).max())
            for k in (1.0, 1e-2, 1e-4)}
    nu, _, _ = eh.harmonic_forms()
    k = 1e-4
    rs = np.geomspace(1e2, 1e6, 80)
    w = k ** 0.25 + eh.radial_distance_many(k, rs)
    slope = float(np.polyfit(np.log(w),
                             np.log(nu.pointwise_norm(k, rs)), 1)[0])
    ok = all(s <= 4.0 for s in sups.values()) and abs(slope + 4.0) <= 0.05
    report(3, ok, f"sup ratios {sups} <= 4, nu slope {slope:.4f} = -4 +- "
                  f"0.05, {time.time()-t0:.2f}s")
    assert ok


def test_criterion_04_cone_critical_rates():
    t0 = time.time()
    so3 = cone.so3_link()
    r1 = cone.critical_rates(so3, 1, -2, 0)
    r2 = cone.critical_rates(so3, 2, Fr(-4) + Fr(1, 100), 0)
    log_ok = cone.log_kernel_check(-2, 2)
    jump = cone.index_change(2, -3, -1)
    ok = (r1 == [] and len(r2) == 1 and r2[0].rate == -2
          and r2[0].dimension == 6 and log_ok and jump == 6)
    report(4, ok, f"deg-1 rates in [-2,0): {len(r1)}, deg-2 rates in "
                  f"[-4+d,0): {[(str(r.rate), r.dimension) for r in r2]}, "
                  f"log-free {log_ok}, index jump {jump}, "
                  f"{time.time()-t0:.2f}s")
    assert ok


def test_criterion_05_spectrum_oracle():
    t0 = time.time()
    eig_ok = all(cone.s3_function_spectrum_check(m)["eigenvalue"]
                 == m * (m + 2) for m in range(9))
    so3_evs = [m * (m + 2) for m in range(9)
               if cone.s3_function_spectrum_check(m)["descends_to_so3"]]
    filter_ok = so3_evs[:3] == [0, 8, 24]
    residuals = [cone.harmonic_oracle_r4(w)["residual"]
                 for w in cone.order_minus2_basis()]
    orders = [cone.harmonic_oracle_r4(w)["order"]
              for w in cone.order_minus2_basis()]
    six_ok = (len(residuals) == 6 and all(r == 0.0 for r in residuals)
              and all(float(o) == -2.0 for o in orders))
    ok = eig_ok and filter_ok and six_ok
    report(5, ok, f"eigenvalues m(m+2) exact for m<=8: {eig_ok}, parity "
                  f"filter {so3_evs[:3]}, six order-(-2) forms residual "
                  f"{max(residuals)}, {time.time()-t0:.2f}s")
    assert ok


def test_criterion_06_theta_expansion():
    t0 = time.time()
    rng = np.random.default_rng(66)
    g0 = F.Metric.euclidean(7)
    p0 = F.phi0()
    slopes, lin_err = [], 0.0
    for _ in range(20):
        chi = F.Form(7, 3, rng.normal(size=(35,)))
        chi = (1.0 / np.sqrt(F.inner_product(g0, chi, chi))) * chi
        svals = [1e-1, 1e-2, 1e-3, 1e-4]
        norms = []
        for s in svals:
            _, Fs = F.theta_split(p0, s * chi)
            norms.append(float(np.sqrt(F.inner_product(g0, Fs, Fs))))
        slopes.append(np.polyfit(np.log(svals), np.log(norms), 1)[0])
        T1, _ = F.theta_split(p0, chi)
        Ts, _ = F.theta_split(p0, 1e-2 * chi)
        lin_err = max(lin_err, float(np.abs(Ts.coeffs
                                            - 1e-2 * T1.coeffs).max()))
    g, _ = F.metric_from_g2(p0)
    id_err = float(np.abs(g.entries - np.eye(7)).max())
    slope_ok = all(abs(s - 2.0) <= 0.05 for s in slopes)
    ok = slope_ok and lin_err <= 1e-10 and id_err <= 1e-12
    report(6, ok, f"F slopes in [1.95,2.05]: {slope_ok} "
                  f"(range {min(slopes):.3f}..{max(slopes):.3f}), T "
                  f"linearity {lin_err:.2e} <= 1e-10, metric(phi0) err "
                  f"{id_err:.2e} <= 1e-12, {time.time()-t0:.2f}s")
    assert ok


def test_criterion_07_kummer_torsion_support_and_weighted_law():
    # the sub-assertions that are well-posed at every t: support
    # confinement and the weighted law inside the positivity domain
    t0 = time.time()
    chart = kummer.GluingChart(0.01)
    inside = np.array([chart.r_of_s(chart.zeta / 8)])
    outside = np.array([chart.r_of_s(0.75 * chart.zeta)])
    _, n_in, _ = kummer.torsion_form(0.01, inside)
    _, n_out, _ = kummer.torsion_form(0.01, outside)
    support_ok = n_in.max() <= 1e-14 and n_out.max() <= 1e-14

    fit = kummer.torsion_decay_fit([0.008, 0.004, 0.002, 0.001],
                                   n_samples=20000, beta=-1.0 / 20.0,
                                   with_gradient=False)
    in_regime_ok = 3.9 <= fit["slope"] <= 4.1 and \
        fit["weighted_slope"] >= 3.9
    ok = support_ok and in_regime_ok
    report(7, ok, f"support confined {support_ok}; in-regime slope "
                  f"{fit['slope']:.4f} in [3.9,4.1], weighted slope "
                  f"{fit['weighted_slope']:.4f} >= 3.9, "
                  f"{time.time()-t0:.2f}s")
    assert ok


def _fiber_wedge_eigenvalues(t, rs):
    """Ascending eigenvalues of Q_ij = omega_tilde_i ^ omega_tilde_j / vol_4
    at each radius.  The omega_tilde_i are read off the public glued
    3-form phi_t = delta_123 - sum_i omega_tilde_i ^ delta_i as its
    delta_i ^ fiber components (fiber orthonormal legs in slots 3..6)."""
    phi, _ = kummer.glued_structure(t, rs)
    pos = F.index_position(7, 3)
    om = [F.Form(4, 2, np.array([-phi.coeffs[pos[(i, a + 3, b + 3)]]
                                 for a, b in F.index_list(4, 2)]))
          for i in range(3)]
    Q = np.empty(rs.shape + (3, 3))
    for i in range(3):
        for j in range(3):
            Q[..., i, j] = F.wedge(om[i], om[j]).coeffs[0]
    return np.linalg.eigvalsh(Q)


def _raises_positivity_error(t, rs):
    try:
        kummer.torsion_form(t, rs)
    except F.PositivityError:
        return True
    return False


def test_criterion_07_stated_range_slope():
    """The criterion's literal t-range {0.2, 0.1, 0.05, 0.025}.

    The existence theorem holds 'for t small enough': phi_t must be a
    G2-structure before its torsion, and the t^4 law, are defined.  At
    every stated t it is not, on part of the gluing annulus, so there is
    no slope to assert.  The test certifies that instead.  phi_t =
    delta_123 - sum_i omega_tilde_i ^ delta_i can be positive only where
    the fiber triple is definite, i.e. where the wedge matrix Q is
    positive definite; this does not go through metric_from_g2.  Checked:

    1. torsion_decay_fit refuses the range with RuntimeError;
    2. at each stated t, Q has a negative eigenvalue on the annulus;
    3. at sampled points, torsion_form raises PositivityError exactly
       where Q is not positive definite;
    4. the measured threshold T0 is below 0.025, and Q is positive
       definite on the whole annulus at T0.

    The fourth-power law is certified inside the positivity domain by the
    companion test above.  See notes/decisions.md.
    """
    t0 = time.time()
    stated, n_samples = [0.2, 0.1, 0.05, 0.025], 20000
    with pytest.raises(RuntimeError, match="fewer than 3 usable t values"):
        kummer.torsion_decay_fit(stated, n_samples=n_samples,
                                 beta=-1.0 / 20.0, with_gradient=False)

    indefinite_ok, agree_ok, details = True, True, []
    for t in stated:
        rs = kummer.GluingChart(t).annulus(n_samples)
        ev = _fiber_wedge_eigenvalues(t, rs)
        definite = ev[:, 0] > 0
        indefinite_ok &= not definite.all()
        sampled = range(0, n_samples, 500)    # single-point calls: 40 per t
        mismatched = [i for i in sampled if _raises_positivity_error(
            t, rs[i:i + 1]) == definite[i]]
        agree_ok &= not mismatched
        details.append(f"t={t}: min eig ratio "
                       f"{(ev[:, 0] / ev[:, 2]).min():.3g}, Q indefinite on "
                       f"{1 - definite.mean():.0%}, "
                       f"{len(mismatched)}/{len(sampled)} disagree")

    t_max = kummer.positivity_threshold()
    chart = kummer.GluingChart(t_max)
    ev = _fiber_wedge_eigenvalues(t_max, chart.annulus(n_samples))
    threshold_ok = t_max < 0.025 and bool((ev[:, 0] > 0).all())
    ok = indefinite_ok and agree_ok and threshold_ok
    report(7, ok, f"stated range t in (0.2, 0.1, 0.05, 0.025) lies outside "
                  f"the G2 cone, fit refused; {'; '.join(details)}; "
                  f"T0 = {t_max:.4f} < 0.025 with min eig ratio "
                  f"{(ev[:, 0] / ev[:, 2]).min():.3g} > 0, "
                  f"{time.time()-t0:.2f}s")
    assert indefinite_ok, "Q is definite on the whole annulus at a stated t"
    assert agree_ok, ("PositivityError and the wedge-matrix certificate "
                      "disagree")
    assert threshold_ok, ("the wedge-matrix certificate fails at the "
                          "measured positivity threshold; see "
                          "notes/decisions.md")


def test_criterion_08_existence_iteration():
    t0 = time.time()
    cfg = torus.SolverConfig(N=6, eps=1e-2, seed=7, tol_residual=1e-8,
                             max_iter=50)
    eta, rep = torus.solve(cfg)
    elapsed = time.time() - t0
    ok = (rep["iterations"] <= 50 and rep["residual"] <= 1e-8
          and rep["distance_to_flat"] <= 1e-8
          and rep["zero_mode_gap"] <= 1e-14 and elapsed <= 600.0)
    report(8, ok, f"iterations {rep['iterations']} <= 50, residual "
                  f"{rep['residual']:.2e} <= 1e-8, |phi~ - phi0| "
                  f"{rep['distance_to_flat']:.2e} <= 1e-8, zero-mode gap "
                  f"{rep['zero_mode_gap']:.1e}, {elapsed:.0f}s <= 600s")
    assert ok


def test_criterion_09_rate_calculator():
    t0 = time.time()
    B = Fr(-1, 5)
    naive_ok = all(
        cone.jk_rate_bound(cone.naive_gradient_table(B), beta - 2)
        == Fr(4, 5) * (2 - beta)
        for beta in (Fr(-1, 20), Fr(-1), Fr(-7, 2)))
    eps = Fr(1, 20)
    feas_ok = (cone.kappa_feasible(Fr(8, 5), -eps, eps)
               and cone.linf_exponent(Fr(8, 5), -eps) == Fr(3, 5) - eps)
    refined = cone.jk_rate_bound(cone.refined_gradient_table(), -eps - 2)
    refined_ok = (refined >= Fr(13, 5)
                  and cone.linf_exponent(Fr(13, 5), -eps)
                  == Fr(8, 5) - eps)
    ok = naive_ok and feas_ok and refined_ok
    report(9, ok, f"naive exponent == (4/5)(2-beta) exactly: {naive_ok}; "
                  f"kappa=8/5 feasible with Linf exponent 3/5-eps: "
                  f"{feas_ok}; refined table certifies 13/5 (exact "
                  f"dominant {refined}) with Linf 8/5-eps: {refined_ok}, "
                  f"{time.time()-t0:.2f}s")
    assert ok


def test_criterion_10_rescaling_substitute():
    t0 = time.time()
    nu, _, _ = eh.harmonic_forms()
    rs = np.geomspace(1e-3, 30, 200)
    d1 = eh.rescaling_invariance_check(nu, -4.0, 0.6, rs)
    d2 = eh.rescaling_invariance_check(nu, -4.0, 0.3, rs)
    const2 = eh.RadialForm(2, {(0, 1): 1.0})
    d3 = eh.rescaling_invariance_check(const2, 0.0, 0.45, rs)
    ok = max(d1, d2, d3) <= 1e-8
    report(10, ok, f"rescaling discrepancies {d1:.2e}, {d2:.2e}, {d3:.2e} "
                   f"<= 1e-8 (weighted-estimate substitute, with criteria "
                   f"7-8), {time.time()-t0:.2f}s")
    assert ok
