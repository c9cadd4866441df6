"""Each benchmark check passes on a correct output and fails on a
corrupted one.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402


def failed(found) -> set:
    return {c.name for c in found if not c.ok}


# ----------------------------------------------------------------------
# torus-n4
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def torus_case():
    """phi = phi0 + eps d sigma for a smooth 2-form sigma on the N=4 grid,
    and the exact correction eta = -eps sigma."""
    n, eps = 4, 1e-2
    x = np.arange(n) / n
    grids = np.meshgrid(*([x] * 7), indexing="ij")
    rng = np.random.default_rng(5)
    sigma = np.array([sum(rng.normal() * np.sin(2 * np.pi * g + rng.normal())
                          for g in grids) for _ in range(21)])
    dsig = checks.exterior_d_2form(sigma)
    sigma /= np.abs(dsig).max()
    dsig /= np.abs(dsig).max()
    phi = checks.phi0_vector().reshape((35,) + (1,) * 7) + eps * dsig
    return phi, -eps * sigma, eps


def test_torus_passes(torus_case):
    phi, eta, eps = torus_case
    assert failed(checks.check_torus(phi, eta, eps)) == set()


def test_torus_wrong_correction(torus_case):
    phi, eta, eps = torus_case
    bad = eta.copy()
    bad[3] *= 1.0 + 1e-4
    assert "torus.distance_to_phi0" in failed(
        checks.check_torus(phi, bad, eps))


def test_torus_shifted_mean(torus_case):
    phi, eta, eps = torus_case
    bad = phi.copy()
    bad[0] += 1e-12
    assert "torus.grid_mean" in failed(checks.check_torus(bad, eta, eps))


def test_torus_trivial_problem(torus_case):
    phi, eta, eps = torus_case
    flat = np.broadcast_to(checks.phi0_vector().reshape((35,) + (1,) * 7),
                           phi.shape)
    assert "torus.nontrivial" in failed(
        checks.check_torus(flat, np.zeros_like(eta), eps))


def test_fft_derivative_matches_analytic():
    x = np.arange(8) / 8
    f = np.sin(2 * np.pi * x)
    assert np.allclose(checks.fft_derivative(f, 0),
                       2 * np.pi * np.cos(2 * np.pi * x), atol=1e-12)


# ----------------------------------------------------------------------
# kummer-gluing
# ----------------------------------------------------------------------

T_LIST = [0.008, 0.004, 0.002, 0.001]


def fit_of(sups, slope=4.0, weighted=4.05):
    rows = [(t, s, float("nan"), s) for t, s in zip(T_LIST, sups)]
    return {"rows": rows, "slope": slope, "weighted_slope": weighted,
            "usable": len(rows)}


def test_fit_passes():
    sups = [5.7e6 * t ** 4 for t in T_LIST]
    assert failed(checks.check_decay_fit(fit_of(sups), T_LIST)) == set()


@pytest.mark.parametrize("fit,name", [
    (fit_of([5.7e6 * t ** 4 for t in T_LIST], slope=3.5), "kummer.slope"),
    (fit_of([5.7e6 * t ** 4 for t in T_LIST], weighted=3.8),
     "kummer.weighted_slope"),
    (fit_of([5.7e6 * t ** 4 * (1 + 0.05 * i) for i, t in enumerate(T_LIST)]),
     "kummer.sup_over_t4"),
    (dict(fit_of([5.7e6 * t ** 4 for t in T_LIST]), usable=3),
     "kummer.fit_used_all_t"),
])
def test_fit_corrupted(fit, name):
    assert name in failed(checks.check_decay_fit(fit, T_LIST))


def test_closedness():
    assert failed(checks.check_closedness(6.5e-16)) == set()
    assert failed(checks.check_closedness(1e-9)) == {"kummer.closedness"}


@pytest.fixture(scope="module")
def threshold_case():
    from g2glue import kummer
    import workloads

    def phi_at(t):
        rs = workloads.annulus_radii(t, workloads.THRESHOLD_SAMPLES)
        return kummer.glued_structure(t, rs)[0].coeffs

    grid = sorted(workloads.THRESHOLD_GRID)
    true = min(grid, key=lambda t: abs(t - 0.02))   # the program's 0.01998
    return grid, true, phi_at


def test_threshold_passes(threshold_case):
    grid, true, phi_at = threshold_case
    assert failed(checks.check_threshold(true, grid, phi_at)) == set()


def test_threshold_too_high(threshold_case):
    grid, true, phi_at = threshold_case
    high = grid[grid.index(true) + 1]
    assert "kummer.threshold_definite" in failed(
        checks.check_threshold(high, grid, phi_at))


def test_threshold_too_low(threshold_case):
    grid, true, phi_at = threshold_case
    low = grid[grid.index(true) - 1]
    assert "kummer.next_grid_indefinite" in failed(
        checks.check_threshold(low, grid, phi_at))


def test_threshold_off_grid(threshold_case):
    grid, true, phi_at = threshold_case
    assert "kummer.threshold_on_grid" in failed(
        checks.check_threshold(true * 0.99, grid, phi_at))


# ----------------------------------------------------------------------
# symbolic-oracle
# ----------------------------------------------------------------------

POINTS = np.array([[1.0, 0.3, -0.4, 0.2], [0.5, -1.2, 0.7, 0.9],
                   [-0.8, 0.6, 1.1, -0.5]])


@pytest.fixture(scope="module")
def cone_mod():
    from g2glue import cone
    return cone


def test_order2_candidate(cone_mod):
    form = cone_mod.order_minus2_basis()[0]
    verdict = {"residual": 0.0, "order": -2, "closed": False,
               "coclosed": False}
    run = lambda v, f=form: failed(checks.check_harmonic_candidate(
        "c", f, cone_mod._X, POINTS, v, -2))
    assert run(verdict) == set()
    assert run(dict(verdict, closed=True)) == {"c.closed"}
    assert run(dict(verdict, coclosed=True)) == {"c.coclosed"}
    assert run(dict(verdict, order=-4)) == {"c.order"}
    assert run(dict(verdict, residual=0.1)) == {"c.harmonic"}
    x = cone_mod._X
    bumped = dict(form)
    bumped[(0, 1)] = bumped[(0, 1)] + x[0] * x[1] / cone_mod._S ** 2
    assert "c.harmonic" in run(verdict, bumped)


def test_order4_candidate(cone_mod):
    form = cone_mod.decaying_pair_forms()[0]
    verdict = {"residual": 0.0, "order": -4, "closed": True,
               "coclosed": True}
    run = lambda v: failed(checks.check_harmonic_candidate(
        "c", form, cone_mod._X, POINTS, v, -4))
    assert run(verdict) == set()
    assert run(dict(verdict, closed=False)) == {"c.closed"}
    assert run(dict(verdict, coclosed=False)) == {"c.coclosed"}


def test_control(cone_mod):
    x = cone_mod._X
    control = {(0, 1): x[0] * x[1] / cone_mod._S ** 2}
    run = lambda v, f=control: failed(checks.check_control(
        "k", f, x, POINTS, v))
    assert run({"residual": 0.05}) == set()
    assert run({"residual": 0.0}) == {"k.not_harmonic"}
    harmonic = cone_mod.order_minus2_basis()[1]
    assert run({"residual": 0.05}, harmonic) == {"k.not_harmonic"}


@pytest.mark.parametrize("m", range(9))
def test_sphere_eigenvalue(m):
    point = np.array([0.7, 0.4, -0.5, 0.3])
    assert failed(checks.check_sphere_eigenvalue(
        m, {"eigenvalue": m * (m + 2)}, point)) == set()
    assert failed(checks.check_sphere_eigenvalue(
        m, {"eigenvalue": m * (m + 2) + 1}, point)) == {f"s3.m{m}"}


def test_sphere_fd_is_independent():
    # the finite-difference estimate alone tells degree 3 from degree 2
    point = np.array([0.7, 0.4, -0.5, 0.3])
    assert abs(checks.sphere_eigenvalue_fd(3, point) - 15) < 1e-3
    assert abs(checks.sphere_eigenvalue_fd(2, point) - 15) > 1


def test_critical_rates():
    rate = SimpleNamespace(rate=-2, dimension=6)
    assert failed(checks.check_critical_rates([], [rate])) == set()
    five = SimpleNamespace(rate=-2, dimension=5)
    assert failed(checks.check_critical_rates([], [five])) \
        == {"cone.critical_rates"}
    assert failed(checks.check_critical_rates([rate], [rate])) \
        == {"cone.critical_rates"}


def test_rate_exponents():
    beta = Fraction(-1, 20)
    good = Fraction(4, 5) * (2 - beta)
    assert failed(checks.check_naive_exponent(good, beta)) == set()
    assert failed(checks.check_naive_exponent(good + Fraction(1, 100), beta)) \
        == {"cone.jk_naive"}
    assert failed(checks.check_refined_exponent(Fraction(122, 45))) == set()
    assert failed(checks.check_refined_exponent(Fraction(12, 5))) \
        == {"cone.jk_refined"}
    assert failed(checks.check_refined_exponent(None)) == {"cone.jk_refined"}


def test_identities():
    assert failed(checks.check_identity("i", [True, True], True)) == set()
    assert failed(checks.check_identity("i", [True, False], True)) == {"i"}
    assert failed(checks.check_identity("i", [False], False)) == set()
    assert failed(checks.check_identity("i", [True], False)) == {"i"}
    assert failed(checks.check_identity("i", [], True)) == {"i"}


def test_corrupted_eguchi_hanson_form_is_not_closed():
    from g2glue import eguchi_hanson as eh
    f = eh.f_sym()
    good = eh.RadialForm(2, {(0, 1): eh.R / f ** 2, (2, 3): f ** 2})
    bad = eh.RadialForm(2, {(0, 1): eh.R / f ** 2, (2, 3): f})
    assert good.d().is_zero() and not bad.d().is_zero()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def test_self_time_and_outermost_totals():
    tr = Tracer("t")
    tr.spans = [
        {"id": 0, "name": "kummer.a", "layer": "kummer", "parent": None,
         "work": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "forms.theta", "layer": "forms", "parent": 0,
         "work": 5, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "forms.theta", "layer": "forms", "parent": 1,
         "work": 5, "start": 2.0, "end": 3.0},
    ]
    s = tr.summary()
    assert s["self_seconds"]["kummer"] == pytest.approx(7.0)
    assert s["self_seconds"]["forms"] == pytest.approx(3.0)
    assert s["seconds"]["forms.theta"] == pytest.approx(3.0)
    assert s["calls"]["forms.theta"] == 2 and s["work"]["forms.theta"] == 10
