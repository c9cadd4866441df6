"""The three workloads: inputs made from the seed, the timed calls into
g2glue, and the checks run on their outputs once the timed part is over.

A round of a workload is a fixed list of operations.  The seed changes
the values the program receives, never the number or the kind of calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np
import sympy as sp

from g2glue import cone, kummer, torus
from g2glue import eguchi_hanson as eh

import checks

# kummer-gluing sizes (README.md: "Workloads")
KUMMER_SAMPLES = 2000
KUMMER_BETA = -0.05
THRESHOLD_GRID = tuple(np.geomspace(0.2, 0.001, 24))   # positivity_threshold's
THRESHOLD_SAMPLES = 400                                # default scan


@dataclass
class Operation:
    name: str
    call: Callable[[], Any]                      # timed
    check: Callable[[Any], list]                 # untimed, on call's result


# ----------------------------------------------------------------------
# torus-n4
# ----------------------------------------------------------------------

def torus_n4(seed: int) -> list[Operation]:
    cfg = torus.SolverConfig(N=4, eps=1e-2, seed=seed % 2 ** 32,
                             tol_residual=1e-8,
                             operator_mode="flat-background")

    def check(result):
        eta, _report = result
        phi, _, _ = torus.make_model_problem(cfg)
        return checks.check_torus(phi.coeffs, eta.coeffs, cfg.eps)

    return [Operation("torus.solve", lambda: torus.solve(cfg), check)]


# ----------------------------------------------------------------------
# kummer-gluing
# ----------------------------------------------------------------------

def annulus_radii(t: float, n: int) -> np.ndarray:
    """The gluing-annulus radii that torsion_decay_fit samples."""
    chart = kummer.GluingChart(t)
    s = np.linspace(chart.zeta / 4 * 1.0001, chart.zeta / 2 * 0.9999, n)
    return chart.r_of_s(s)


def kummer_gluing(seed: int) -> list[Operation]:
    rng = np.random.default_rng(seed % 2 ** 32)
    t_max = float(rng.uniform(0.006, 0.009))
    t_list = [t_max / 2 ** i for i in range(4)]
    t_closed = t_list[1]
    rs_closed = annulus_radii(t_closed, KUMMER_SAMPLES)

    def phi_at(t):
        phi, _ = kummer.glued_structure(t, annulus_radii(t, THRESHOLD_SAMPLES))
        return phi.coeffs

    return [
        Operation("kummer.torsion_decay_fit",
                  lambda: kummer.torsion_decay_fit(
                      t_list, n_samples=KUMMER_SAMPLES, beta=KUMMER_BETA,
                      with_gradient=True),
                  lambda fit: checks.check_decay_fit(fit, t_list)),
        Operation("kummer.positivity_threshold",
                  lambda: kummer.positivity_threshold(),
                  lambda thr: checks.check_threshold(thr, THRESHOLD_GRID,
                                                     phi_at)),
        Operation("kummer.closedness_residual",
                  lambda: kummer.closedness_residual(t_closed, rs_closed),
                  checks.check_closedness),
    ]


# ----------------------------------------------------------------------
# symbolic-oracle
# ----------------------------------------------------------------------

def _rational(rng: random.Random) -> sp.Rational:
    return sp.Rational(rng.choice((-1, 1)) * rng.randint(1, 9),
                       rng.randint(1, 9))


def _pairs_apart(rng, n_pairs):
    """n_pairs coefficient pairs (a, b) with a != +-b, so a self-dual plus
    anti-self-dual combination keeps every component."""
    out = []
    while len(out) < n_pairs:
        a, b = _rational(rng), _rational(rng)
        if a != b and a != -b:
            out.append((a, b))
    return out


def _combine(forms, coeffs) -> dict:
    out = {}
    for form, c in zip(forms, coeffs):
        for ij, expr in form.items():
            out[ij] = out.get(ij, 0) + c * expr
    return out


def _points_r4(rng: random.Random, n: int) -> np.ndarray:
    """n points with |x| in [1, 2], away from the origin."""
    pts = []
    for _ in range(n):
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(4)])
        pts.append(v / np.linalg.norm(v) * rng.uniform(1.0, 2.0))
    return np.array(pts)


def _sphere_point(rng: random.Random, m: int) -> np.ndarray:
    """A point of S^3 where Re((x1 + i x2)^m) is not small."""
    while True:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(4)])
        v /= np.linalg.norm(v)
        if abs(np.real((v[0] + 1j * v[1]) ** m)) >= 0.05:
            return v


def symbolic_oracle(seed: int) -> list[Operation]:
    rng = random.Random(seed)
    X, S = cone._X, cone._S
    basis, pair = cone.order_minus2_basis(), cone.decaying_pair_forms()
    (a0, b0), (a1, b1), (a2, b2) = _pairs_apart(rng, 3)
    order2 = _combine(basis, (a0, a1, a2, b0, b1, b2))
    (c0, c1), = _pairs_apart(rng, 1)
    order4 = _combine(pair, (c0, c1))
    control = dict(order2)
    control[(0, 1)] = control[(0, 1)] + _rational(rng) * X[0] * X[1] / S ** 2
    points = _points_r4(rng, 3)
    naive_beta = -Fraction(rng.randint(1, 79), 20)          # in (-4, 0)
    refined_eps = Fraction(1, rng.randint(20, 100))
    sphere_points = [_sphere_point(rng, m) for m in range(9)]

    ops = [
        Operation("cone.oracle.order2",
                  lambda: cone.harmonic_oracle_r4(order2),
                  lambda r: checks.check_harmonic_candidate(
                      "cone.oracle.order2", order2, X, points, r, -2)),
        Operation("cone.oracle.order4",
                  lambda: cone.harmonic_oracle_r4(order4),
                  lambda r: checks.check_harmonic_candidate(
                      "cone.oracle.order4", order4, X, points, r, -4)),
        Operation("cone.oracle.control",
                  lambda: cone.harmonic_oracle_r4(control),
                  lambda r: checks.check_control(
                      "cone.oracle.control", control, X, points, r)),
    ]
    for m in range(9):
        ops.append(Operation(
            f"cone.s3.m{m}",
            lambda m=m: cone.s3_function_spectrum_check(m),
            lambda r, m=m: checks.check_sphere_eigenvalue(
                m, r, sphere_points[m])))

    def rates():
        so3 = cone.so3_link()
        return (cone.critical_rates(so3, 1, -2, 0),
                cone.critical_rates(so3, 2, Fraction(-4) + Fraction(1, 100),
                                    0))

    ops += [
        Operation("cone.critical_rates", rates,
                  lambda r: checks.check_critical_rates(*r)),
        Operation("cone.jk_naive",
                  lambda: cone.jk_rate_bound(
                      cone.naive_gradient_table(Fraction(-1, 5)),
                      naive_beta - 2),
                  lambda e: checks.check_naive_exponent(e, naive_beta)),
        Operation("cone.jk_refined",
                  lambda: cone.jk_rate_bound(cone.refined_gradient_table(),
                                             -refined_eps - 2),
                  checks.check_refined_exponent),
    ]

    f = eh.f_sym()
    flat1 = eh.RadialForm(2, {(0, 1): 1, (2, 3): eh.R})
    corrupted = eh.RadialForm(2, {(0, 1): eh.R / f ** 2, (2, 3): f})

    def identity(label, forms_fn, expected=True):
        """is_zero of each form forms_fn() returns."""
        return Operation(label, lambda: [a.is_zero() for a in forms_fn()],
                         lambda v: checks.check_identity(label, v, expected))

    ops += [
        identity("eh.d_triple",
                 lambda: [o.d() for o in eh.hyperkaehler_triple()]),
        identity("eh.d_hatted_triple",
                 lambda: [o.d() for o in eh.asd_triple()]),
        identity("eh.d_lambda",
                 lambda: [eh.harmonic_forms()[1].d()
                          - eh.harmonic_forms()[0]]),
        identity("eh.d_tau1",
                 lambda: [eh.harmonic_forms()[2].d()
                          - (eh.hyperkaehler_triple()[0] - flat1)]),
        identity("eh.corrupted_not_closed", lambda: [corrupted.d()],
                 expected=False),
    ]
    return ops


ROUNDS = {   # workload name -> the operations of one round, from a seed
    "torus-n4": torus_n4,
    "kummer-gluing": kummer_gluing,
    "symbolic-oracle": symbolic_oracle,
}
