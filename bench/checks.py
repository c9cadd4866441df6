"""Correctness checks made apart from g2glue.

Each check takes a workload's outputs and returns a list of ``Check``
records.  The checks recompute what they test with their own numpy or
sympy code, or test a property the method must have; none compares with
a stored copy of an earlier output.  Nothing here imports g2glue, so the
checks stay valid when the program changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
import sympy as sp

# the flat G2 3-form e^123 + e^145 + e^167 + e^246 - e^257 - e^347 - e^356
# in 0-based indices, components in lexicographic order of the triples
PHI0 = {(0, 1, 2): 1.0, (0, 3, 4): 1.0, (0, 5, 6): 1.0, (1, 3, 5): 1.0,
        (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0}
TRIPLES7 = tuple(combinations(range(7), 3))
PAIRS7 = tuple(combinations(range(7), 2))
PAIRS4 = tuple(combinations(range(4), 2))

# sup|psi_t| / t^4 must agree across the four t of the fit to this
# relative spread, (max - min) / median; see README.md
RATIO_SPREAD_TOL = 0.02


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _check(name: str, ok, detail: str) -> Check:
    return Check(name, bool(ok), detail)


# ----------------------------------------------------------------------
# torus-n4
# ----------------------------------------------------------------------

def phi0_vector() -> np.ndarray:
    return np.array([PHI0.get(idx, 0.0) for idx in TRIPLES7])


def fft_derivative(f: np.ndarray, axis: int) -> np.ndarray:
    """d/dx along one axis of a real periodic array with period 1.

    The Nyquist mode of an even grid carries no odd derivative."""
    n = f.shape[axis]
    k = np.fft.fftfreq(n) * n
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = n
    spec = np.fft.fft(f, axis=axis) * (2j * np.pi * k.reshape(shape))
    return np.fft.ifft(spec, axis=axis).real


def exterior_d_2form(eta: np.ndarray) -> np.ndarray:
    """d of a 2-form field (21, N^7) on the 7-torus, as a (35, N^7) array:
    (d eta)_abc = d_a eta_bc - d_b eta_ac + d_c eta_ab."""
    pos = {pair: i for i, pair in enumerate(PAIRS7)}
    cache = {}

    def deriv(pair, axis):
        if (pair, axis) not in cache:
            cache[pair, axis] = fft_derivative(eta[pos[pair]], axis)
        return cache[pair, axis]

    out = np.empty((35,) + eta.shape[1:])
    for i, (a, b, c) in enumerate(TRIPLES7):
        out[i] = deriv((b, c), a) - deriv((a, c), b) + deriv((a, b), c)
    return out


def check_torus(phi: np.ndarray, eta: np.ndarray, eps: float,
                tol: float = 1e-8) -> list[Check]:
    """phi: the model 3-form (35, N^7); eta: the solver's 2-form (21, N^7).

    On flat T^7 the only torsion-free structure near phi0 in the class of
    phi is phi0, so phi + d eta must equal phi0 pointwise."""
    p0 = phi0_vector().reshape((35,) + (1,) * 7)
    corrected = phi + exterior_d_2form(eta)
    dist = float(np.abs(corrected - p0).max())
    mean_gap = float(np.abs(corrected.mean(axis=tuple(range(1, 8)))
                            - p0.ravel()).max())
    pert = float(np.abs(phi - p0).max())
    return [
        _check("torus.distance_to_phi0", dist <= tol,
               f"max|phi + d eta - phi0| = {dist:.3e} <= {tol:g}"),
        _check("torus.grid_mean", mean_gap <= 1e-14,
               f"max|mean(phi + d eta) - phi0| = {mean_gap:.3e} <= 1e-14"),
        _check("torus.nontrivial", abs(pert - eps) <= 1e-12 * max(eps, 1.0),
               f"|phi - phi0|_inf = {pert!r}, eps = {eps!r}"),
    ]


# ----------------------------------------------------------------------
# kummer-gluing
# ----------------------------------------------------------------------

def check_decay_fit(fit: dict, t_list) -> list[Check]:
    """The t^4 law: log-slope in [3.9, 4.1], weighted slope >= 3.9, every
    t usable, and sup|psi|/t^4 the same across t."""
    rows = fit["rows"]
    ratios = np.array([row[1] / row[0] ** 4 for row in rows])
    finite = bool(np.all(np.isfinite(ratios)))
    spread = float((ratios.max() - ratios.min()) / np.median(ratios)) \
        if finite else float("inf")
    ts = [row[0] for row in rows]
    return [
        _check("kummer.fit_used_all_t",
               fit["usable"] == len(t_list) and ts == list(t_list),
               f"usable {fit['usable']} of {len(t_list)}"),
        _check("kummer.slope", 3.9 <= fit["slope"] <= 4.1,
               f"log-slope {fit['slope']:.5f} in [3.9, 4.1]"),
        _check("kummer.weighted_slope", fit["weighted_slope"] >= 3.9,
               f"weighted slope {fit['weighted_slope']:.5f} >= 3.9"),
        _check("kummer.sup_over_t4", spread <= RATIO_SPREAD_TOL,
               f"sup|psi|/t^4 spread {spread:.3e} <= {RATIO_SPREAD_TOL}"),
    ]


def check_closedness(residual: float) -> list[Check]:
    return [_check("kummer.closedness", 0.0 <= residual <= 1e-10,
                   f"closedness residual {residual:.3e} <= 1e-10")]


def wedge4_22(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a ^ b / vol for two 2-forms in 4 dimensions, components ordered
    (01, 02, 03, 12, 13, 23)."""
    return (a[0] * b[5] - a[1] * b[4] + a[2] * b[3]
            + a[3] * b[2] - a[4] * b[1] + a[5] * b[0])


def fiber_wedge_matrix(phi: np.ndarray) -> np.ndarray:
    """Q_ij = omega_i ^ omega_j / vol_4 at each point, shape (n, 3, 3).

    The fiber 2-forms are read off phi = delta_123 - sum_i omega_i ^
    delta_i as the delta_i ^ fiber components (fiber legs in slots 3..6)."""
    pos = {idx: i for i, idx in enumerate(TRIPLES7)}
    om = [np.array([-phi[pos[(i, a + 3, b + 3)]] for a, b in PAIRS4])
          for i in range(3)]
    q = np.empty(phi.shape[1:] + (3, 3))
    for i in range(3):
        for j in range(3):
            q[..., i, j] = wedge4_22(om[i], om[j])
    return q


def is_definite(phi: np.ndarray) -> np.ndarray:
    """Pointwise: is the fiber triple of phi positive definite?"""
    return np.linalg.eigvalsh(fiber_wedge_matrix(phi))[..., 0] > 0.0


def check_threshold(threshold: float, grid, phi_at) -> list[Check]:
    """The reported positivity threshold must be a grid value at which the
    fiber triple is definite on the annulus, with the next grid value
    above it indefinite somewhere.  phi_at(t) gives the glued 3-form
    (35, n) on the annulus at t."""
    grid = sorted(float(t) for t in grid)
    if threshold not in grid:
        return [_check("kummer.threshold_on_grid", False,
                       f"threshold {threshold!r} is not a grid value")]
    above = [t for t in grid if t > threshold]
    definite_here = bool(is_definite(phi_at(threshold)).all())
    out = [_check("kummer.threshold_definite", definite_here,
                  f"Q definite on the annulus at t = {threshold:.6g}")]
    if above:
        nxt = above[0]
        frac = float(is_definite(phi_at(nxt)).mean())
        out.append(_check("kummer.next_grid_indefinite", frac < 1.0,
                          f"Q definite on {frac:.1%} of the annulus at "
                          f"t = {nxt:.6g}"))
    return out


# ----------------------------------------------------------------------
# symbolic-oracle
# ----------------------------------------------------------------------

def _fd_second(fn, x: np.ndarray, i: int, h: float) -> np.ndarray:
    """Fourth-order central second derivative along coordinate i."""
    e = np.zeros(4)
    e[i] = h
    return (-fn(x + 2 * e) + 16 * fn(x + e) - 30 * fn(x)
            + 16 * fn(x - e) - fn(x - 2 * e)) / (12 * h * h)


def _fd_first(fn, x: np.ndarray, i: int, h: float) -> np.ndarray:
    e = np.zeros(4)
    e[i] = h
    return (-fn(x + 2 * e) + 8 * fn(x + e) - 8 * fn(x - e)
            + fn(x - 2 * e)) / (12 * h)


def fd_two_form_calculus(components: dict, symbols, points,
                         h: float = 1e-3) -> dict:
    """Relative finite-difference sizes of the componentwise Laplacian,
    of d and of the divergence of a 2-form {(i, j): expr} on R^4.

    The components are lambdified as they stand, without simplify.  Each
    relative size divides the largest entry by the largest sum of the
    absolute terms that make it up, so 0 means an exact cancellation and
    O(1) means none."""
    funcs = {ij: sp.lambdify(symbols, expr, "numpy")
             for ij, expr in components.items()}

    def comp(ij):
        i, j = ij
        if (i, j) in funcs:
            f = funcs[(i, j)]
            return lambda x: float(f(*x))
        if (j, i) in funcs:
            f = funcs[(j, i)]
            return lambda x: -float(f(*x))
        return lambda x: 0.0

    lap = d_rel = div_rel = 0.0
    for x in np.asarray(points, dtype=float):
        for ij in PAIRS4:
            terms = [_fd_second(comp(ij), x, a, h) for a in range(4)]
            lap = max(lap, abs(sum(terms)) / max(sum(map(abs, terms)), 1e-300))
        for i, j, k in combinations(range(4), 3):
            terms = [_fd_first(comp((j, k)), x, i, h),
                     -_fd_first(comp((i, k)), x, j, h),
                     _fd_first(comp((i, j)), x, k, h)]
            d_rel = max(d_rel, abs(sum(terms))
                        / max(sum(map(abs, terms)), 1e-300))
        for i in range(4):
            terms = [_fd_first(comp((i, j)), x, j, h)
                     for j in range(4) if j != i]
            div_rel = max(div_rel, abs(sum(terms))
                          / max(sum(map(abs, terms)), 1e-300))
    return {"laplacian": lap, "d": d_rel, "divergence": div_rel}


# finite-difference relative sizes below FD_ZERO count as exact zeros,
# above FD_NONZERO as nonzero; the gap between them is never ambiguous
# for rational components sampled at |x| in [1, 2]
FD_ZERO, FD_NONZERO = 1e-6, 1e-3


def _fd_says(value: float):
    if value <= FD_ZERO:
        return True
    if value >= FD_NONZERO:
        return False
    return None


def check_harmonic_candidate(label: str, components: dict, symbols, points,
                             oracle: dict, order) -> list[Check]:
    """The oracle's verdict on a harmonic candidate against finite
    differences: Laplacian zero, and closed / coclosed exactly when the
    finite differences say so."""
    fd = fd_two_form_calculus(components, symbols, points)
    harmonic = _fd_says(fd["laplacian"])
    closed = _fd_says(fd["d"])
    coclosed = _fd_says(fd["divergence"])
    return [
        _check(f"{label}.harmonic", harmonic is True
               and oracle["residual"] == 0.0,
               f"oracle residual {oracle['residual']}, FD Laplacian "
               f"{fd['laplacian']:.2e}"),
        _check(f"{label}.order", oracle["order"] == order,
               f"order {oracle['order']} == {order}"),
        _check(f"{label}.closed", closed is not None
               and closed == oracle["closed"],
               f"oracle closed={oracle['closed']}, FD d {fd['d']:.2e}"),
        _check(f"{label}.coclosed", coclosed is not None
               and coclosed == oracle["coclosed"],
               f"oracle coclosed={oracle['coclosed']}, FD divergence "
               f"{fd['divergence']:.2e}"),
    ]


def check_control(label: str, components: dict, symbols, points,
                  oracle: dict) -> list[Check]:
    """A non-harmonic control must come back with residual > 0, and the
    finite differences must agree that it is not harmonic."""
    fd = fd_two_form_calculus(components, symbols, points)
    return [_check(f"{label}.not_harmonic",
                   oracle["residual"] > 0.0 and _fd_says(fd["laplacian"])
                   is False,
                   f"oracle residual {oracle['residual']:.3e}, FD Laplacian "
                   f"{fd['laplacian']:.2e}")]


def sphere_eigenvalue_fd(m: int, point: np.ndarray, h: float = 1e-2) -> float:
    """-Delta F / F on S^3 for F(x) = Re((x1 + i x2)^m) at x / |x|.

    F is homogeneous of degree 0, so its Euclidean Laplacian on the unit
    sphere is the sphere Laplacian."""
    def F(x):
        u = x / np.sqrt((x * x).sum())
        return float(np.real((u[0] + 1j * u[1]) ** m))
    x = np.asarray(point, dtype=float)
    x = x / np.sqrt((x * x).sum())
    lap = sum(_fd_second(F, x, i, h) for i in range(4))
    return -lap / F(x)


def check_sphere_eigenvalue(m: int, result: dict, point) -> list[Check]:
    expected = m * (m + 2)
    est = sphere_eigenvalue_fd(m, point)
    return [_check(f"s3.m{m}", result["eigenvalue"] == expected
                   and abs(est - expected) <= 1e-4 * max(1, expected),
                   f"eigenvalue {result['eigenvalue']} == m(m+2) = "
                   f"{expected}, FD on S^3 {est:.6f}")]


def check_critical_rates(deg1: list, deg2: list) -> list[Check]:
    """No degree-1 rate in [-2, 0); one degree-2 rate in [-4 + 1/100, 0),
    at -2, of dimension 6: the six order -2 forms |x|^-2 (self-dual and
    anti-self-dual constants)."""
    ok = (deg1 == [] and len(deg2) == 1 and deg2[0].rate == -2
          and deg2[0].dimension == 6)
    return [_check("cone.critical_rates", ok,
                   f"deg 1: {len(deg1)} rates; deg 2: "
                   f"{[(str(r.rate), r.dimension) for r in deg2]}")]


def check_naive_exponent(exponent, beta) -> list[Check]:
    expected = Fraction(4, 5) * (2 - Fraction(beta))
    return [_check("cone.jk_naive", exponent == expected,
                   f"naive exponent at B = -1/5, beta = {beta}: "
                   f"{exponent} == (4/5)(2 - beta) = {expected}")]


def check_refined_exponent(exponent) -> list[Check]:
    return [_check("cone.jk_refined", exponent is not None
                   and exponent >= Fraction(13, 5),
                   f"refined exponent {exponent} >= 13/5")]


def check_identity(label: str, values: list, expected: bool) -> list[Check]:
    """Each is_zero verdict must be the expected one."""
    return [_check(label, bool(values) and all(v is expected for v in values),
                   f"is_zero returned {values}, expected {expected}")]
