"""Spectral existence iteration on the flat 7-torus.

The model problem: perturb the flat structure phi0 by an exact 2-form,
phi = phi0 + eps d sigma, and run the correction iteration until
phi + d eta is torsion-free.  On T^7 the only torsion-free structure in
the cohomology class near phi0 is phi0 itself (parallel forms have
constant coefficients, and constant intersect exact = 0), so the solver
is certified end-to-end: the residual and the distance to phi0 must both
vanish to solver tolerance.

All derivative operators are Fourier-diagonal with respect to the flat
background metric.  The default scheme rearranges the torsion-free
equation as

    delta0 [ P0(chi) - *0 F0(chi) ] = 0,     chi = (phi - phi0) + d eta,

where Theta(phi0 + chi) = *0 phi0 - T0(chi) - F0(chi) is the split at the
flat structure, T0 = -*0 P0 is its exact linearization (P0 a constant
35x35 rational matrix), and F0 is quadratically small.  The left side is
linear with a mode-diagonal symbol A(m) = 4 pi^2 (m -|) P0 (m ^) on
2-forms.  P0 has spectrum {4/3, 1, -1}, so A(m)^2 = -Lap(m) A(m) with
Lap(m) = 4 pi^2 |m|^2: A is -Lap times a projector, and its
pseudo-inverse is A^+ = Lap^-2 A, applied by d, P0 and delta in the
spectral domain with nothing factorized or stored; the right side feeds
back F0.  At the fixed point *0[P0 chi - *0 F0] equals
Theta(phi + d eta) - *0 phi0 identically, so the reported torsion
residual vanishes with the iteration error, independent of grid effects.

A 'cg' mode repeats the correction against the honest nonlinear residual
*0 d Theta(phi + d eta) with the same spectral preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import struct

import numpy as np

from .forms import (Form, Metric, PositivityError, hodge_star, index_list,
                    index_position, inner_product, merge_sign, metric_from_g2,
                    phi0, star_phi0, theta, theta_split, wedge)

__all__ = [
    "GridField", "SolverConfig", "SpectralOps", "derivative_ops",
    "make_model_problem", "picard_step", "solve", "residual",
    "flat_t_matrix", "save_field", "load_field", "GridTooLargeError",
]

TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------------
# grid fields
# ----------------------------------------------------------------------

class GridField:
    """Degree-p form field on the N^7 periodic lattice.

    coeffs: real array (ncomp, N, ..., N); the spectral representation is
    the rfftn over the seven grid axes, cached on first use.
    """

    def __init__(self, degree: int, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        nc = len(index_list(7, degree))
        if coeffs.ndim != 8 or coeffs.shape[0] != nc:
            raise ValueError(f"expected (ncomp={nc}, N^7) array")
        if len(set(coeffs.shape[1:])) != 1:
            raise ValueError("grid must be cubical")
        self.degree = degree
        self.coeffs = coeffs
        self.N = coeffs.shape[1]
        self._spectral = None

    @classmethod
    def zero(cls, degree: int, N: int) -> "GridField":
        nc = len(index_list(7, degree))
        return cls(degree, np.zeros((nc,) + (N,) * 7))

    @classmethod
    def constant(cls, form: Form, N: int) -> "GridField":
        nc = form.coeffs.shape[0]
        arr = np.empty((nc,) + (N,) * 7)
        arr[:] = form.coeffs.reshape((nc,) + (1,) * 7)
        return cls(form.degree, arr)

    @classmethod
    def from_spectral(cls, degree: int, spec: np.ndarray, N: int) -> "GridField":
        coeffs = np.fft.irfftn(spec, s=(N,) * 7, axes=tuple(range(1, 8)))
        out = cls(degree, coeffs)
        out._spectral = spec
        return out

    @property
    def spectral(self) -> np.ndarray:
        if self._spectral is None:
            self._spectral = np.fft.rfftn(self.coeffs, axes=tuple(range(1, 8)))
        return self._spectral

    def as_form(self) -> Form:
        return Form(7, self.degree, self.coeffs)

    def zero_mode(self) -> np.ndarray:
        """Grid average of each component (the constant Fourier mode)."""
        return self.coeffs.mean(axis=tuple(range(1, 8)))

    def linf(self) -> float:
        return float(np.abs(self.coeffs).max())

    def __add__(self, other):
        return GridField(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return GridField(self.degree, self.coeffs - other.coeffs)

    def __mul__(self, s):
        return GridField(self.degree, s * self.coeffs)

    __rmul__ = __mul__


# ----------------------------------------------------------------------
# spectral derivative operators
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _d_table(p: int):
    """(axis, pos_in, pos_out, sign) for d: Lambda^p -> Lambda^{p+1}."""
    out = []
    pos_out = index_position(7, p + 1)
    for pi, I in enumerate(index_list(7, p)):
        si = set(I)
        for a in range(7):
            if a in si:
                continue
            sign = merge_sign((a,), I)
            out.append((a, pi, pos_out[tuple(sorted((a,) + I))], sign))
    return tuple(out)


class SpectralOps:
    """Fourier-diagonal d, d*, Laplacian and inverse on the N^7 grid."""

    def __init__(self, N: int):
        self.N = N
        ms = [np.fft.fftfreq(N) * N for _ in range(7)]
        ms[6] = np.fft.rfftfreq(N) * N
        # shaped to broadcast over the 7 grid axes (component axis excluded)
        self.m = [m.reshape((1,) * ax + (-1,) + (1,) * (6 - ax))
                  for ax, m in enumerate(ms)]
        self.m2 = sum((m ** 2 for m in self.m), start=np.zeros((1,) * 7))
        # the Laplacian symbol 4 pi^2 |m|^2, set to 1 at the zero mode so
        # that dividing by it leaves that mode as it is
        lap = TWO_PI ** 2 * self.m2
        self.lap_nonzero = np.where(lap == 0.0, 1.0, lap)

    def _m_action(self, spec: np.ndarray, p: int, q: int, factor):
        """factor (m ^ .) for q = p + 1, or its transpose (m -| .) for
        q = p - 1, on the spectrum of a p-form, mode by mode."""
        out = np.zeros((len(index_list(7, q)),) + spec.shape[1:],
                       dtype=complex)
        for a, lo, hi, sign in _d_table(min(p, q)):
            i, o = (lo, hi) if q > p else (hi, lo)
            out[o] += (factor * sign) * (self.m[a] * spec[i])
        return out

    def d(self, field: GridField) -> GridField:
        """Exterior derivative on trigonometric interpolants (exact)."""
        p = field.degree
        out = self._m_action(field.spectral, p, p + 1, TWO_PI * 1j)
        return GridField.from_spectral(p + 1, out, self.N)

    def delta(self, field: GridField) -> GridField:
        """Formal adjoint of d w.r.t. the flat L^2 pairing (degree -1)."""
        p = field.degree
        out = self._m_action(field.spectral, p, p - 1, -TWO_PI * 1j)
        return GridField.from_spectral(p - 1, out, self.N)

    def laplacian(self, field: GridField) -> GridField:
        spec = field.spectral * (TWO_PI ** 2 * self.m2)
        return GridField.from_spectral(field.degree, spec, self.N)

    def inv_laplacian(self, field: GridField, project: bool = False) -> GridField:
        """Invert the Hodge Laplacian on the mean-zero complement.

        The constant modes are outside the image; with project=False a
        nonzero constant mode raises, with project=True it is dropped (the
        discrete analogue of working orthogonal to the reference kernel).
        """
        spec = field.spectral.copy()
        zero = tuple([slice(None)] + [0] * 7)
        if not project and np.abs(spec[zero]).max() > 1e-10 * (
                1.0 + np.abs(spec).max()):
            raise ValueError("cannot invert the Laplacian on the zero mode")
        spec = spec / self.lap_nonzero
        spec[zero] = 0.0
        return GridField.from_spectral(field.degree, spec, self.N)

    def band_limit(self, field: GridField, max_mode: int) -> GridField:
        spec = field.spectral.copy()
        mask = np.ones(spec.shape[1:], dtype=bool)
        for m in self.m:
            mask &= (np.abs(m) <= max_mode)
        spec *= mask
        return GridField.from_spectral(field.degree, spec, self.N)

    def mean_zero(self, field: GridField) -> GridField:
        spec = field.spectral.copy()
        spec[tuple([slice(None)] + [0] * 7)] = 0.0
        return GridField.from_spectral(field.degree, spec, self.N)


@lru_cache(maxsize=None)
def derivative_ops(N: int) -> SpectralOps:
    return SpectralOps(N)


# ----------------------------------------------------------------------
# the exact flat-background linearization
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _star0_matrix(p: int) -> np.ndarray:
    """Euclidean Hodge star on degree p as a signed permutation matrix."""
    basis = Form(7, p, np.eye(len(index_list(7, p))))
    return hodge_star(Metric.euclidean(7), basis).coeffs


@lru_cache(maxsize=None)
def flat_p_matrix() -> np.ndarray:
    """P0 = (7/3) pi_1 + 2 pi_7 - Id on 3-forms at the flat structure,
    assembled from exact rational projectors; D Theta|_{phi0} = *0 P0."""
    p0 = phi0().coeffs
    pi1 = np.outer(p0, p0) / 7.0
    star3 = _star0_matrix(4)        # 4-forms -> 3-forms
    pi7 = np.zeros((35, 35))
    for i in range(7):
        ei_phi = wedge(Form.basis(7, (i,)), phi0())      # e^i ^ phi0
        q = star3 @ ei_phi.coeffs                        # *(e^i ^ phi0)
        pi7 += np.outer(q, q) / 4.0
    return (7.0 / 3.0) * pi1 + 2.0 * pi7 - np.eye(35)


@lru_cache(maxsize=None)
def flat_t_matrix() -> np.ndarray:
    """T0 = -*0 P0: the exact linear term of the split at phi0."""
    return -_star0_matrix(3) @ flat_p_matrix()


def _apply_symbol(ops: SpectralOps, spec: np.ndarray) -> np.ndarray:
    """A = delta0 P0 d on the spectrum of a 2-form: the real symbol
    4 pi^2 (m -|) P0 (m ^), mode by mode and never assembled.  Its kernel
    holds the d-closed directions and the diffeomorphism gauge modes."""
    p0_dx = np.tensordot(flat_p_matrix(), ops._m_action(spec, 2, 3, 1.0),
                         axes=1)
    return ops._m_action(p0_dx, 3, 2, TWO_PI ** 2)


def _apply_symbol_pinv(N: int, field: GridField) -> GridField:
    """A^+ = Lap^-2 A, mode by mode; 0 on the zero mode."""
    ops = derivative_ops(N)
    out = _apply_symbol(ops, field.spectral) / ops.lap_nonzero ** 2
    return GridField.from_spectral(2, out, N)


def _apply_kernel_projector(N: int, field: GridField) -> GridField:
    """Project a 2-form field onto the mode-wise kernel of the symbol
    (d-closed plus diffeomorphism-gauge directions): Id + Lap^-1 A."""
    ops = derivative_ops(N)
    spec = field.spectral
    return GridField.from_spectral(
        2, spec + _apply_symbol(ops, spec) / ops.lap_nonzero, N)


def _apply_matrix(M: np.ndarray, field: GridField, degree_out: int) -> GridField:
    return GridField(degree_out,
                     np.einsum("ij,j...->i...", M, field.coeffs))


def _theta_grid(field3: GridField) -> GridField:
    """Pointwise nonlinear dual of a 3-form field (the expensive map)."""
    dual = theta(field3.as_form())
    return GridField(4, dual.coeffs)


def _flat_split_F(chi: GridField) -> GridField:
    """F0(chi) = *0 phi0 - T0 chi - Theta(phi0 + chi), a 4-form field."""
    N = chi.N
    sp0 = GridField.constant(star_phi0(), N)
    t_chi = _apply_matrix(flat_t_matrix(), chi, 4)
    theta_full = _theta_grid(GridField.constant(phi0(), N) + chi)
    return sp0 - t_chi - theta_full


# ----------------------------------------------------------------------
# the model problem
# ----------------------------------------------------------------------

@dataclass
class SolverConfig:
    N: int = 6
    eps: float = 1e-2
    seed: int = 7
    tol_residual: float = 1e-8
    max_iter: int = 50
    operator_mode: str = "flat-background"    # or "curved-cg"

    def __post_init__(self):
        if self.N not in (4, 6, 8):
            raise ValueError("N must be 4, 6, or 8")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.operator_mode not in ("flat-background", "curved-cg"):
            raise ValueError("unknown operator mode")


# Peak RSS of a solve above the interpreter's, per grid point: 4513 B at
# N = 6 and 5876 B at N = 4, where a fixed ~22 MB weighs in; rounded up.
_PEAK_BYTES_PER_POINT = 4600


class GridTooLargeError(MemoryError):
    """A solve's estimated peak memory exceeds the memory available."""


def _mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where unreadable."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def make_model_problem(cfg: SolverConfig):
    """phi = phi0 + eps d sigma for a random band-limited coexact 2-form
    sigma with || d sigma ||_Linf = 1, and the torsion bookkeeping 3-form
    psi with *psi = Theta(phi) - *0 phi0.

    Refuses a grid that cannot fit in memory before allocating it.  Checks
    that phi is a G2-structure at every grid point and that the
    coderivative compatibility delta_g psi = delta_g phi holds (it is an
    identity of the construction; the numerical match is reported).
    """
    need, avail = _PEAK_BYTES_PER_POINT * cfg.N ** 7, _mem_available()
    if avail is not None and need > avail:
        raise GridTooLargeError(
            f"N = {cfg.N} needs about {need / 2 ** 30:.1f} GiB, "
            f"{avail / 2 ** 30:.1f} GiB available")
    ops = derivative_ops(cfg.N)
    rng = np.random.default_rng(cfg.seed)
    raw = GridField(2, rng.normal(size=(21,) + (cfg.N,) * 7))
    band = ops.band_limit(raw, max(1, cfg.N // 4))
    band = ops.mean_zero(band)
    # coexact part: delta Lap^-1 d keeps the band limit (diagonal ops)
    sigma = ops.delta(ops.inv_laplacian(ops.d(band), project=True))
    dsig = ops.d(sigma)
    scale = dsig.linf()
    if scale == 0.0:
        raise RuntimeError("degenerate random draw")
    sigma = (1.0 / scale) * sigma
    dsig = (1.0 / scale) * dsig

    phi = GridField.constant(phi0(), cfg.N) + cfg.eps * dsig
    try:
        g, _ = metric_from_g2(phi.as_form())
    except PositivityError as exc:
        raise PositivityError(
            "eps too large: phi leaves the G2 cone on the grid") from exc
    theta_phi = _theta_grid(phi)
    mismatch = theta_phi - GridField.constant(star_phi0(), cfg.N)
    psi = GridField(3, hodge_star(g, mismatch.as_form()).coeffs)

    # compatibility: both coderivatives w.r.t. g(phi); identical pipelines
    dstar_psi = hodge_star(g, ops.d(GridField(
        4, hodge_star(g, psi.as_form()).coeffs)).as_form()).coeffs
    dstar_phi = hodge_star(g, ops.d(GridField(
        4, theta_phi.coeffs)).as_form()).coeffs
    denom = np.abs(dstar_phi).max() + 1e-30
    compat = float(np.abs(dstar_psi - dstar_phi).max() / denom)
    if compat > 1e-8:
        raise RuntimeError(f"coderivative compatibility failed: {compat}")
    return phi, psi, sigma


# ----------------------------------------------------------------------
# iteration
# ----------------------------------------------------------------------

def picard_step(phi: GridField, psi: GridField, eta: GridField,
                scheme: str = "flat-split") -> GridField:
    """One update of the correction 2-form.

    'flat-split' (the solver default): solve the exact rearrangement
    A(eta + eps sigma-part) = delta0(*0 F0(chi)) with chi = (phi - phi0)
    + d eta, using the mode-wise pseudo-inverse Lap^-2 A of
    A = delta0 P0 d.  'joyce-literal' applies the textbook display
    eta' = Lap^-1 delta(psi + f psi + *F(d eta)) with f phi = (7/3)
    pi_1(d eta); it reproduces the stated shape (eta_1 = Lap^-1 delta psi
    from eta_0 = 0) but its fixed point carries an O(eps^2) torsion
    remainder, so solve() uses the rearranged scheme.
    """
    N = phi.N
    ops = derivative_ops(N)
    if scheme == "flat-split":
        chi = (phi - GridField.constant(phi0(), N)) + ops.d(eta)
        F = _flat_split_F(chi)
        rhs = ops.delta(_apply_matrix(_star0_matrix(4), F, 3))
        sol = _apply_symbol_pinv(N, rhs)
        # A acted on eta + potential(phi - phi0); peel the model part off
        pot = _coexact_potential_of_exact3(ops, phi - GridField.constant(
            phi0(), N))
        return ops.mean_zero(sol - pot)
    if scheme == "joyce-literal":
        g, _ = metric_from_g2(phi.as_form())
        phi_form = phi.as_form()
        deta = ops.d(eta)
        # f from the pi_1 projection: f phi = (7/3) pi_1(d eta)
        f_scalar = (1.0 / 3.0) * inner_product(g, deta.as_form(), phi_form)
        f_psi = GridField(3, f_scalar[None] * psi.coeffs)
        _, F_chi = theta_split(phi_form, deta.as_form())
        star_F = GridField(3, hodge_star(g, F_chi).coeffs)
        source = psi + f_psi + star_F
        sigma_rhs = ops.delta(source)
        return ops.mean_zero(ops.inv_laplacian(sigma_rhs, project=True))
    raise ValueError(f"unknown scheme {scheme}")


def _coexact_potential_of_exact3(ops: SpectralOps, w3: GridField) -> GridField:
    """The coexact 2-form sigma with d sigma = w3, for an exact mean-zero
    3-form: sigma = delta Lap^-1 w3."""
    return ops.delta(ops.inv_laplacian(w3, project=True))


def residual(phi_tilde: GridField) -> float:
    """max(||d phi||_Linf, ||d Theta(phi)||_Linf) on the grid (flat norms)."""
    ops = derivative_ops(phi_tilde.N)
    metric_from_g2(phi_tilde.as_form())        # positivity gate
    d_phi = ops.d(phi_tilde).linf()
    d_theta = ops.d(_theta_grid(phi_tilde)).linf()
    return max(d_phi, d_theta)


def solve(cfg: SolverConfig):
    """Run the iteration to the torsion-free structure; returns
    (eta, report).  On the flat torus the target is phi0 itself, so the
    report carries both the torsion residual and the distance to phi0."""
    ops = derivative_ops(cfg.N)
    phi, psi, sigma = make_model_problem(cfg)
    eta = GridField.zero(2, cfg.N)
    if cfg.operator_mode == "curved-cg":
        # the residual-correction updates stay in the symbol range; seed
        # the gauge-kernel component from the model potential so the
        # diffeomorphism offset is not left behind at O(eps^2)
        pot = _coexact_potential_of_exact3(
            ops, phi - GridField.constant(phi0(), cfg.N))
        eta = (-1.0) * _apply_kernel_projector(cfg.N, pot)
    diffs = []
    iterations = 0
    for j in range(cfg.max_iter):
        try:
            if cfg.operator_mode == "flat-background":
                new_eta = picard_step(phi, psi, eta, scheme="flat-split")
            else:
                new_eta = _cg_step(ops, phi, eta)
        except PositivityError as exc:
            raise RuntimeError(f"iterate {j} left the G2 cone") from exc
        step = (new_eta - eta).linf()
        diffs.append(step)
        eta = new_eta
        if step <= cfg.tol_residual:
            iterations = j          # productive steps before convergence
            break
        iterations = j + 1
    else:
        raise RuntimeError(f"max_iter = {cfg.max_iter} exceeded: last step "
                           f"{diffs[-1]:.3e} > tol {cfg.tol_residual:g}")

    phi_tilde = phi + ops.d(eta)
    res = residual(phi_tilde)
    dist = (phi_tilde - GridField.constant(phi0(), cfg.N)).linf()
    zero_mode_gap = float(np.abs(
        phi_tilde.zero_mode() - phi0().coeffs).max())
    contraction = [diffs[i + 1] / diffs[i]
                   for i in range(len(diffs) - 1) if diffs[i] > 0]
    report = {
        "iterations": iterations,
        "residual": res,
        "distance_to_flat": dist,
        "zero_mode_gap": zero_mode_gap,
        "contraction_factors": contraction,
        "step_sizes": diffs,
        "mode": cfg.operator_mode,
    }
    return eta, report


def _cg_step(ops: SpectralOps, phi: GridField, eta: GridField) -> GridField:
    """Residual-correction step: eta <- eta + pinv(A) *0 d Theta(phi+d eta),
    the honest nonlinear torsion fed back through the flat preconditioner.

    Updates live in the symbol range; with the gauge-kernel component
    seeded from the model potential the iteration converges to a torsion
    residual of order eps^3 (the seed fixes the diffeomorphism offset to
    first order only).  The mode exists as the fallback; the default
    rearranged scheme is exact and is what the acceptance run uses."""
    phi_tilde = phi + ops.d(eta)
    d_theta = ops.d(_theta_grid(phi_tilde))                    # 5-form
    resid2 = _apply_matrix(_star0_matrix(5), d_theta, 2)       # *0 -> 2-form
    return ops.mean_zero(eta + _apply_symbol_pinv(ops.N, resid2))


# ----------------------------------------------------------------------
# binary field dump
# ----------------------------------------------------------------------

def save_field(path: str, field: GridField):
    """Little-endian layout: header '<II' (N, degree), then the float64
    coefficient array, component-major then row-major grid order."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", field.N, field.degree))
        fh.write(np.ascontiguousarray(field.coeffs, dtype="<f8").tobytes())


def load_field(path: str) -> GridField:
    with open(path, "rb") as fh:
        N, degree = struct.unpack("<II", fh.read(8))
        nc = len(index_list(7, degree))
        data = np.frombuffer(fh.read(), dtype="<f8")
    return GridField(degree, data.reshape((nc,) + (N,) * 7).copy())
