"""Tests for the spectral operators and the flat-torus existence iteration.

Unit tests run at N = 4 to stay fast; the N = 6 run of the acceptance
criterion lives in test_acceptance.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2glue import forms as F
from g2glue import torus as T
from g2glue.forms import index_position


RNG = np.random.default_rng(99)
N = 4


def random_field(degree, seed=0, mean_zero=True):
    rng = np.random.default_rng(seed)
    nc = len(F.index_list(7, degree))
    f = T.GridField(degree, rng.normal(size=(nc,) + (N,) * 7))
    return T.derivative_ops(N).mean_zero(f) if mean_zero else f


# ----------------------------------------------------------------------
# spectral plumbing
# ----------------------------------------------------------------------

def test_spectral_round_trip():
    f = random_field(2, seed=1, mean_zero=False)
    back = np.fft.irfftn(f.spectral, s=(N,) * 7, axes=tuple(range(1, 8)))
    assert np.abs(back - f.coeffs).max() < 1e-12


def test_parseval():
    f = random_field(0, seed=2, mean_zero=False)
    spec = f.spectral
    # sum |f|^2 over the grid equals the weighted spectral energy of the
    # half-spectrum (conjugate modes double except the self-conjugate planes)
    weights = np.full(spec.shape[1:], 2.0)
    weights[..., 0] = 1.0
    if N % 2 == 0:
        weights[..., -1] = 1.0
    lhs = (f.coeffs ** 2).sum()
    rhs = (weights * np.abs(spec) ** 2).sum() / N ** 7
    assert abs(lhs - rhs) / lhs < 1e-10


def test_d_squared_zero():
    ops = T.derivative_ops(N)
    for degree in (0, 1, 2):
        f = random_field(degree, seed=degree)
        assert ops.d(ops.d(f)).linf() < 1e-11


def test_adjointness():
    ops = T.derivative_ops(N)
    a = random_field(2, seed=3)
    b = random_field(3, seed=4)
    lhs = (ops.d(a).coeffs * b.coeffs).sum(axis=0).mean()
    rhs = (a.coeffs * ops.delta(b).coeffs).sum(axis=0).mean()
    assert abs(lhs - rhs) < 1e-10 * (abs(lhs) + 1.0)


def test_laplacian_symbol():
    ops = T.derivative_ops(N)
    x = np.arange(N) / N
    grids = np.meshgrid(*[x] * 7, indexing="ij")
    f = T.GridField.zero(2, N)
    pos = index_position(7, 2)[(1, 2)]
    f.coeffs[pos] = np.sin(2 * np.pi * grids[0])
    lap = ops.laplacian(f)
    assert np.abs(lap.coeffs[pos] - 4 * np.pi ** 2 * f.coeffs[pos]).max() < 1e-10


def test_inv_laplacian_inverts_mean_zero():
    ops = T.derivative_ops(N)
    f = random_field(2, seed=5)
    assert (ops.inv_laplacian(ops.laplacian(f)) - f).linf() < 1e-10


def test_inv_laplacian_rejects_zero_mode():
    ops = T.derivative_ops(N)
    f = random_field(2, seed=6, mean_zero=False)
    with pytest.raises(ValueError):
        ops.inv_laplacian(f)
    out = ops.inv_laplacian(f, project=True)
    assert np.abs(out.zero_mode()).max() < 1e-13


def test_iteration_preserves_mean_zero():
    cfg = T.SolverConfig(N=N, eps=5e-3, seed=11)
    phi, psi, sigma = T.make_model_problem(cfg)
    eta = T.picard_step(phi, psi, T.GridField.zero(2, N))
    assert np.abs(eta.zero_mode()).max() < 1e-13


# ----------------------------------------------------------------------
# the exact flat linearization
# ----------------------------------------------------------------------

def test_flat_t_matrix_matches_finite_differences():
    T0 = T.flat_t_matrix()
    rng = np.random.default_rng(12)
    for _ in range(3):
        chi = F.Form(7, 3, rng.normal(size=(35,)))
        chi = (0.3 / np.sqrt((chi.coeffs ** 2).sum())) * chi
        T_fd, _ = F.theta_split(F.phi0(), chi)
        assert np.abs(T0 @ chi.coeffs - T_fd.coeffs).max() < 1e-10


def test_flat_p_matrix_spectrum():
    # P0 = (4/3) pi_1 + pi_7 - pi_27: eigenvalues 4/3, 1, -1 with
    # multiplicities 1, 7, 27
    w = np.linalg.eigvalsh(T.flat_p_matrix())
    w.sort()
    assert np.allclose(w[:27], -1.0, atol=1e-12)
    assert np.allclose(w[27:34], 1.0, atol=1e-12)
    assert np.isclose(w[34], 4.0 / 3.0, atol=1e-12)


# ----------------------------------------------------------------------
# the symbol A = delta0 P0 d and its pseudo-inverse
# ----------------------------------------------------------------------

def symbol_matrix(m):
    """Reference: the explicit 21x21 symbol 4 pi^2 W^T P0 W at real modes
    m of shape (..., 7), with W (W[po, pi] = sign m_a) the matrix of
    (m ^ .) on 2-forms, assembled entry by entry and multiplied out."""
    m = np.asarray(m, dtype=float)
    W = np.zeros(m.shape[:-1] + (35, 21))
    for a, pi, po, sign in T._d_table(2):
        W[..., po, pi] += sign * m[..., a]
    return 4 * np.pi ** 2 * np.swapaxes(W, -1, -2) @ T.flat_p_matrix() @ W


def grid_modes():
    """Every mode of the N^7 half-spectrum as rows of m, (n_modes, 7)."""
    ops = T.derivative_ops(N)
    shape = np.broadcast_shapes(*[m.shape for m in ops.m])
    return np.stack([np.broadcast_to(m, shape).ravel() for m in ops.m],
                    axis=-1)


def per_mode(M, spec):
    """Apply a stack of per-mode matrices (n_modes, 21, 21) to a spectrum
    of shape (21,) + mode grid."""
    flat = spec.reshape(21, -1).T[..., None]
    return (M @ flat)[..., 0].T.reshape(spec.shape)


def apply_A(spec):
    return T._apply_symbol(T.derivative_ops(N), spec)


def apply_pinv(spec):
    return T._apply_symbol_pinv(
        N, T.GridField.from_spectral(2, spec, N)).spectral


def apply_kernel(spec):
    return T._apply_kernel_projector(
        N, T.GridField.from_spectral(2, spec, N)).spectral


def random_spectrum(seed):
    return random_field(2, seed=seed, mean_zero=False).spectral


def test_pinv_and_kernel_projector_match_per_mode_pinv():
    # every mode of the N = 4 grid, the Nyquist planes included
    modes = grid_modes()
    A = symbol_matrix(modes)
    A_pinv = np.linalg.pinv(A, rtol=1e-10, hermitian=True)
    x = random_spectrum(31)
    scale = np.abs(x).max()
    assert np.abs(apply_A(x) - per_mode(A, x)).max() < 1e-9 * scale
    ref = per_mode(A_pinv, x)
    assert np.abs(ref).max() > 1e-3 * scale           # not vacuous
    assert np.abs(apply_pinv(x) - ref).max() < 1e-12 * scale
    kernel = x - per_mode(A_pinv @ A, x)
    assert np.abs(apply_kernel(x) - kernel).max() < 1e-12 * scale
    # the symbol has rank 8 at every nonzero mode and vanishes at m = 0
    ranks = np.linalg.matrix_rank(A, rtol=1e-10, hermitian=True)
    zero = np.all(modes == 0, axis=-1)
    assert np.all(ranks[zero] == 0) and np.all(ranks[~zero] == 8)


def test_pinv_penrose_identities():
    x, y = random_spectrum(32), random_spectrum(33)
    scale = np.abs(apply_A(x)).max()
    AP = lambda s: apply_A(apply_pinv(s))
    PA = lambda s: apply_pinv(apply_A(s))
    assert np.abs(apply_A(PA(x)) - apply_A(x)).max() < 1e-12 * scale
    assert np.abs(apply_pinv(AP(x)) - apply_pinv(x)).max() < \
        1e-12 * np.abs(apply_pinv(x)).max()
    # A P and P A are symmetric: mode-wise <y, M x> = <M y, x>
    for M in (AP, PA):
        lhs = np.vdot(y, M(x))
        rhs = np.vdot(M(y), x)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_kernel_projector_is_idempotent_and_annihilated_by_A():
    x = random_spectrum(34)
    k = apply_kernel(x)
    scale = np.abs(x).max()
    assert np.abs(apply_kernel(k) - k).max() < 1e-12 * scale
    assert np.abs(apply_A(k)).max() < 1e-10 * np.abs(apply_A(x)).max()
    # the zero mode lies in the kernel: the projector keeps it
    zero = (slice(None),) + (0,) * 7
    assert np.array_equal(k[zero], x[zero])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-6.0, 6.0), min_size=7, max_size=7))
def test_symbol_squares_to_minus_laplacian_times_symbol(m):
    # P0 has spectrum {4/3, 1, -1}, so A(m)^2 = -4 pi^2 |m|^2 A(m) for
    # every real m, not only lattice modes
    A = symbol_matrix(m)
    lap = 4 * np.pi ** 2 * float(np.dot(m, m))
    scale = max(lap, 1e-300) ** 2
    assert np.abs(A @ A + lap * A).max() <= 1e-12 * scale


# ----------------------------------------------------------------------
# model problem
# ----------------------------------------------------------------------

def test_model_zero_eps():
    cfg = T.SolverConfig(N=N, eps=0.0, seed=7)
    phi, psi, sigma = T.make_model_problem(cfg)
    assert psi.linf() < 1e-13
    assert (phi - T.GridField.constant(F.phi0(), N)).linf() < 1e-14


def test_model_closed_and_normalized():
    ops = T.derivative_ops(N)
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=8)
    phi, psi, sigma = T.make_model_problem(cfg)
    assert ops.d(phi).linf() < 1e-11
    assert np.isclose((phi - T.GridField.constant(F.phi0(), N)).linf(),
                      cfg.eps, rtol=1e-10)


def test_model_psi_scales_linearly():
    ratios = []
    for seed in (1, 2, 3):
        cfg = T.SolverConfig(N=N, eps=1e-2, seed=seed)
        _, psi, _ = T.make_model_problem(cfg)
        ratios.append(psi.linf() / cfg.eps)
    assert max(ratios) / min(ratios) < 2.0


class Allocated(Exception):
    pass


def test_grid_refused_before_allocation(monkeypatch):
    # derivative_ops is the first step of make_model_problem that
    # allocates grid arrays; a refused grid must never reach it
    def reached(N):
        raise Allocated(N)
    monkeypatch.setattr(T, "derivative_ops", reached)
    monkeypatch.setattr(T, "_mem_available", lambda: int(7.3 * 2 ** 30))
    with pytest.raises(T.GridTooLargeError, match="N = 8"):
        T.make_model_problem(T.SolverConfig(N=8))
    with pytest.raises(Allocated):
        T.make_model_problem(T.SolverConfig(N=6))
    # where MemAvailable cannot be read, nothing is refused
    monkeypatch.setattr(T, "_mem_available", lambda: None)
    with pytest.raises(Allocated):
        T.make_model_problem(T.SolverConfig(N=8))


def test_model_rejects_large_eps():
    with pytest.raises(F.PositivityError):
        T.make_model_problem(T.SolverConfig(N=N, eps=0.9, seed=7))


# ----------------------------------------------------------------------
# iteration and solve
# ----------------------------------------------------------------------

def test_literal_first_step_is_inverse_laplacian_of_delta_psi():
    ops = T.derivative_ops(N)
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=9)
    phi, psi, _ = T.make_model_problem(cfg)
    eta1 = T.picard_step(phi, psi, T.GridField.zero(2, N),
                         scheme="joyce-literal")
    direct = ops.inv_laplacian(ops.delta(psi), project=True)
    assert (eta1 - ops.mean_zero(direct)).linf() < 1e-12


def test_zero_torsion_fixed_point():
    cfg = T.SolverConfig(N=N, eps=0.0, seed=10)
    phi, psi, _ = T.make_model_problem(cfg)
    for scheme in ("flat-split", "joyce-literal"):
        eta1 = T.picard_step(phi, psi, T.GridField.zero(2, N), scheme=scheme)
        assert eta1.linf() < 1e-12


def test_solve_converges_to_flat():
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=7, tol_residual=1e-9)
    eta, report = T.solve(cfg)
    assert report["iterations"] <= 50
    assert report["residual"] <= 1e-8
    assert report["distance_to_flat"] <= 1e-8
    assert report["zero_mode_gap"] < 1e-15
    assert all(q < 1.0 for q in report["contraction_factors"])


def test_contraction_scales_with_eps():
    # the contraction factor is O(eps): halving eps roughly halves it
    qs = {}
    for eps in (1e-2, 5e-3):
        cfg = T.SolverConfig(N=N, eps=eps, seed=7, tol_residual=1e-11)
        _, report = T.solve(cfg)
        qs[eps] = report["contraction_factors"][0]
    ratio = qs[5e-3] / qs[1e-2]
    assert 0.3 <= ratio <= 0.7


def test_curved_mode_converges_to_gauge_floor():
    # the fallback mode reaches a torsion residual of order eps^3 (the
    # gauge seed is first order); the default mode is the exact one
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=7, tol_residual=1e-9,
                         operator_mode="curved-cg")
    eta, report = T.solve(cfg)
    assert report["residual"] <= 3e-6
    assert report["distance_to_flat"] <= 1e-6


def test_residual_operation():
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=13)
    phi, _, _ = T.make_model_problem(cfg)
    flat = T.GridField.constant(F.phi0(), N)
    assert T.residual(flat) < 1e-12
    r = T.residual(phi)
    assert 1e-4 < r < 1.0      # O(eps), nonzero


def test_literal_scheme_stalls_above_quadratic_floor():
    # the textbook display converges, but its fixed point keeps an
    # O(eps^2) torsion remainder; this pins why solve() rearranges
    ops = T.derivative_ops(N)
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=7)
    phi, psi, _ = T.make_model_problem(cfg)
    eta = T.GridField.zero(2, N)
    for _ in range(12):
        new = T.picard_step(phi, psi, eta, scheme="joyce-literal")
        if (new - eta).linf() < 1e-12:
            eta = new
            break
        eta = new
    res = T.residual(phi + ops.d(eta))
    assert res > 1e-6          # stuck near eps^2, far above solver tol


# ----------------------------------------------------------------------
# binary dump
# ----------------------------------------------------------------------

def test_field_dump_round_trip(tmp_path):
    f = random_field(3, seed=21, mean_zero=False)
    path = tmp_path / "field.bin"
    T.save_field(str(path), f)
    g = T.load_field(str(path))
    assert g.N == N and g.degree == 3
    assert np.abs(g.coeffs - f.coeffs).max() == 0.0
