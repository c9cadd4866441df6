"""Tests for the spectral operators and the flat-torus existence iteration.

Unit tests run at N = 4 to stay fast; the N = 6 run of the acceptance
criterion lives in test_acceptance.py.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from g2glue import cli
from g2glue import forms as F
from g2glue import kummer as KM
from g2glue import torus as T
from g2glue.forms import index_position
from test_forms import richardson_split


RNG = np.random.default_rng(99)
N = 4


def random_field(degree, seed=0, mean_zero=True):
    """A random real field on the N^7 grid, as its half spectrum."""
    rng = np.random.default_rng(seed)
    nc = len(F.index_list(7, degree))
    f = T.to_spectral(F.Form(7, degree, rng.normal(size=(nc,) + (N,) * 7)))
    return T.derivative_ops(N).mean_zero(f) if mean_zero else f


def linf(field):
    """Largest absolute grid value of a field's grid values."""
    return np.abs(field.coeffs).max()


def grid_mean(field):
    """Grid average of each component (the constant Fourier mode)."""
    return field.coeffs.mean(axis=tuple(range(1, 8)))


# ----------------------------------------------------------------------
# spectral plumbing
# ----------------------------------------------------------------------

def test_spectral_round_trip():
    f = random_field(2, seed=1, mean_zero=False).to_grid()
    spec = T.to_spectral(f).spec
    back = np.fft.irfftn(spec, s=(N,) * 7, axes=tuple(range(1, 8)))
    assert np.abs(back - f.coeffs).max() < 1e-12
    ref = np.fft.rfftn(f.coeffs, axes=tuple(range(1, 8)))
    assert np.abs(spec - ref).max() < 1e-12 * np.abs(ref).max()


def test_hermitian_is_the_spectrum_of_the_grid_values():
    # d breaks the conjugate symmetry of a real field's half spectrum at
    # the Nyquist modes; _keep_hermitian_part restores what irfftn reads
    ops = T.derivative_ops(N)
    df = ops.d(random_field(2, seed=3, mean_zero=False))
    ref = np.fft.rfftn(np.fft.irfftn(df.spec, s=(N,) * 7,
                                     axes=tuple(range(1, 8))),
                       axes=tuple(range(1, 8)))
    scale = np.abs(ref).max()
    assert np.abs(df.spec - ref).max() > 1e-3 * scale      # not vacuous
    kept = df.spec.copy()
    T._keep_hermitian_part(kept, N)
    assert np.abs(kept - ref).max() < 1e-12 * scale


def test_parseval():
    f = random_field(0, seed=2, mean_zero=False).to_grid()
    spec = T.to_spectral(f).spec
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
        assert linf(ops.d(ops.d(f)).to_grid()) < 1e-11


def test_adjointness():
    ops = T.derivative_ops(N)
    a = random_field(2, seed=3)
    b = random_field(3, seed=4)
    lhs = (ops.d(a).to_grid().coeffs * b.to_grid().coeffs).sum(axis=0).mean()
    rhs = (a.to_grid().coeffs * ops.delta(b).to_grid().coeffs).sum(
        axis=0).mean()
    assert abs(lhs - rhs) < 1e-10 * (abs(lhs) + 1.0)


def test_laplacian_symbol():
    ops = T.derivative_ops(N)
    x = np.arange(N) / N
    grids = np.meshgrid(*[x] * 7, indexing="ij")
    f = F.Form(7, 2, np.zeros((21,) + (N,) * 7))
    pos = index_position(7, 2)[(1, 2)]
    f.coeffs[pos] = np.sin(2 * np.pi * grids[0])
    lap = ops.laplacian(T.to_spectral(f)).to_grid()
    assert np.abs(lap.coeffs[pos] - 4 * np.pi ** 2 * f.coeffs[pos]).max() < 1e-10


def test_inv_laplacian_inverts_mean_zero():
    ops = T.derivative_ops(N)
    f = random_field(2, seed=5)
    assert linf((ops.inv_laplacian(ops.laplacian(f)) - f).to_grid()) < 1e-10


def test_inv_laplacian_output_has_mean_zero():
    ops = T.derivative_ops(N)
    f = random_field(2, seed=6, mean_zero=False)
    out = ops.inv_laplacian(f)
    assert np.abs(grid_mean(out.to_grid())).max() < 1e-13


def test_iteration_preserves_mean_zero():
    cfg = T.SolverConfig(N=N, eps=5e-3, seed=11)
    _, _, sigma = T.make_model_problem(cfg)
    eta = T.picard_step(cfg.eps * sigma, T.SpectralField.zero(2, N))
    assert np.abs(grid_mean(eta.to_grid())).max() < 1e-13


# ----------------------------------------------------------------------
# the group Gamma' and the orbit reduction
# ----------------------------------------------------------------------

def test_gamma_prime_is_gamma_conjugated_by_L():
    # element by element, Gamma' reads Gamma's signs and shifts through
    # L_PERM; its linear parts fix phi0, and Gamma's own do not all
    signs, halves = T._gamma_prime()
    elements = KM.gamma_elements()
    assert signs.shape == halves.shape == (len(elements), 7)
    for el, s, h in zip(elements, signs, halves):
        assert tuple(s) == tuple(el.signs[j] for j in KM.L_PERM)
        assert tuple(h) == tuple(2 * el.shift[j] for j in KM.L_PERM)
    assert np.all(signs[0] == 1) and np.all(halves[0] == 0)
    p0 = F.phi0().coeffs
    for s in signs:
        assert np.array_equal(F.pullback(np.diag(s), F.phi0()).coeffs, p0)
    assert not all(np.array_equal(
        F.pullback(np.diag(el.signs), F.phi0()).coeffs, p0)
        for el in elements)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_component_signs_are_the_pullback(degree):
    nc = len(F.index_list(7, degree))
    eye = F.Form(7, degree, np.eye(nc))
    for s, eps in zip(T._gamma_prime()[0], T._component_signs(degree)):
        assert np.array_equal(F.pullback(np.diag(s), eye).coeffs,
                              np.diag(eps))


@pytest.mark.parametrize("n, orbits", [(4, 2432), (6, 35424)])
def test_orbit_count_is_the_burnside_count(n, orbits):
    # Burnside: the number of orbits is the mean number of grid points an
    # element fixes.  Along an axis, k = s k + h n/2 mod n has n solutions
    # for (s, h) = (1, 0), none for (1, 1), and for s = -1 the two
    # solutions of 2k = h n/2 mod n, or none where h n/2 is odd
    fixed = 0
    for el in KM.gamma_elements():
        per_axis = []
        for s, a in zip(el.signs, el.shift):
            h = int(2 * a)
            if s == 1:
                per_axis.append(n if h == 0 else 0)
            else:
                per_axis.append(2 if h * n // 2 % 2 == 0 else 0)
        fixed += int(np.prod(per_axis))
    assert fixed % 8 == 0 and fixed // 8 == orbits
    images = T._orbit_tables(n)
    assert images.shape == (8, orbits)
    # the images of the representatives are the whole grid
    assert np.array_equal(np.unique(images), np.arange(n ** 7))


def test_theta_is_gamma_prime_equivariant():
    # Theta(g* phi) = g* Theta(phi) for each g in Gamma': 3-form component
    # signs in, 4-form component signs out, at random positive points
    rng = np.random.default_rng(17)
    phi = F.Form(7, 3, F.phi0().coeffs[:, None]
                 + 0.1 * rng.normal(size=(35, 200)))
    th = F.theta(phi).coeffs
    e3, e4 = T._component_signs(3), T._component_signs(4)
    for s3, s4 in zip(e3, e4):
        got = F.theta(F.Form(7, 3, s3[:, None] * phi.coeffs)).coeffs
        assert np.abs(got - s4[:, None] * th).max() <= 1e-14 * np.abs(th).max()


def full_grid_F(chi):
    """F0(chi) = *0 phi0 - T0 chi - Theta(phi0 + chi) at every point."""
    c = chi.coeffs.reshape(35, -1)
    return (F.star_phi0().coeffs[:, None] - T.flat_t_matrix() @ c
            - F.theta(F.Form(7, 3, F.phi0().coeffs[:, None] + c)).coeffs)


def test_orbit_reduced_F_matches_the_full_grid():
    # on the invariant chi of the model, F0 at one point per orbit,
    # scattered with signs, is F0 at every point to rounding: F0 is a
    # difference of terms of size 1, so its rounding is absolute
    cfg = T.SolverConfig(N=N, eps=0.1, seed=7)
    chi = cfg.eps * T._model_sigma(cfg)[1]
    assert T._invariance_defect(chi) <= 1e-14
    full = full_grid_F(chi)
    got = T._flat_split_F(F.Form(7, 3, chi.coeffs.copy())).coeffs
    assert np.abs(full).max() > 1e-3
    assert np.abs(got.reshape(35, -1) - full).max() <= 1e-14
    # not vacuous: on a chi that Gamma' does not fix, the two differ
    rng = np.random.default_rng(3)
    chi = F.Form(7, 3, 0.01 * rng.normal(size=(35,) + (N,) * 7))
    full = full_grid_F(chi)
    got = T._flat_split_F(F.Form(7, 3, chi.coeffs.copy())).coeffs
    assert np.abs(got.reshape(35, -1) - full).max() > 1e-3 * \
        np.abs(full).max()


def test_model_is_gamma_prime_invariant():
    # the averaged draw makes sigma, d sigma and phi invariant; the draw
    # itself is not
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=7)
    sigma, dsig = T._model_sigma(cfg)
    assert T._invariance_defect(sigma.to_grid()) <= 1e-14
    assert T._invariance_defect(dsig) <= 1e-14
    raw = F.Form(7, 2, np.random.default_rng(cfg.seed).normal(
        size=(21,) + (N,) * 7))
    assert T._invariance_defect(raw) > 0.5
    T._gamma_average(raw)
    assert T._invariance_defect(raw) <= 1e-15


def only_in_the_average(monkeypatch, name, mutated):
    """Patch the torus helper `name` with `mutated` while _model_sigma runs
    (the averaging is its one reader there), and nowhere else."""
    model_sigma, original = T._model_sigma, getattr(T, name)

    def patched(cfg):
        monkeypatch.setattr(T, name, mutated)
        try:
            return model_sigma(cfg)
        finally:
            monkeypatch.setattr(T, name, original)

    monkeypatch.setattr(T, "_model_sigma", patched)


GAMMA_PRIME, COMPONENT_SIGNS = T._gamma_prime, T._component_signs


def shifts_read_as_zero():
    signs, halves = GAMMA_PRIME()
    return signs, np.zeros_like(halves)


def one_component_sign_dropped(degree):
    eps = COMPONENT_SIGNS(degree).copy()
    g, i = np.argwhere(eps < 0)[0]
    eps[g, i] = 1
    return eps


@pytest.mark.parametrize("name, mutated", [
    ("_gamma_prime", shifts_read_as_zero),
    ("_component_signs", one_component_sign_dropped)])
def test_a_broken_average_fails_the_torus_checks(monkeypatch, name,
                                                 mutated):
    # the solve returns to phi0 from a model Gamma' does not fix (its
    # fixed point does not depend on how well F is taken), so the
    # invariance check is the one that sees a broken average
    checks, _ = cli.suite_torus_solve(N, 1e-2, 7, 1e-8, 50)
    assert all(c["status"] != "fail" for c in checks)
    only_in_the_average(monkeypatch, name, mutated)
    checks, _ = cli.suite_torus_solve(N, 1e-2, 7, 1e-8, 50)
    failed = {c["name"] for c in checks if c["status"] == "fail"}
    assert failed & {"gamma-invariance", "torsion-residual"}


# ----------------------------------------------------------------------
# the exact flat linearization
# ----------------------------------------------------------------------

def test_flat_t_matrix_matches_finite_differences():
    T0 = T.flat_t_matrix()
    rng = np.random.default_rng(12)
    for _ in range(3):
        chi = F.Form(7, 3, rng.normal(size=(35,)))
        chi = (0.3 / np.sqrt((chi.coeffs ** 2).sum())) * chi
        T_fd, _ = richardson_split(F.phi0(), chi)
        assert np.abs(T0 @ chi.coeffs - T_fd.coeffs).max() < 1e-10


def test_flat_p_matrix_matches_the_rational_projectors():
    # P0 assembled from the exact projectors at phi0: pi_1 = phi0 phi0^T / 7
    # and pi_7 = sum_i q_i q_i^T / 4 with q_i = *0(e^i ^ phi0)
    p0 = F.phi0().coeffs
    flat = F.Metric.euclidean(7)
    q = [F.hodge_star(flat, F.wedge(F.Form.basis(7, (i,)), F.phi0())).coeffs
         for i in range(7)]
    pi7 = sum(np.outer(v, v) for v in q) / 4.0
    ref = (7.0 / 3.0) * np.outer(p0, p0) / 7.0 + 2.0 * pi7 - np.eye(35)
    assert np.abs(T.flat_p_matrix() - ref).max() <= 1e-14


def test_star0_is_the_euclidean_star():
    # the spectral _star0 is the Euclidean hodge_star, component by
    # component
    rng = np.random.default_rng(4)
    for p in range(8):
        nc = len(F.index_list(7, p))
        star = F.hodge_star(F.Metric.euclidean(7), F.Form(7, p, np.eye(nc)))
        spec = (rng.normal(size=(nc,) + (4,) * 6 + (3,))
                + 1j * rng.normal(size=(nc,) + (4,) * 6 + (3,)))
        got = T._star0(T.SpectralField(p, spec, 4))
        assert got.degree == 7 - p
        assert np.array_equal(got.spec,
                              np.tensordot(star.coeffs, spec, axes=1))


def test_cached_flat_matrices_are_read_only():
    # one cached array serves every caller, so a write must fail instead
    # of changing P0 for the rest of the process
    P0 = T.flat_p_matrix().copy()
    with pytest.raises(ValueError):
        T.flat_p_matrix()[0, 0] = 1.0
    with pytest.raises(ValueError):
        T.flat_t_matrix()[:] *= 2.0
    assert np.array_equal(T.flat_p_matrix(), P0)


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
    for a, pi, po, sign in F._wedge_table(7, 1, 2):
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
    return T._apply_symbol_pinv(N, T.SpectralField(2, spec, N)).spec


def random_spectrum(seed):
    return random_field(2, seed=seed, mean_zero=False).spec


def test_pinv_matches_per_mode_pinv():
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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-6.0, 6.0), min_size=7, max_size=7))
@example([0.0] * 6 + [4.59e-80])
def test_symbol_squares_to_minus_laplacian_times_symbol(m):
    # P0 has spectrum {4/3, 1, -1}, so A(m)^2 = -4 pi^2 |m|^2 A(m) for
    # every real m, not only lattice modes.  A is homogeneous of degree 2,
    # so the identity is checked at m / |m|: a bound scaled by |m|^4
    # underflows to 0 for |m| below about 1e-75
    m = np.asarray(m)
    top = np.abs(m).max()
    if top > 0.0:
        m = m / top                     # so that |m| cannot underflow
        m = m / np.linalg.norm(m)
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
    assert linf(psi) < 1e-13
    assert linf(phi - T.constant(F.phi0(), N)) < 1e-14


def test_model_closed_and_normalized():
    ops = T.derivative_ops(N)
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=8)
    phi, psi, sigma = T.make_model_problem(cfg)
    assert linf(ops.d(T.to_spectral(phi)).to_grid()) < 1e-11
    assert np.isclose(linf(phi - T.constant(F.phi0(), N)),
                      cfg.eps, rtol=1e-10)


def test_model_psi_scales_linearly():
    ratios = []
    for seed in (1, 2, 3):
        cfg = T.SolverConfig(N=N, eps=1e-2, seed=seed)
        _, psi, _ = T.make_model_problem(cfg)
        ratios.append(linf(psi) / cfg.eps)
    assert max(ratios) / min(ratios) < 2.0


class Allocated(Exception):
    pass


def test_grid_refused_before_allocation(monkeypatch):
    # derivative_ops is the first step of make_model_problem that
    # allocates grid arrays; a refused grid must never reach it.  The
    # available memory lies between the N = 6 and N = 8 estimates
    avail = 2 * 2 ** 30
    assert T._PEAK_BYTES_PER_POINT * 6 ** 7 < avail
    assert T._PEAK_BYTES_PER_POINT * 8 ** 7 > avail

    def reached(N):
        raise Allocated(N)
    monkeypatch.setattr(T, "derivative_ops", reached)
    monkeypatch.setattr(T, "_mem_available", lambda: avail)
    with pytest.raises(T.GridTooLargeError, match="N = 8"):
        T.make_model_problem(T.SolverConfig(N=8))
    with pytest.raises(Allocated):
        T.make_model_problem(T.SolverConfig(N=6))
    # where MemAvailable cannot be read, nothing is refused
    monkeypatch.setattr(T, "_mem_available", lambda: None)
    with pytest.raises(Allocated):
        T.make_model_problem(T.SolverConfig(N=8))


def traced_peak(call):
    """call()'s result and the tracemalloc peak of its allocations."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_memory_budget():
    # tracemalloc counts every numpy allocation, the same on every run:
    # the peak of an N = 4 solve stays under 2 KB per grid point, and
    # under the per-point estimate that refuses grids, which is thereby
    # tied to a measurement; so does the public model problem with psi
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=7)
    (_, report), peak = traced_peak(lambda: T.solve(cfg))
    assert report["residual"] <= 1e-8
    assert peak / N ** 7 <= 2048
    assert peak / N ** 7 <= T._PEAK_BYTES_PER_POINT
    _, peak = traced_peak(lambda: T.make_model_problem(cfg))
    assert peak / N ** 7 <= T._PEAK_BYTES_PER_POINT


def test_model_potential_is_eps_sigma():
    # the iteration takes the model potential as eps sigma instead of
    # recomputing delta Lap^-1 (phi - phi0) at every step
    ops = T.derivative_ops(N)
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=7)
    phi, _, sigma = T.make_model_problem(cfg)
    w3 = T.to_spectral(phi - T.constant(F.phi0(), N))
    pot = ops.delta(ops.inv_laplacian(w3)).to_grid()
    expect = (cfg.eps * sigma).to_grid()
    assert linf(pot - expect) <= 1e-14 * linf(expect)


# the Gamma'-invariant model of seed 7 at N = 4 stays in the G2 cone at
# eps = 0.9 and leaves it at 1.0 (measured); 1.5 is refused
REFUSED_EPS = 1.5


def test_model_rejects_large_eps():
    with pytest.raises(F.PositivityError, match="eps too large"):
        T.make_model_problem(T.SolverConfig(N=N, eps=REFUSED_EPS, seed=7))


def test_solve_rejects_large_eps():
    # the flat solve's first Theta is the gate: its PositivityError is the
    # model problem's, not a RuntimeError of iterate 0
    with pytest.raises(F.PositivityError, match="eps too large"):
        T.solve(T.SolverConfig(N=N, eps=REFUSED_EPS, seed=7))
    # the solver has one scheme: operator_mode takes no other value
    with pytest.raises(ValueError, match="unknown operator mode"):
        T.SolverConfig(N=N, operator_mode="curved-cg")


def test_one_metric_elimination_per_iterate(monkeypatch):
    # one metric is eliminated per Gamma'-orbit and iterate, and one per
    # point for the reported residual: a flat solve of 3 steps takes
    # 3 n_orbits + N^7 points (4 N^7 with a Theta at every point of each
    # step), the model problem takes N^7 (psi's metric is phi's gate)
    points = []
    metric_from_g2 = F.metric_from_g2

    def counted(phi):
        points.append(int(np.prod(phi.batch_shape)))
        return metric_from_g2(phi)

    monkeypatch.setattr(F, "metric_from_g2", counted)
    monkeypatch.setattr(T, "metric_from_g2", counted)
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=7)
    _, report = T.solve(cfg)
    assert len(report["step_sizes"]) == 3
    assert sum(points) == 3 * T._orbit_tables(N).shape[1] + N ** 7
    points.clear()
    T.make_model_problem(cfg)
    assert sum(points) == N ** 7


# ----------------------------------------------------------------------
# iteration and solve
# ----------------------------------------------------------------------

def test_zero_torsion_fixed_point():
    cfg = T.SolverConfig(N=N, eps=0.0, seed=10)
    _, _, sigma = T.make_model_problem(cfg)
    eta1 = T.picard_step(cfg.eps * sigma, T.SpectralField.zero(2, N))
    assert linf(eta1.to_grid()) < 1e-12


def test_solve_converges_to_flat():
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=7, tol_residual=1e-9)
    eta, report = T.solve(cfg)
    assert report["iterations"] <= 50
    assert report["residual"] <= 1e-8
    assert report["distance_to_flat"] <= 1e-8
    assert report["zero_mode_gap"] < 1e-15
    assert report["invariance_defect"] <= 1e-12
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


def test_residual_operation():
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=13)
    phi, _, _ = T.make_model_problem(cfg)
    flat = T.constant(F.phi0(), N)
    assert T.residual(flat) < 1e-12
    r = T.residual(phi)
    assert 1e-4 < r < 1.0      # O(eps), nonzero


def count_transforms(monkeypatch) -> dict:
    """Count component transforms through the two FFT helpers."""
    counts = {"forward": 0, "inverse": 0}

    def counted(kind, transform):
        def wrapper(arr, *args):
            counts[kind] += arr.shape[0]
            return transform(arr, *args)
        return wrapper

    monkeypatch.setattr(T, "_rfft", counted("forward", T._rfft))
    monkeypatch.setattr(T, "_irfft", counted("inverse", T._irfft))
    return counts


def test_flat_split_step_transform_budget(monkeypatch):
    # a step transforms only what the pointwise split reads: chi to the
    # grid and *0 F back (about 260 component transforms when every
    # operator result went back to the grid)
    cfg = T.SolverConfig(N=N, eps=1e-2, seed=7)
    _, _, sigma = T.make_model_problem(cfg)
    pot = cfg.eps * sigma
    eta = T.picard_step(pot, T.SpectralField.zero(2, N))
    counts = count_transforms(monkeypatch)
    T.picard_step(pot, eta)
    assert counts["forward"] > 0 and counts["inverse"] > 0
    assert counts["forward"] + counts["inverse"] <= 112


def test_solve_transform_budget(monkeypatch):
    # 1218 component transforms per N = 4 solve when every operator
    # result went back to the grid, 511 while the reported residual also
    # took ||d phi~|| of the closed phi~
    counts = count_transforms(monkeypatch)
    _, report = T.solve(T.SolverConfig(N=N, eps=1e-2, seed=7))
    assert report["residual"] <= 1e-8
    assert counts["forward"] + counts["inverse"] <= 450


# ----------------------------------------------------------------------
# binary dump
# ----------------------------------------------------------------------

def test_field_dump_round_trip(tmp_path):
    f = random_field(3, seed=21, mean_zero=False).to_grid()
    path = tmp_path / "field.bin"
    T.save_field(str(path), f)
    g = T.load_field(str(path))
    assert g.coeffs.shape[1:] == (N,) * 7 and g.degree == 3
    assert np.abs(g.coeffs - f.coeffs).max() == 0.0
