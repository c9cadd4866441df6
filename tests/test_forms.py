"""Tests for the exterior algebra and the G2 nonlinear maps."""

import json
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2glue import forms as F
from g2glue.forms import Form, Metric, Vector


RNG = np.random.default_rng(20240811)


def random_form(dim, degree, scale=1.0):
    n = len(F.index_list(dim, degree))
    return Form(dim, degree, scale * RNG.normal(size=(n,)))


def random_spd_metric(dim):
    A = RNG.normal(size=(dim, dim))
    return Metric(dim, A @ A.T + dim * np.eye(dim))


# ----------------------------------------------------------------------
# full-tensor reference, independent of the sorted-slot kernel in forms
# ----------------------------------------------------------------------

def perm_sign(seq):
    seq = list(seq)
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def full_tensor(coeffs, n, p):
    """The antisymmetric n^p array with a_{sigma(I)} = sign(sigma) a_I."""
    T = np.zeros((n,) * p)
    for a, I in zip(coeffs, combinations(range(n), p)):
        for perm in permutations(range(p)):
            T[tuple(I[k] for k in perm)] = perm_sign(perm) * a
    return T


def contract_all(M, T):
    """M[i1,k1] .. M[ip,kp] T[k1..kp], one index at a time with einsum."""
    for axis in range(T.ndim):
        T = np.moveaxis(T, axis, 0)
        T = np.moveaxis(np.einsum("ik,k...->i...", M, T), 0, axis)
    return T


def ref_inner(g, a, b, n, p):
    """<a, b>_g = A_{i..} B_{j..} g^{ij} .. / p! at one point."""
    raised = contract_all(np.linalg.inv(g), full_tensor(b, n, p))
    return float(np.sum(full_tensor(a, n, p) * raised)) / factorial(p)


def ref_star(g, b, n, p):
    """(*b)_J = sign(I, J) sqrt(det g) B^I with I the complement of J."""
    raised = contract_all(np.linalg.inv(g), full_tensor(b, n, p))
    out = []
    for J in combinations(range(n), n - p):
        I = tuple(i for i in range(n) if i not in J)
        out.append(perm_sign(I + J) * np.sqrt(np.linalg.det(g)) * raised[I])
    return np.array(out)


def ref_pullback(A, a, n, p):
    pulled = contract_all(A.T, full_tensor(a, n, p))
    return np.array([pulled[I] for I in combinations(range(n), p)])


# ----------------------------------------------------------------------
# wedge
# ----------------------------------------------------------------------

def test_wedge_basis():
    dx1, dx2 = Form.basis(7, (0,)), Form.basis(7, (1,))
    w = F.wedge(dx1, dx2)
    assert w.get((0, 1)) == 1.0
    assert F.wedge(dx2, dx1).get((0, 1)) == -1.0


def test_wedge_graded_commutative():
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        a, b = random_form(7, p), random_form(7, q)
        ab = F.wedge(a, b)
        ba = F.wedge(b, a)
        sign = (-1) ** (p * q)
        assert np.allclose(ab.coeffs, sign * ba.coeffs, atol=1e-13)


def test_wedge_associative_bilinear():
    a, b, c = random_form(7, 1), random_form(7, 2), random_form(7, 2)
    lhs = F.wedge(F.wedge(a, b), c)
    rhs = F.wedge(a, F.wedge(b, c))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)
    lin = F.wedge(a, b + 2.0 * c)
    assert np.allclose(lin.coeffs, (F.wedge(a, b) + 2.0 * F.wedge(a, c)).coeffs,
                       atol=1e-13)


def test_wedge_odd_square_zero():
    for p in (1, 3):
        a = random_form(7, p)
        assert np.abs(F.wedge(a, a).coeffs).max() < 1e-14


def test_wedge_errors():
    with pytest.raises(ValueError):
        F.wedge(random_form(6, 1), random_form(7, 1))
    with pytest.raises(ValueError):
        F.wedge(random_form(7, 4), random_form(7, 4))


def test_phi0_wedge_star_phi0_is_seven_vol():
    # oracle: the full term-by-term expansion *is* the wedge table;
    # <phi0,phi0> = 7 comes from the 7 unit coefficients
    w = F.wedge(F.phi0(), F.star_phi0())
    assert np.allclose(w.coeffs, [7.0], atol=1e-13)


# ----------------------------------------------------------------------
# coefficient access / serialization
# ----------------------------------------------------------------------

def test_signed_unsorted_access():
    a = Form.from_dict(7, 2, {(2, 0): 3.0})
    assert a.get((0, 2)) == -3.0
    assert a.get((2, 0)) == 3.0
    assert a.get((1, 1)) == 0.0


def test_json_round_trip():
    a = random_form(7, 3)
    data = json.loads(json.dumps(a.to_dict()))
    entries = {tuple(int(ch) - 1 for ch in key): val
               for key, val in data["coeffs"].items()}
    b = Form.from_dict(data["dim"], data["degree"], entries)
    assert np.array_equal(a.coeffs, b.coeffs)


# ----------------------------------------------------------------------
# hodge star
# ----------------------------------------------------------------------

def test_star_orthonormal_basis():
    s = F.hodge_star(Metric.euclidean(7), Form.basis(7, (0, 1, 2)))
    assert s.to_dict()["coeffs"] == {"4567": 1.0}


def test_star_star_identity_all_degrees():
    g = random_spd_metric(7)
    for p in range(8):
        a = random_form(7, p)
        ss = F.hodge_star(g, F.hodge_star(g, a))
        assert np.abs(ss.coeffs - a.coeffs).max() < 1e-12


def test_star_inner_product_compatibility():
    # inner_product and a ^ *a both checked against the full-tensor
    # contraction, which shares no code with forms
    g = random_spd_metric(7)
    for p in (1, 2, 3, 4, 5):
        a, b = random_form(7, p), random_form(7, p)
        expected = ref_inner(g.entries, a.coeffs, b.coeffs, 7, p)
        assert np.isclose(F.inner_product(g, a, b), expected, rtol=1e-11)
        pairing = F.wedge(a, F.hodge_star(g, b)).coeffs[0]
        sqrt_det = np.sqrt(np.linalg.det(g.entries))
        assert np.isclose(pairing, expected * sqrt_det, rtol=1e-11)


def test_star_conformal_scaling():
    c = 1.37
    s = F.hodge_star(Metric(7, c**2 * np.eye(7)), Form.basis(7, (0, 1, 2)))
    # *_{c^2 g} = c^{n-2p} *_g on p-forms: n=7, p=3 gives one factor of c
    assert np.isclose(s.get((3, 4, 5, 6)), c, rtol=1e-13)


def test_star_rejects_non_spd():
    with pytest.raises(F.PositivityError):
        Metric(7, -np.eye(7))


def test_star_product_g2_structure():
    # the product split of the flat 3-form: R^3 x H coordinates
    # (x1,x2,x3 | y0..y3) with the standard symplectic triple on H
    om = [Form.from_dict(7, 2, {(3, 4): 1.0, (5, 6): 1.0}),
          Form.from_dict(7, 2, {(3, 5): 1.0, (6, 4): 1.0}),
          Form.from_dict(7, 2, {(3, 6): 1.0, (4, 5): 1.0})]
    dx = [Form.basis(7, (i,)) for i in range(3)]
    prod = F.wedge(F.wedge(dx[0], dx[1]), dx[2])
    for i in range(3):
        prod = prod - F.wedge(dx[i], om[i])
    dual = F.theta(prod)
    vol_h = Form.basis(7, (3, 4, 5, 6))
    expect = vol_h
    pairs = [(1, 2), (2, 0), (0, 1)]
    for i, (j, k) in enumerate(pairs):
        expect = expect - F.wedge(om[i], F.wedge(dx[j], dx[k]))
    assert np.abs(dual.coeffs - expect.coeffs).max() < 1e-12


# ----------------------------------------------------------------------
# properties over random SPD metrics; the batch shapes (257,) and (3, 100)
# span more than one block of the kernel, with a ragged last block
# ----------------------------------------------------------------------

DEGREES = [(n, p) for n in (4, 7) for p in range(n + 1)]
BATCHES = [(), (257,), (3, 100)]
# points checked against the full-tensor reference: both sides of the
# first block edge and the last point
SAMPLED = (0, 255, 256, -1)
PROPERTY = settings(max_examples=4, deadline=None)


def random_batch(rng, n, p, batch, shift):
    A = rng.normal(size=batch + (n, n))
    g = A @ np.swapaxes(A, -1, -2) + shift * np.eye(n)
    coeffs = rng.normal(size=(len(F.index_list(n, p)),) + batch)
    return Metric(n, g), Form(n, p, coeffs)


def sampled(batch):
    npts = int(np.prod(batch, dtype=int))
    return sorted({k % npts for k in SAMPLED})


@pytest.mark.parametrize("n,p", DEGREES)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.2, 5.0))
def test_star_matches_full_tensor_reference(n, p, seed, shift):
    rng = np.random.default_rng(seed)
    for batch in BATCHES:
        g, b = random_batch(rng, n, p, batch, shift)
        got = F.hodge_star(g, b).coeffs
        got = got.reshape(got.shape[0], -1)
        mets = g.entries.reshape(-1, n, n)
        pts = b.coeffs.reshape(len(b.indices), -1)
        for k in sampled(batch):
            ref = ref_star(mets[k], pts[:, k], n, p)
            assert np.abs(got[:, k] - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("n,p", DEGREES)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.2, 5.0))
def test_star_star_sign(n, p, seed, shift):
    rng = np.random.default_rng(seed)
    for batch in BATCHES:
        g, a = random_batch(rng, n, p, batch, shift)
        ss = F.hodge_star(g, F.hodge_star(g, a)).coeffs
        sign = (-1) ** (p * (n - p))
        err = np.abs(ss - sign * a.coeffs).max()
        assert err <= 1e-10 * np.abs(a.coeffs).max()


@pytest.mark.parametrize("n,p", DEGREES)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_pullback_composition(n, p, seed):
    # (AB)^* = B^* A^*, and A^* against the full-tensor reference
    rng = np.random.default_rng(seed)
    for batch in BATCHES:
        A = rng.normal(size=batch + (n, n))
        B = rng.normal(size=batch + (n, n))
        a = Form(n, p, rng.normal(size=(len(F.index_list(n, p)),) + batch))
        lhs = F.pullback(A @ B, a).coeffs
        rhs = F.pullback(B, F.pullback(A, a)).coeffs
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), 1.0)
        got = F.pullback(A, a).coeffs.reshape(len(a.indices), -1)
        mats = A.reshape(-1, n, n)
        pts = a.coeffs.reshape(len(a.indices), -1)
        for k in sampled(batch):
            ref = ref_pullback(mats[k], pts[:, k], n, p)
            assert np.abs(got[:, k] - ref).max() <= 1e-10 * max(
                np.abs(ref).max(), 1.0)


def test_inner_product_broadcasts_one_metric_over_a_batch():
    g = random_spd_metric(7)
    a = Form(7, 3, RNG.normal(size=(35, 4)))
    b = Form(7, 3, RNG.normal(size=(35, 4)))
    got = F.inner_product(g, a, b)
    for k in range(4):
        assert np.isclose(got[k], ref_inner(g.entries, a.coeffs[:, k],
                                            b.coeffs[:, k], 7, 3), rtol=1e-11)


# ----------------------------------------------------------------------
# interior product
# ----------------------------------------------------------------------

def test_interior_basics():
    e1, e2 = Vector.basis(7, 0), Vector.basis(7, 1)
    dx12 = Form.basis(7, (0, 1))
    assert F.interior_product(e1, dx12).get((1,)) == 1.0
    assert F.interior_product(e2, dx12).get((0,)) == -1.0


def test_interior_phi0():
    got = F.interior_product(Vector.basis(7, 0), F.phi0())
    assert got.to_dict()["coeffs"] == {"23": 1.0, "45": 1.0, "67": 1.0}


def test_interior_antiderivation_and_nilpotent():
    v = Vector(7, RNG.normal(size=7))
    a, b = random_form(7, 2), random_form(7, 3)
    lhs = F.interior_product(v, F.wedge(a, b))
    rhs = (F.wedge(F.interior_product(v, a), b)
           + F.wedge(a, F.interior_product(v, b)))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-12
    vv = F.interior_product(v, F.interior_product(v, b))
    assert np.abs(vv.coeffs).max() < 1e-13


def test_interior_rejects_degree_zero():
    with pytest.raises(ValueError):
        F.interior_product(Vector.basis(7, 0), Form.zero(7, 0))


# ----------------------------------------------------------------------
# metric reconstruction
# ----------------------------------------------------------------------

def test_metric_from_phi0_is_euclidean():
    g, vol = F.metric_from_g2(F.phi0())
    assert np.abs(g.entries - np.eye(7)).max() < 1e-12
    assert np.isclose(vol, 1.0, atol=1e-12)


def test_metric_scaling_law():
    c = 2.3
    g, _ = F.metric_from_g2(c**3 * F.phi0())
    assert np.abs(g.entries - c**2 * np.eye(7)).max() < 1e-11


def test_metric_continuity_near_phi0():
    # finite-difference sensitivity oracle: measure the derivative along
    # chi and check the small perturbation lands within that bound
    chi = random_form(7, 3)
    chi = (1.0 / np.sqrt(F.inner_product(Metric.euclidean(7), chi, chi))) * chi
    h = 1e-6
    gp, _ = F.metric_from_g2(F.phi0() + h * chi)
    gm, _ = F.metric_from_g2(F.phi0() + (-h) * chi)
    slope = np.abs((gp.entries - gm.entries) / (2 * h)).max()
    g, _ = F.metric_from_g2(F.phi0() + 1e-3 * chi)
    assert np.abs(g.entries - np.eye(7)).max() <= 1.5 * slope * 1e-3 + 1e-8
    assert np.abs(g.entries - np.eye(7)).max() <= 1e-2


# every np.linalg routine that factors a matrix
LINALG_FACTORIZATIONS = ("cholesky", "det", "eig", "eigh", "eigvals",
                         "eigvalsh", "inv", "lstsq", "pinv", "qr", "slogdet",
                         "solve", "svd")


def dense_placement(n, p):
    """The complement placement of the Hodge star as a dense +-1 matrix
    Lambda^p -> Lambda^{n-p}, from the sign of sorting I + J: the
    reference of the gather forms._place."""
    pos_in = {I: k for k, I in enumerate(combinations(range(n), p))}
    out = list(combinations(range(n), n - p))
    P = np.zeros((len(out), len(pos_in)))
    for r, J in enumerate(out):
        I = tuple(sorted(set(range(n)) - set(J)))
        P[r, pos_in[I]] = F.sort_index(I + J)[0]
    return P


@pytest.mark.parametrize("n", range(1, 8))
def test_complement_gather_equals_the_dense_product(n):
    # a signed permutation as a gather gives the dense product's bits, on
    # real coefficients and on complex ones (half spectra)
    rng = np.random.default_rng(n)
    for p in range(n + 1):
        P = dense_placement(n, p)
        a = rng.normal(size=(P.shape[1], 3, 4))
        z = a + 1j * rng.normal(size=a.shape)
        assert np.array_equal(F._place(a, n, p), np.tensordot(P, a, axes=1))
        assert np.array_equal(F._place(z, n, p), np.tensordot(P, z, axes=1))


def test_theta_factors_each_metric_once(monkeypatch):
    # metric_from_g2's elimination of B is the only factorization: g
    # carries sqrt(det g) = vol and g^-1 from it, so neither the Metric
    # nor hodge_star, inner_product or cross_product factors g again, and
    # no np.linalg factorization runs.  theta runs in blocks, so count the
    # matrices eliminated, one per point, over a batch of several blocks
    npts = 2 * F._THETA_BLOCK + 300
    rng = np.random.default_rng(3)
    phi = F.pullback(random_gl_plus(rng, (npts,)), F.phi0())
    eliminated = []
    real_factor = F._spd_factor

    def counted_factor(M, *args):
        eliminated.append(int(np.prod(M.shape[:-2], dtype=np.int64)))
        return real_factor(M, *args)
    monkeypatch.setattr(F, "_spd_factor", counted_factor)
    lapack = dict.fromkeys(LINALG_FACTORIZATIONS, 0)
    for name in lapack:
        real = getattr(np.linalg, name)

        def counted(a, *args, _f=real, _n=name, **kw):
            lapack[_n] += 1
            return _f(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    g, vol = F.metric_from_g2(phi)
    assert sum(eliminated) == npts
    F.theta(phi)
    assert sum(eliminated) == 2 * npts
    F.inner_product(g, phi, phi)
    F.cross_product(phi, g, Vector.basis(7, 0), Vector.basis(7, 1))
    assert sum(eliminated) == 2 * npts
    assert lapack == dict.fromkeys(LINALG_FACTORIZATIONS, 0)
    monkeypatch.undo()
    assert g.sqrt_det is vol
    assert np.allclose(vol, np.sqrt(np.linalg.det(g.entries)), rtol=1e-12)
    # a user-built metric is still validated and eliminated
    assert np.allclose(Metric(7, g.entries).sqrt_det, vol, rtol=1e-12)
    user = random_spd_metric(7)
    assert np.isclose(user.sqrt_det, np.sqrt(np.linalg.det(user.entries)),
                      rtol=1e-12)


def test_metric_inverse_from_the_elimination():
    # g^-1 g = I at random positive phi, and a user-built Metric's stored
    # inverse is the same elimination's: it matches metric_from_g2's
    # 6^(2/9) det(B)^(1/9) B^-1 and an LU inverse
    rng = np.random.default_rng(29)
    phi = F.pullback(random_gl_plus(rng, (500,)), F.phi0())
    g, _ = F.metric_from_g2(phi)
    eye = np.broadcast_to(np.eye(7), (500, 7, 7))
    assert np.abs(g.inverse() @ g.entries - eye).max() <= 1e-13
    assert np.abs(g.entries @ g.inverse() - eye).max() <= 1e-13
    user = Metric(7, g.entries).inverse()
    lu = np.linalg.inv(g.entries)
    assert np.abs(user - g.inverse()).max() <= 1e-13 * np.abs(lu).max()
    assert np.abs(user - lu).max() <= 1e-13 * np.abs(lu).max()
    one = random_spd_metric(5)
    assert one.inverse().shape == (5, 5)
    assert np.allclose(one.inverse(), np.linalg.inv(one.entries), rtol=1e-13,
                       atol=1e-15)


def split_g2_form():
    """phi0 with the signs of its last two terms flipped: a 3-form in the
    open orbit of split G2, where B has signature (3, 4) and det B > 0."""
    terms = dict(F.PHI0_TERMS)
    terms[(2, 3, 6)] = terms[(2, 4, 5)] = 1.0
    return Form.from_dict(7, 3, terms)


def bad_spd_inputs():
    """Symmetric 7 x 7 matrices that are not positive definite, each
    the last point of a batch whose other points are the identity."""
    rng = np.random.default_rng(31)
    Q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    two_negative = Q @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, -1.0, -2.0]) @ Q.T
    two_negative = 0.5 * (two_negative + two_negative.T)
    zero_pivot = np.eye(7)
    zero_pivot[3, 3] = 0.0
    out = {"two negative eigenvalues": two_negative, "zero pivot": zero_pivot}
    for bad in (np.nan, np.inf, -np.inf):
        diag, off = np.eye(7), np.eye(7)
        diag[6, 6] = bad
        off[2, 5] = off[5, 2] = bad
        out[f"{bad} on the diagonal"] = diag
        out[f"{bad} off the diagonal"] = off
    assert np.linalg.det(two_negative) > 0
    return {name: np.concatenate([np.broadcast_to(np.eye(7), (2, 7, 7)),
                                  B[None]]) for name, B in out.items()}


def test_metric_rejects_non_positive():
    with pytest.raises(F.PositivityError):
        F.metric_from_g2(-1.0 * F.phi0())
    with pytest.raises(F.PositivityError):
        F.metric_from_g2(Form.basis(7, (0, 1, 2)))
    # det B > 0, but B is indefinite
    split = split_g2_form()
    eigs = np.linalg.eigvalsh(F._bryant_b(split.coeffs[:, None])[0])
    assert (eigs < 0).sum() == 4 and np.prod(eigs) > 0
    with pytest.raises(F.PositivityError):
        F.metric_from_g2(split)


def test_metric_rejects_non_finite():
    # the gate reads NaN (and the inf - inf of an inf 3-form) as failure,
    # also at one point of an otherwise positive batch
    for bad in (np.nan, np.inf):
        with pytest.raises(F.PositivityError):
            F.metric_from_g2(Form(7, 3, np.full(35, bad)))
        coeffs = np.repeat(F.phi0().coeffs[:, None], 3, axis=1)
        coeffs[0, 1] = bad
        with pytest.raises(F.PositivityError):
            F.metric_from_g2(Form(7, 3, coeffs))


def test_metric_det_range():
    # B = 6 s^3 I at s phi0 is finite and definite; sqrt(det B) =
    # (6 s^3)^(7/2) overflows at s = 1e40 and underflows at s = 1e-40, and
    # with it the scale det(B)^(1/9) of g and g^-1
    for s in (1e40, 1e-40):
        with pytest.raises(F.PositivityError):
            F.metric_from_g2(s * F.phi0())
    # det B near 1e510 and 1e-480 overflows and underflows as a float, but
    # its root does not: g(c^3 phi0) = c^2 at c = 1e8 and 1e-8
    for c in (1e8, 1e-8):
        g, vol = F.metric_from_g2(c ** 3 * F.phi0())
        assert np.abs(g.entries - c ** 2 * np.eye(7)).max() <= 1e-12 * c ** 2
        assert np.isclose(vol, c ** 7, rtol=1e-12)
        assert np.abs(g.inverse() - c ** -2 * np.eye(7)).max() <= (
            1e-12 * c ** -2)
    # a user-built metric keeps sqrt(det g) in range the same way
    tiny = Metric(7, 1e-50 * np.eye(7))
    assert np.isclose(tiny.sqrt_det, 1e-175, rtol=1e-12)


@pytest.mark.parametrize("name", list(bad_spd_inputs()))
def test_positivity_gate_rejects(name, monkeypatch):
    # Sylvester's criterion on the pivots, with NaN and inf failing too:
    # the same B is refused as a Metric and as the B of metric_from_g2
    B = bad_spd_inputs()[name]
    with pytest.raises(F.PositivityError):
        Metric(7, B)
    with pytest.raises(F.PositivityError):
        Metric(7, B[-1])
    monkeypatch.setattr(F, "_bryant_b", lambda coeffs: B)
    with pytest.raises(F.PositivityError):
        F.metric_from_g2(Form(7, 3, np.zeros((35, 3))))


def random_gl_plus(rng, batch):
    """Q1 diag(s) Q2 with Haar-like orthogonal Q1, Q2, singular values s
    in [1/2, 2] and the first row flipped where det < 0: a random element
    of GL+(7) with condition number at most 4."""
    Q1, _ = np.linalg.qr(rng.normal(size=batch + (7, 7)))
    Q2, _ = np.linalg.qr(rng.normal(size=batch + (7, 7)))
    s = rng.uniform(0.5, 2.0, size=batch + (1, 7))
    M = (Q1 * s) @ Q2
    M[..., 0, :] *= np.sign(np.linalg.det(M))[..., None]
    return M


def ref_bryant_b(phi):
    """B_ij vol = (e_i -| phi) ^ (e_j -| phi) ^ phi from the public
    interior_product and wedge, shape (*batch, 7, 7)."""
    contracted = [F.interior_product(Vector.basis(7, i), phi)
                  for i in range(7)]
    return np.stack([np.stack([F.wedge(F.wedge(a, b), phi).coeffs[0]
                               for b in contracted], axis=-1)
                     for a in contracted], axis=-2)


def test_bryant_b_matches_wedge_reference():
    # half the points positive (pullbacks of phi0), half random 3-forms;
    # 300 points span two blocks of the A W A^T kernel
    rng = np.random.default_rng(7)
    positive = F.pullback(random_gl_plus(rng, (150,)), F.phi0()).coeffs
    coeffs = np.concatenate([positive, rng.normal(size=(35, 150))], axis=1)
    ref = ref_bryant_b(Form(7, 3, coeffs))
    got = F._bryant_b(coeffs)
    assert np.array_equal(got, np.swapaxes(got, 1, 2))
    scale = np.abs(ref).max(axis=(1, 2))
    assert (np.abs(got - ref).max(axis=(1, 2)) <= 1e-13 * scale).all()
    # PositivityError exactly where the reference B is not definite, and
    # B = 6 vol g where it is
    eigs = np.linalg.eigvalsh(ref)
    for k in range(coeffs.shape[1]):
        if abs(eigs[k, 0]) <= 1e-8 * np.abs(eigs[k]).max():
            continue                    # too close to the cone boundary
        if eigs[k, 0] > 0:
            g, vol = F.metric_from_g2(Form(7, 3, coeffs[:, k]))
            assert np.abs(6 * vol * g.entries - ref[k]).max() <= \
                1e-12 * scale[k]
        else:
            with pytest.raises(F.PositivityError):
                F.metric_from_g2(Form(7, 3, coeffs[:, k]))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_metric_gl_plus_equivariance(seed):
    # g(M^* phi) = M^T g(phi) M and vol(M^* phi) = det(M) vol(phi) for
    # positive phi = P^* phi0 and det M > 0
    rng = np.random.default_rng(seed)
    for batch in ((), (257,)):
        phi = F.pullback(random_gl_plus(rng, batch), F.phi0())
        M = random_gl_plus(rng, batch)
        g, vol = F.metric_from_g2(phi)
        g_m, vol_m = F.metric_from_g2(F.pullback(M, phi))
        expect = np.swapaxes(M, -1, -2) @ g.entries @ M
        assert np.abs(g_m.entries - expect).max() <= \
            1e-12 * np.abs(expect).max()
        assert np.allclose(vol_m, np.linalg.det(M) * vol, rtol=1e-12)


# ----------------------------------------------------------------------
# cross product
# ----------------------------------------------------------------------

def test_cross_product_table():
    p0, g0 = F.phi0(), Metric.euclidean(7)
    e = [Vector.basis(7, i) for i in range(7)]
    assert np.allclose(F.cross_product(p0, g0, e[0], e[1]).components,
                       np.eye(7)[2])
    assert np.allclose(F.cross_product(p0, g0, e[0], e[3]).components,
                       np.eye(7)[4])
    assert np.abs(F.cross_product(p0, g0, e[0], e[0]).components).max() == 0.0


def test_cross_product_orthogonality():
    p0, g0 = F.phi0(), Metric.euclidean(7)
    u = Vector(7, RNG.normal(size=7))
    v = Vector(7, RNG.normal(size=7))
    w = F.cross_product(p0, g0, u, v)
    assert abs(np.dot(w.components, u.components)) < 1e-12
    assert abs(np.dot(w.components, v.components)) < 1e-12
    # oracle: solve g(u x v, .) = phi(u, v, .) directly
    alpha = F.interior_product(v, F.interior_product(u, F.phi0()))
    assert np.allclose(w.components, alpha.coeffs, atol=1e-12)


# ----------------------------------------------------------------------
# theta and its expansion
# ----------------------------------------------------------------------

def test_theta_flat():
    t = F.theta(F.phi0())
    assert np.abs(t.coeffs - F.star_phi0().coeffs).max() < 1e-12


def test_theta_homogeneity():
    lam = 2.0
    t = F.theta(lam**3 * F.phi0())
    assert np.abs(t.coeffs - lam**4 * F.star_phi0().coeffs).max() < 1e-11


def test_theta_equivariance_g2_permutation():
    # signed permutation preserving the flat 3-form, composed with a
    # small random GL+ perturbation; theta commutes with any pullback by
    # an orientation-preserving linear map
    signs = np.array([1, 1, 1, -1, -1, -1, -1], dtype=float)
    P = np.diag(signs)
    p0 = F.phi0()
    assert np.allclose(F.pullback(P, p0).coeffs, p0.coeffs)
    for _ in range(5):
        A = P @ (np.eye(7) + 0.08 * RNG.normal(size=(7, 7)))
        if np.linalg.det(A) <= 0:
            continue
        lhs = F.theta(F.pullback(A, p0))
        rhs = F.pullback(A, F.theta(p0))
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10


def richardson_split(phi, chi, h=1e-3):
    """Reference split: T by central differences of theta with one
    Richardson level (5 theta evaluations), F the remainder.  The step
    balances fourth-order truncation against roundoff for chi small
    against phi (a 1e-5 step leaves ~1e-10 of roundoff)."""
    def dtheta(step):
        plus = F.theta(phi + step * chi)
        minus = F.theta(phi - step * chi)
        return (1.0 / (2.0 * step)) * (plus - minus)

    T_chi = (1.0 / 3.0) * dtheta(h) - (4.0 / 3.0) * dtheta(h / 2.0)
    return T_chi, F.theta(phi) - T_chi - F.theta(phi + chi)


# a positive 3-form away from phi0, M^* phi0 with M = I + O(0.2)
NONFLAT = F.pullback(np.eye(7) + 0.2 * np.random.default_rng(613).normal(
    size=(7, 7)), F.phi0())


def test_theta_split_zero():
    T0, F0 = F.theta_split(F.phi0(), Form.zero(7, 3))
    assert np.abs(T0.coeffs).max() < 1e-13
    assert np.abs(F0.coeffs).max() < 1e-13


def test_theta_split_quadratic_remainder():
    g0 = Metric.euclidean(7)
    chi = random_form(7, 3)
    chi = (1.0 / np.sqrt(F.inner_product(g0, chi, chi))) * chi
    svals = [1e-1, 1e-2, 1e-3, 1e-4]
    for phi in (F.phi0(), NONFLAT):
        norms = []
        for s in svals:
            _, Fs = F.theta_split(phi, s * chi)
            norms.append(np.sqrt(F.inner_product(g0, Fs, Fs)))
        slope = np.polyfit(np.log(svals), np.log(norms), 1)[0]
        assert abs(slope - 2.0) < 0.05


def test_theta_split_T_linear():
    g0 = Metric.euclidean(7)
    chi = random_form(7, 3)
    chi = (1.0 / np.sqrt(F.inner_product(g0, chi, chi))) * chi
    T1, _ = F.theta_split(F.phi0(), chi)
    for s in (1e-2, 1e-3):
        Ts, _ = F.theta_split(F.phi0(), s * chi)
        assert np.abs(Ts.coeffs - s * T1.coeffs).max() < 1e-10


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_theta_split_T_matches_richardson_reference(seed):
    # T_phi = -*_g P_phi at 64 random positive phi = M^* phi0 (M of
    # condition number at most 4) against central differences: 6.0e-11
    # relative at worst over 204 800 such points.  chi = M^* xi with
    # |xi| = |phi0| / 10, so that phi + chi = M^*(phi0 + xi) is in the G2
    # cone, the domain of theta_split: the smallest eigenvalue of
    # B(phi0 + xi) was 3.9 over 200 000 draws, where B(phi0) = 6 Id.  A chi
    # drawn a tenth of phi's size in the coefficients left the cone at 8
    # of the seeds 0-2999
    rng = np.random.default_rng(seed)
    M = random_gl_plus(rng, (64,))
    phi = F.pullback(M, F.phi0())
    xi = rng.normal(size=(35, 64))
    xi *= 0.1 * np.linalg.norm(F.phi0().coeffs) / np.linalg.norm(xi, axis=0)
    chi = F.pullback(M, Form(7, 3, xi))
    T_chi, _ = F.theta_split(phi, chi)
    ref, _ = richardson_split(phi, chi)
    err = np.abs(T_chi.coeffs - ref.coeffs).max(axis=0)
    assert (err <= 1e-10 * np.abs(ref.coeffs).max(axis=0)).all()


def pi1_project(phi, chi):
    """pi_1 chi = (<chi, phi>_g / 7) phi in the metric g of phi, from
    forms._pi1_coeff, the coefficient that _theta_linear reads."""
    g, _ = F.metric_from_g2(phi)
    return Form(7, 3, F._pi1_coeff(g, F._theta_at(g, phi), chi) * phi.coeffs)


def test_pi1_pi7_are_orthogonal_projectors_in_g_phi():
    # P_phi = (7/3) pi_1 + 2 pi_7 - Id, read off T_phi = -*_g P_phi on the
    # 35 basis 3-forms at a non-flat phi (T is linear, so a small multiple
    # of each keeps phi + chi positive); pi_1 from pi1_project, pi_7 the
    # rest.  Both must be idempotent, g-self-adjoint, mutually
    # annihilating and of rank 1 and 7.
    s = 1e-3
    E = np.eye(35)
    phis = Form(7, 3, np.repeat(NONFLAT.coeffs[:, None], 35, axis=1))
    g, _ = F.metric_from_g2(NONFLAT)
    T_basis, _ = F.theta_split(phis, Form(7, 3, s * E))
    P = -F.hodge_star(g, T_basis).coeffs / s
    pi1 = pi1_project(phis, Form(7, 3, E)).coeffs
    pi7 = 0.5 * (P + E - (7.0 / 3.0) * pi1)
    gram = F.inner_product(g, Form(7, 3, E[:, :, None]),
                           Form(7, 3, E[:, None, :]))
    for proj, rank in ((pi1, 1), (pi7, 7)):
        assert np.abs(proj @ proj - proj).max() < 1e-12
        assert np.abs(gram @ proj - proj.T @ gram).max() < 1e-12
        assert abs(np.trace(proj) - rank) < 1e-12
    assert np.abs(pi1 @ pi7).max() < 1e-12
    assert np.abs(pi7 @ pi1).max() < 1e-12


# ----------------------------------------------------------------------
# pi1 projection
# ----------------------------------------------------------------------

def test_pi1_fixes_phi0():
    p0 = F.phi0()
    out = pi1_project(p0, p0)
    assert np.abs(out.coeffs - p0.coeffs).max() < 1e-12


def test_pi1_kills_off_terms():
    out = pi1_project(F.phi0(), Form.basis(7, (0, 1, 3)))
    assert np.abs(out.coeffs).max() < 1e-13


def test_pi1_idempotent():
    chi = random_form(7, 3)
    once = pi1_project(F.phi0(), chi)
    twice = pi1_project(F.phi0(), once)
    assert np.abs(once.coeffs - twice.coeffs).max() < 1e-12


# ----------------------------------------------------------------------
# batched evaluation
# ----------------------------------------------------------------------

def test_blocked_theta_matches_one_batch():
    # three whole theta blocks and a ragged tail, against the metric and
    # the Theta kernel of the whole batch at once: the same arithmetic at
    # every point, so the same bits
    npts = 3 * F._THETA_BLOCK + 123
    rng = np.random.default_rng(17)
    phi = F.pullback(random_gl_plus(rng, (npts,)), F.phi0())
    ref = F._theta_at(F.metric_from_g2(phi)[0], phi).coeffs
    got = F.theta(phi).coeffs
    assert got.shape == ref.shape == (35, npts)
    assert np.array_equal(got, ref)
    # the same on a batch shaped like a grid, and on one point
    grid = Form(7, 3, phi.coeffs[:, :2 * 3 * 5 * 7 * 11].reshape(
        (35, 2, 3, 5, 7, 11)))
    assert np.array_equal(F.theta(grid).coeffs.reshape(35, -1),
                          got[:, :2 * 3 * 5 * 7 * 11])
    one = Form(7, 3, phi.coeffs[:, -1])
    assert np.array_equal(F.theta(one).coeffs, ref[:, -1])
    # a point outside the G2 cone in the last (ragged) block only
    bad = phi.coeffs.copy()
    bad[:, -1] *= -1.0
    with pytest.raises(F.PositivityError):
        F.theta(Form(7, 3, bad))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_theta_kernel_matches_hodge_star(seed):
    # the contraction identity of _theta_at against the general star in
    # the same metric, at 64 random positive phi = M^* phi0 (M of
    # condition number at most 4): 4.9e-15 relative at worst over 800 000
    # such points.  phi ^ Theta(phi) = |phi|^2_g vol_g = 7 vol_g was off
    # by more than 1e-14 at 1 of those points (1.07e-14)
    rng = np.random.default_rng(seed)
    phi = F.pullback(random_gl_plus(rng, (64,)), F.phi0())
    g, vol = F.metric_from_g2(phi)
    ref = F.hodge_star(g, phi).coeffs
    got = F._theta_at(g, phi).coeffs
    err = np.abs(got - ref).max(axis=0)
    assert (err <= 5e-15 * np.abs(ref).max(axis=0)).all()
    norm2 = F.wedge(phi, Form(7, 4, got)).coeffs[0] / vol
    assert np.abs(norm2 - 7.0).max() <= 1e-14


def test_batched_matches_pointwise():
    npts = 11
    coeffs = F.phi0().coeffs[:, None] + 0.01 * RNG.normal(size=(35, npts))
    batch = Form(7, 3, coeffs)
    g, vol = F.metric_from_g2(batch)
    tb = F.theta(batch)
    for k in (0, 5, 10):
        single = Form(7, 3, coeffs[:, k])
        gs, vs = F.metric_from_g2(single)
        assert np.abs(g.entries[k] - gs.entries).max() < 1e-13
        assert np.isclose(vol[k], vs)
        ts = F.theta(single)
        assert np.abs(tb.coeffs[:, k] - ts.coeffs).max() < 1e-12
