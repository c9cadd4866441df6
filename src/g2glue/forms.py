"""Exterior algebra on frames of dimension <= 7 with metric-dependent
operators and the nonlinear maps attached to a G2 3-form.

Coefficients are stored densely over sorted multi-indices (C(n,p) slots).
Every operation accepts coefficient arrays with arbitrary trailing batch
shape, so a Form can hold one algebraic form or a whole field of them
sampled at many points; metrics batch the same way.  All functions are
pure: no operation mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

import numpy as np

__all__ = [
    "Form", "Metric", "Vector", "PositivityError",
    "wedge", "hodge_star", "interior_product", "inner_product",
    "metric_from_g2", "cross_product", "theta", "theta_split",
    "pullback", "phi0", "star_phi0",
]


class PositivityError(ValueError):
    """A 3-form failed the definiteness test of metric reconstruction."""


# ----------------------------------------------------------------------
# multi-index bookkeeping (0-based internally, 1-based in serialization)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def index_list(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All sorted multi-indices of the given degree, lexicographic order."""
    return tuple(combinations(range(dim), degree))


@lru_cache(maxsize=None)
def index_position(dim: int, degree: int) -> MappingProxyType:
    """Read-only map from each sorted multi-index to its slot."""
    return MappingProxyType(
        {idx: pos for pos, idx in enumerate(index_list(dim, degree))})


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, no longer writable: a cached table is one array shared by every
    caller, so a write into it would change every later result."""
    a.flags.writeable = False
    return a


def sort_index(idx) -> tuple[int, tuple[int, ...]]:
    """Sort a multi-index, returning (sign, sorted tuple); sign 0 if repeated."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return 0, ()
    # count inversions
    inv = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx))
              if idx[i] > idx[j])
    sign = -1 if inv % 2 else 1
    return sign, tuple(sorted(idx))


# ----------------------------------------------------------------------
# value types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Form:
    """Degree-p alternating tensor on an n-frame, n <= 7.

    coeffs has shape (C(n,p), *batch).  Use Form.zero / Form.basis /
    Form.from_dict to construct; from_dict accepts unsorted index keys
    and folds in the sign.
    """
    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not (1 <= self.dim <= 7):
            raise ValueError(f"dim must be in 1..7, got {self.dim}")
        if not (0 <= self.degree <= self.dim):
            raise ValueError(f"degree must be in 0..{self.dim}")
        nc = len(index_list(self.dim, self.degree))
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape[:1] != (nc,):
            raise ValueError(f"expected {nc} coefficient slots, got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(dim: int, degree: int, batch: tuple = ()) -> "Form":
        nc = len(index_list(dim, degree))
        return Form(dim, degree, np.zeros((nc,) + tuple(batch)))

    @staticmethod
    def basis(dim: int, idx) -> "Form":
        """The basis monomial e^{i1} ^ ... ^ e^{ip} (0-based indices)."""
        sign, srt = sort_index(idx)
        if sign == 0:
            raise ValueError(f"repeated index in {idx}")
        f = Form.zero(dim, len(srt))
        f.coeffs[index_position(dim, len(srt))[srt]] = sign
        return f

    @staticmethod
    def from_dict(dim: int, degree: int, entries: dict) -> "Form":
        """Build from {multi-index: value}; unsorted keys are sign-folded."""
        f = Form.zero(dim, degree)
        pos = index_position(dim, degree)
        for idx, val in entries.items():
            sign, srt = sort_index(idx)
            if sign == 0:
                raise ValueError(f"repeated index in {idx}")
            f.coeffs[pos[srt]] += sign * val
        return f

    # -- coefficient access ---------------------------------------------
    def get(self, idx):
        """Coefficient for a (possibly unsorted) multi-index, signed."""
        sign, srt = sort_index(idx)
        if sign == 0:
            return np.zeros(self.batch_shape) if self.batch_shape else 0.0
        return sign * self.coeffs[index_position(self.dim, self.degree)[srt]]

    @property
    def batch_shape(self) -> tuple:
        return self.coeffs.shape[1:]

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return index_list(self.dim, self.degree)

    # -- linear structure -------------------------------------------------
    def __add__(self, other: "Form") -> "Form":
        self._check_like(other)
        return Form(self.dim, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "Form") -> "Form":
        self._check_like(other)
        return Form(self.dim, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, s) -> "Form":
        return Form(self.dim, self.degree, self.coeffs * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Form":
        return Form(self.dim, self.degree, -self.coeffs)

    def _check_like(self, other: "Form"):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("form dim/degree mismatch")

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready {"dim", "degree", "coeffs": {"124": c, ...}} (1-based)."""
        if self.batch_shape:
            raise ValueError("only scalar-batch forms serialize to JSON")
        coeffs = {}
        for pos, idx in enumerate(self.indices):
            v = float(self.coeffs[pos])
            if v != 0.0:
                coeffs["".join(str(i + 1) for i in idx)] = v
        return {"dim": self.dim, "degree": self.degree, "coeffs": coeffs}


def _spd_factor(M: np.ndarray, error: str):
    """sqrt(det) and inverse of symmetric matrices M (*batch, n, n), and
    the proof that they are positive definite.

    Gauss-Jordan elimination without pivoting, unrolled over the n pivots
    and vectorised over the points, which it holds last, (n, n, npts), so
    that each entry is one contiguous row of points.  For symmetric M the
    k-th pivot is the ratio of the k-th and (k-1)-th leading principal
    minors, so by Sylvester's criterion M is definite exactly when every
    pivot is > 0; det is their product, and sqrt(det) is taken as the
    product of their square roots (the diagonal of the Cholesky factor),
    which stays in range where det would over- or underflow.  Raises
    PositivityError(error) unless at every point every pivot is finite
    and > 0, which also rejects NaN and inf entries.
    """
    batch, n = M.shape[:-2], M.shape[-1]
    a = M.reshape(-1, n, n).transpose(1, 2, 0).copy()
    sqrt_det = np.ones(a.shape[2])
    definite = np.ones(a.shape[2], dtype=bool)
    # a failed pivot leaves garbage at its point only, and that point
    # fails the gate below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            piv = a[k, k].copy()
            definite &= (piv > 0.0) & (piv < np.inf)
            sqrt_det *= np.sqrt(piv)
            row = a[k] / piv
            row[k] = 1.0 / piv
            col = a[:, k].copy()
            col[k] = 0.0
            a[:, k] = 0.0
            a -= col[:, None] * row[None]
            a[k] = row
    if not definite.all():
        raise PositivityError(error)
    inv = np.ascontiguousarray(a.transpose(2, 0, 1)).reshape(batch + (n, n))
    return sqrt_det.reshape(batch), inv


@dataclass(frozen=True)
class Metric:
    """Symmetric positive-definite bilinear form; entries (*batch, n, n).

    The one elimination that proves the entries definite (_spd_factor)
    also gives sqrt(det g) and g^-1, and the metric keeps both, so
    hodge_star, inner_product and cross_product factor nothing.
    """
    dim: int
    entries: np.ndarray
    sqrt_det: np.ndarray = field(init=False, repr=False, compare=False)
    _inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape[-2:] != (self.dim, self.dim):
            raise ValueError("metric shape mismatch")
        # a NaN entry is left to fail the definiteness gate
        if not np.allclose(e, np.swapaxes(e, -1, -2), rtol=1e-12, atol=1e-12,
                           equal_nan=True):
            raise ValueError("metric must be symmetric")
        sqrt_det, inv = _spd_factor(e, "metric is not positive definite")
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "sqrt_det", sqrt_det)
        object.__setattr__(self, "_inverse", inv)

    @classmethod
    def _proved(cls, entries: np.ndarray, sqrt_det: np.ndarray,
                inverse: np.ndarray) -> "Metric":
        """A metric whose entries the caller has already proved symmetric
        and positive-definite, with sqrt(det) and the inverse from that
        proof: the checks and the elimination of __post_init__ are not
        repeated."""
        g = object.__new__(cls)
        object.__setattr__(g, "dim", entries.shape[-1])
        object.__setattr__(g, "entries", entries)
        object.__setattr__(g, "sqrt_det", sqrt_det)
        object.__setattr__(g, "_inverse", inverse)
        return g

    @staticmethod
    def euclidean(dim: int) -> "Metric":
        return Metric(dim, np.eye(dim))

    @property
    def batch_shape(self) -> tuple:
        return self.entries.shape[:-2]

    def inverse(self) -> np.ndarray:
        """g^-1, (*batch, n, n), as stored at construction."""
        return self._inverse


@dataclass(frozen=True)
class Vector:
    dim: int
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape[:1] != (self.dim,):
            raise ValueError("vector length must equal dim")
        object.__setattr__(self, "components", c)

    @staticmethod
    def basis(dim: int, i: int) -> "Vector":
        c = np.zeros(dim)
        c[i] = 1.0
        return Vector(dim, c)


# ----------------------------------------------------------------------
# wedge / interior product (metric-free)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _wedge_table(dim: int, p: int, q: int):
    """(posA, posB, posOut, sign) quadruples for Λ^p x Λ^q -> Λ^{p+q}:
    e^A ^ e^B = sign e^Out, the one table of exterior-product signs.  Read
    with its slots transposed, it is the interior product: for a 1-form
    e^i, e^i ^ e^J = sign e^I gives e_i -| e^I = sign e^J."""
    out = []
    pos_out = index_position(dim, p + q)
    for pa, ia in enumerate(index_list(dim, p)):
        for pb, ib in enumerate(index_list(dim, q)):
            sign, srt = sort_index(ia + ib)
            if sign:
                out.append((pa, pb, pos_out[srt], sign))
    return tuple(out)


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; bilinear, associative, graded-commutative."""
    if a.dim != b.dim:
        raise ValueError("wedge: dimension mismatch")
    if a.degree + b.degree > a.dim:
        raise ValueError("wedge: degree overflow")
    batch = np.broadcast_shapes(a.batch_shape, b.batch_shape)
    out = Form.zero(a.dim, a.degree + b.degree, batch)
    for pa, pb, po, sign in _wedge_table(a.dim, a.degree, b.degree):
        out.coeffs[po] += sign * a.coeffs[pa] * b.coeffs[pb]
    return out


def interior_product(v: Vector, a: Form) -> Form:
    """Contraction v -| a; antiderivation of degree -1."""
    if v.dim != a.dim:
        raise ValueError("interior product: dimension mismatch")
    if a.degree == 0:
        raise ValueError("interior product needs degree >= 1")
    batch = np.broadcast_shapes(a.batch_shape, v.components.shape[1:])
    out = Form.zero(a.dim, a.degree - 1, batch)
    for i, po, pi, sign in _wedge_table(a.dim, 1, a.degree - 1):
        out.coeffs[po] += sign * v.components[i] * a.coeffs[pi]
    return out


# ----------------------------------------------------------------------
# metric machinery: one blocked contraction for Hodge star and pullback
# ----------------------------------------------------------------------

# points per block of _lambda_action; bounds its working set at any batch
_BLOCK = 256


@lru_cache(maxsize=None)
def _contraction_plan(n: int, p: int):
    """Signed gathers for contracting the p slots of a form one at a time.

    After j steps the state of one point is T[I, L]: I is the sorted tuple
    of the j output slots done, L the sorted (p - j)-tuple of input slots
    left.  Step j expands the last slot k of L with the sign of sorting
    (L', k), laid out as (k, I, L') so that one matmul by M over k gives
    the new output slot i first; the rows with i < min(I) are the sorted
    (j + 1)-tuples.  The state thus stays at n C(n,j) C(n,p-j-1) entries
    instead of the n^p of the full antisymmetric tensor.

    Returns ((src, sign) per step, final rows).  src indexes the previous
    state flattened: the coefficients for j = 0, the matmul output after.
    """
    rows_prev = {(): 0}
    steps = []
    for j in range(p):
        pos_left = index_position(n, p - j)
        done, rest = index_list(n, j), index_list(n, p - j - 1)
        src = np.zeros((n, len(done), len(rest)), dtype=np.intp)
        sign = np.zeros(src.shape)
        for k in range(n):
            for r, I in enumerate(done):
                for c, L in enumerate(rest):
                    s, srt = sort_index(L + (k,))
                    if s:
                        src[k, r, c] = rows_prev[I] * len(pos_left) + pos_left[srt]
                        sign[k, r, c] = s
        steps.append(tuple(_read_only(x.ravel()) for x in (src, sign)))
        rows_prev = {(i,) + I: i * len(done) + r
                     for r, I in enumerate(done) for i in range(n)
                     if not I or i < I[0]}
    final = np.array([rows_prev[I] for I in index_list(n, p)], dtype=np.intp)
    return tuple(steps), _read_only(final)


def _lambda_action(M: np.ndarray, coeffs: np.ndarray, n: int, p: int):
    """out_I = sum_K det(M[I, K]) a_K on sorted slots, i.e. the action
    sum M[i1,k1]..M[ip,kp] a_{k1..kp} of M on every index of a p-form.

    M is (*batch, n, n) and coeffs (C(n,p), *batch), broadcast together;
    the flattened batch goes through in blocks of _BLOCK points.
    """
    batch = np.broadcast_shapes(coeffs.shape[1:], M.shape[:-2])
    npts = int(np.prod(batch, dtype=np.int64))
    nc = coeffs.shape[0]
    a = np.broadcast_to(np.moveaxis(coeffs, 0, -1), batch + (nc,))
    a = a.reshape(npts, nc)
    m = np.broadcast_to(M, batch + (n, n)).reshape(npts, n, n)
    steps, final = _contraction_plan(n, p)
    out = np.empty((nc, npts))
    for lo in range(0, npts, _BLOCK):
        t = a[lo:lo + _BLOCK]
        mb = m[lo:lo + _BLOCK]
        for src, sign in steps:
            t = np.matmul(mb, (t[:, src] * sign).reshape(len(t), n, -1))
            t = t.reshape(len(t), -1)
        out[:, lo:lo + _BLOCK] = t[:, final].T
    return out.reshape((nc,) + batch)


@lru_cache(maxsize=None)
def _complement(n: int, p: int):
    """The signed permutation Lambda^p -> Lambda^{n-p} that places the slot
    I at its complement J with the sign of e^I ^ e^J against
    e^1 ^ .. ^ e^n, as a gather (src, sign): slot J of the result is
    sign[J] * a[src[J]]."""
    pos_in = index_position(n, p)
    src, sign = [], []
    for J in index_list(n, n - p):
        I = tuple(sorted(set(range(n)) - set(J)))
        src.append(pos_in[I])
        sign.append(sort_index(I + J)[0])
    return (_read_only(np.array(src, dtype=np.intp)),
            _read_only(np.array(sign, dtype=float)))


def _place(coeffs: np.ndarray, n: int, p: int) -> np.ndarray:
    """The complement placement of _complement on coefficients
    (C(n,p), *batch), into a new array of shape (C(n,n-p), *batch)."""
    src, sign = _complement(n, p)
    out = coeffs[src]
    out *= sign.reshape((-1,) + (1,) * (coeffs.ndim - 1))
    return out


def hodge_star(g: Metric, a: Form) -> Form:
    """Hodge dual w.r.t. g: a ^ *b = <a,b>_g vol_g.

    In odd dimension ** = id on every degree; in general ** = (-1)^{p(n-p)}.
    For p <= n - p the p indices are raised with g^-1, each slot is placed
    at its complement and scaled by sqrt(det g); otherwise a is placed
    first, its n - p indices are lowered with g and the result divided by
    sqrt(det g) (the tensor form of Jacobi's complementary-minor
    identity), so at most min(p, n - p) indices are ever contracted.
    """
    if g.dim != a.dim:
        raise ValueError("hodge star: dimension mismatch")
    n, p = a.dim, a.degree
    sqdet = g.sqrt_det
    if p <= n - p:
        dual = _place(_lambda_action(g.inverse(), a.coeffs, n, p), n, p)
        dual *= sqdet           # in place: no second batch-sized array
    else:
        dual = _lambda_action(g.entries, _place(a.coeffs, n, p), n, n - p)
        dual /= sqdet
    return Form(n, n - p, dual)


def inner_product(g: Metric, a: Form, b: Form) -> np.ndarray:
    """Pointwise <a, b>_g on p-forms, from <a, b>_g vol_g = a ^ *b."""
    a._check_like(b)
    if g.dim != a.dim:
        raise ValueError("inner product: dimension mismatch")
    return wedge(a, hodge_star(g, b)).coeffs[0] / g.sqrt_det


# ----------------------------------------------------------------------
# pullback under a linear map
# ----------------------------------------------------------------------

def pullback(A: np.ndarray, a: Form) -> Form:
    """(A^* a)(v_1..v_p) = a(A v_1, .., A v_p) for A acting on the frame."""
    A = np.asarray(A, dtype=float)
    n, p = a.dim, a.degree
    if A.shape[-2:] != (n, n):
        raise ValueError("pullback: matrix shape mismatch")
    return Form(n, p, _lambda_action(np.swapaxes(A, -1, -2), a.coeffs, n, p))


# ----------------------------------------------------------------------
# the flat G2 3-form and its metric reconstruction
# ----------------------------------------------------------------------

# standard coordinate expression of the flat associative 3-form on R^7
PHI0_TERMS = {
    (0, 1, 2): 1.0, (0, 3, 4): 1.0, (0, 5, 6): 1.0, (1, 3, 5): 1.0,
    (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0,
}


def phi0() -> Form:
    """The flat G2 3-form (orthonormal-coordinate convention)."""
    return Form.from_dict(7, 3, PHI0_TERMS)


def star_phi0() -> Form:
    return hodge_star(Metric.euclidean(7), phi0())


def _with_signs(c: np.ndarray) -> np.ndarray:
    """[c, -c, 0] along the last axis of c (npts, 35): the 71 slots that
    the signed gathers of _bryant_gathers index, so that a gather of
    +-phi or 0 is a plain take, with no multiplication by signs."""
    out = np.empty(c.shape[:-1] + (71,))
    out[..., :35] = c
    np.negative(c, out=out[..., 35:70])
    out[..., 70] = 0.0
    return out


@lru_cache(maxsize=None)
def _bryant_gathers():
    """Signed gathers from the 35 slots of phi for B = A W A^T.

    A[i, ab] = (e_i -| phi)_ab, a 7 x 21 matrix (the 1 x 2 wedge table
    read as the interior product), and W[ab, cd] = +-phi_efg for disjoint
    slots ab, cd with efg the complement of ab u cd (the 2 x 2 wedge
    table, then the complement placement), so that
    alpha ^ beta ^ phi = alpha^T W beta for 2-forms.
    Each is returned as indices into [phi, -phi, 0] (_with_signs): slot
    k < 35 reads +phi_k, 35 + k reads -phi_k, and 70 an entry that is 0.
    """
    a = np.full((7, 21), 70, dtype=np.intp)
    for i, po, pi, sign in _wedge_table(7, 1, 2):
        a[i, po] = pi if sign > 0 else 35 + pi
    slot3, place = _complement(7, 3)            # 4-slot <- +-(3-slot)
    w = np.full((21, 21), 70, dtype=np.intp)
    for pa, pb, po, sign in _wedge_table(7, 2, 2):
        w[pa, pb] = slot3[po] + (0 if sign * place[po] > 0 else 35)
    return _read_only(a), _read_only(w)


def _bryant_b(coeffs: np.ndarray) -> np.ndarray:
    """B_ij vol = (e_i -| phi) ^ (e_j -| phi) ^ phi for coefficients of
    shape (35, npts), as A W A^T in blocks of _BLOCK points; (npts, 7, 7),
    symmetric to the last bit."""
    a, w = _bryant_gathers()
    npts = coeffs.shape[1]
    B = np.empty((npts, 7, 7))
    for lo in range(0, npts, _BLOCK):
        c = _with_signs(coeffs[:, lo:lo + _BLOCK].T)
        A = c[:, a]
        Bb = A @ c[:, w] @ np.swapaxes(A, 1, 2)
        B[lo:lo + _BLOCK] = 0.5 * (Bb + np.swapaxes(Bb, 1, 2))
    return B


def metric_from_g2(phi: Form):
    """Metric and volume induced by a positive G2 3-form.

    Bryant's B_ij * (coordinate volume) = (e_i -| phi) ^ (e_j -| phi) ^ phi,
    computed as A W A^T (see _bryant_gathers), then
    g = 6^(-2/9) det(B)^(-1/9) B and vol = sqrt(det g) = 6^(-7/9) det(B)^(1/9).
    The normalization is pinned by metric_from_g2(phi0) == euclidean.
    B is eliminated once (_spd_factor): the elimination that tests
    definiteness also gives sqrt(det B) and B^-1, and g carries vol as its
    sqrt_det and g^-1 = 6^(2/9) det(B)^(1/9) B^-1 as its inverse, so
    hodge_star with g factors nothing more.  Raises PositivityError when B
    is not positive definite (phi is not a G2-structure), or when
    sqrt(det B) over- or underflows.
    """
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("metric_from_g2 expects a 3-form in dimension 7")
    batch = phi.batch_shape
    with np.errstate(over="ignore", invalid="ignore"):
        # a B that overflows, or holds NaN, fails the gate below
        B = _bryant_b(phi.coeffs.reshape(35, -1)).reshape(batch + (7, 7))
    sqrt_detB, B_inv = _spd_factor(
        B, "3-form is not a G2-structure (B not definite)")
    # the pivots are finite, the product of their roots need not be
    if not np.all((sqrt_detB > 0.0) & (sqrt_detB < np.inf)):
        raise PositivityError("3-form out of range (sqrt det B over- or underflows)")
    root = sqrt_detB[..., None, None] ** (2.0 / 9.0)      # det(B)^(1/9)
    g_entries = 6.0 ** (-2.0 / 9.0) / root * B
    B_inv *= 6.0 ** (2.0 / 9.0) * root     # in place: B^-1 is ours
    vol = 6.0 ** (-7.0 / 9.0) * root[..., 0, 0]
    return Metric._proved(g_entries, vol, B_inv), vol


def cross_product(phi: Form, g: Metric, u: Vector, v: Vector) -> Vector:
    """Cross product defined by phi(u, v, w) = g(u x v, w)."""
    if not (phi.dim == g.dim == u.dim == v.dim == 7):
        raise ValueError("cross product needs dimension 7 throughout")
    alpha = interior_product(v, interior_product(u, phi))
    comp = np.einsum("...ij,j...->i...", g.inverse(), alpha.coeffs)
    return Vector(7, comp)


# points per block of theta, so a batch holds at most this many 7 x 7
# matrices (B, its elimination, g, g^-1) at once.  Measured on 4^7
# points (one BLAS thread, 2-core Xeon, best of 15 interleaved runs, two
# runs): 91-101 ms in blocks of 256, where each block pays the per-call
# cost of the elimination's 7 unrolled steps and the gathers, 85-86 ms
# in blocks of 1024, 86-87 ms in blocks of 2048, 85-91 ms in blocks of
# 4096 and 99-103 ms as one batch.
_THETA_BLOCK = 8 * _BLOCK


@lru_cache(maxsize=None)
def _theta_gathers():
    """Gathers for Theta_ijkl = sum_pq phi_ijp g^pq phi_klq
    - (g_ik g_jl - g_il g_jk) on the 35 sorted 4-slots i < j < k < l.

    phi_ijp = (e_p -| phi)_ij, so phi_ij. and phi_kl. are the columns (ij)
    and (kl) of the interior-product matrix A of _bryant_gathers; each is
    a (35, 7) signed gather, as indices into [phi, -phi, 0]
    (_with_signs).  The third table holds the flat positions ik, jl, il
    and jk in the 49 entries of a metric, (4, 35)."""
    a = _bryant_gathers()[0]
    pos2 = index_position(7, 2)
    slots = index_list(7, 4)
    u, v = (np.ascontiguousarray(a[:, [pos2[I[h]] for I in slots]].T)
            for h in (slice(0, 2), slice(2, 4)))
    pairs = np.array([[7 * I[x] + I[y] for I in slots]
                      for x, y in ((0, 2), (1, 3), (0, 3), (1, 2))])
    return _read_only(u), _read_only(v), _read_only(pairs)


def _theta_at(g: Metric, phi: Form) -> Form:
    """Theta(phi) = *_g phi for the metric g = g(phi) of phi itself, by the
    G2 contraction identity (Bryant, Some remarks on G2-structures, 2005,
    sec. 2): on sorted i < j < k < l,

        Theta_ijkl = sum_pq phi_ijp g^pq phi_klq - (g_ik g_jl - g_il g_jk),

    with the sign of the metric term that of this package's orientation
    (Theta(phi0) = star_phi0()).  The identity needs g = g(phi); any other
    metric takes hodge_star.  g's batch shape must be phi's.  _BLOCK
    points at a time: two gathers of phi (_theta_gathers), one batched
    35 x 7 @ 7 x 7 matmul by g^-1, a 7-term reduction and the metric term.
    """
    u, v, (ik, jl, il, jk) = _theta_gathers()
    coeffs = phi.coeffs.reshape(35, -1)
    npts = coeffs.shape[1]
    g_flat = g.entries.reshape(npts, 49)
    g_inv = g.inverse().reshape(npts, 7, 7)
    out = np.empty((35, npts))
    for lo in range(0, npts, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        c = _with_signs(coeffs[:, blk].T)
        ug, w = c[:, u] @ g_inv[blk], c[:, v]
        # the 7 terms in one fixed order, so that a point's bits do not
        # depend on the batch around it (einsum's order does)
        th = ug[..., 0] * w[..., 0]
        for q in range(1, 7):
            th += ug[..., q] * w[..., q]
        e = g_flat[blk]
        th -= e[:, ik] * e[:, jl] - e[:, il] * e[:, jk]
        out[:, blk] = th.T
    return Form(7, 4, out.reshape(phi.coeffs.shape))


def theta(phi: Form) -> Form:
    """Nonlinear Hodge dual: phi |-> Theta(phi) = *_{g(phi)} phi (a 4-form).

    Taken by the contraction identity of _theta_at, Theta_ijkl =
    sum_pq phi_ijp g^pq phi_klq - (g_ik g_jl - g_il g_jk) on sorted
    i < j < k < l (Bryant, Some remarks on G2-structures, 2005, sec. 2),
    with the metric term's sign fixed by Theta(phi0) = star_phi0(), and not
    by a general Hodge star.  The metric and Theta are taken _THETA_BLOCK
    points at a time into one output, so no batch-sized metric exists.
    Raises PositivityError when any point is not a G2-structure.
    """
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("theta expects a 3-form in dimension 7")
    coeffs = phi.coeffs.reshape(35, -1)
    out = np.empty(coeffs.shape)
    for lo in range(0, coeffs.shape[1], _THETA_BLOCK):
        block = Form(7, 3, coeffs[:, lo:lo + _THETA_BLOCK])
        g, _ = metric_from_g2(block)
        out[:, lo:lo + _THETA_BLOCK] = _theta_at(g, block).coeffs
    return Form(7, 4, out.reshape(phi.coeffs.shape))


def _pi1_coeff(g: Metric, psi: Form, chi: Form) -> np.ndarray:
    """c = <chi, phi>_g / 7, so that pi_1 chi = c phi, read off
    chi ^ psi = <chi, phi>_g vol_g with psi = *_g phi."""
    return wedge(chi, psi).coeffs[0] / (7.0 * g.sqrt_det)


def _theta_linear(g: Metric, phi: Form, psi: Form, chi: Form) -> Form:
    """T_phi(chi) = -*_g P_phi chi, the exact linear term of Theta at phi
    (Joyce, Compact Manifolds with Special Holonomy, Prop. 10.3.5), for
    g = g(phi) and psi = *_g phi.  P_phi = (7/3) pi_1 + 2 pi_7 - Id, with
    pi_1 chi = <chi, phi>_g phi / 7 and pi_7 chi = -(1/4) X -| psi for
    X = g^-1 *_g(phi ^ chi).  Batched; phi's batch shape must be chi's."""
    X = np.einsum("...ij,j...->i...", g.inverse(),
                  hodge_star(g, wedge(phi, chi)).coeffs)
    pi7 = -0.25 * interior_product(Vector(7, X), psi)
    pi1 = Form(7, 3, _pi1_coeff(g, psi, chi) * phi.coeffs)
    return -hodge_star(g, (7.0 / 3.0) * pi1 + 2.0 * pi7 - chi)


def theta_split(phi: Form, chi: Form):
    """Split Theta(phi + chi) = Theta(phi) - T(chi) - F(chi): T exact
    (_theta_linear), F quadratically small in chi, F(0) = 0.  phi's metric
    serves Theta(phi) = *_g phi and T; theta runs once more, at phi + chi."""
    phi._check_like(chi)
    g, _ = metric_from_g2(phi)
    psi = _theta_at(g, phi)
    T_chi = _theta_linear(g, phi, psi, chi)
    return T_chi, psi - T_chi - theta(phi + chi)
