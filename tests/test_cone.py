"""Tests for cone spectra, critical rates, the Cartesian oracle, and the
exact rate calculator."""

from fractions import Fraction as Fr

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from g2glue import cone as C


SO3 = C.so3_link()
S3 = C.s3_link()


# ----------------------------------------------------------------------
# link tables
# ----------------------------------------------------------------------

def test_so3_is_even_subset():
    assert all(e.parity == 1 for e in SO3.entries)
    assert {e.eigenvalue for e in SO3.entries if e.kind == "function"} >= \
        {Fr(0), Fr(8), Fr(24)}
    assert Fr(3) not in {e.eigenvalue for e in SO3.entries
                         if e.kind == "function"}


def test_so3_coexact_one_forms_bottom():
    assert SO3.multiplicity(1, "coexact", Fr(4)) == 6
    assert SO3.multiplicity(1, "coexact", Fr(1)) == 0
    # S^3 bottom 1-form eigenvalue 3 is odd and does not descend
    assert S3.multiplicity(1, "coexact", Fr(4)) == 6
    assert SO3.multiplicity(1, "exact", Fr(3)) == 0
    assert S3.multiplicity(1, "exact", Fr(3)) == 4


def test_insufficient_spectrum_reported():
    tiny = C.so3_link(m_max=2)
    with pytest.raises(C.InsufficientSpectrumError):
        tiny.eigenvalues(0, "function", Fr(1000))


# ----------------------------------------------------------------------
# cone Laplacian on homogeneous forms
# ----------------------------------------------------------------------

def test_cone_laplacian_harmonic_case():
    pair = C.LinkPairData(c_da=Fr(2), c_db=Fr(2))   # rate -2, degree 2, n 4
    A, B = C.cone_laplacian_apply(-2, 2, 0, pair)
    assert A == {} and B == {}


def test_cone_laplacian_log_descent_coefficient():
    # with u = log r the descent coefficient is -j (2 lam + n - 1) = +j at
    # lam = -2, n = 4 (the quoted display's 2j overstates it; the descent
    # conclusion is the same since the coefficient is nonzero)
    pair = C.LinkPairData(c_da=Fr(2), c_db=Fr(2))
    A, B = C.cone_laplacian_apply(-2, 2, 1, pair)
    assert A == {0: Fr(1)} and B == {0: Fr(1)}
    A2, B2 = C.cone_laplacian_apply(-2, 2, 2, pair)
    assert A2 == {1: Fr(2), 0: Fr(-2)}


def test_cone_laplacian_zero_pair():
    pair = C.LinkPairData(c_da=Fr(0), c_db=Fr(0))
    A, B = C.cone_laplacian_apply(Fr(1), 1, 0, pair)
    # trivial pair: A and B reduce to the bare quadratic coefficients
    assert set(A) <= {0} and set(B) <= {0}


# ----------------------------------------------------------------------
# critical rates
# ----------------------------------------------------------------------

def test_no_one_form_rates_in_window():
    assert C.critical_rates(SO3, 1, -2, 0) == []


def test_six_two_forms_at_minus_two():
    rates = C.critical_rates(SO3, 2, -2, Fr(-199, 100))
    assert len(rates) == 1
    r = rates[0]
    assert r.rate == -2 and r.dimension == 6 and r.case == "iii"
    assert r.link_eigenvalue == 4


def test_no_two_form_rates_inside():
    assert C.critical_rates(SO3, 2, Fr(-199, 100), 0) == []


def test_degree_swap_duality():
    r0 = C.critical_rates(SO3, 0, -6, 2)
    r4 = C.critical_rates(SO3, 4, -6, 2)
    assert [(r.rate, r.dimension) for r in r0] == \
        [(r.rate, r.dimension) for r in r4]


def test_rates_satisfy_case_equations_exactly():
    for p in (0, 1, 2):
        for rate in C.critical_rates(SO3, p, -6, 2):
            a, b, q, kind = C._case_parameters(p)[rate.case]
            assert (rate.rate + a) * (rate.rate + b) == rate.link_eigenvalue
            if rate.case in ("ii", "iii"):
                pair = C._case_iii_pair(rate.rate, p) if rate.case == "iii" \
                    else C.LinkPairData(c_da=rate.rate + p,
                                        c_db=rate.rate + 4 - p)
                A, B = C.cone_laplacian_apply(rate.rate, p, 0, pair)
                assert A == {} and B == {}


# ----------------------------------------------------------------------
# log kernel and index change
# ----------------------------------------------------------------------

def test_log_kernel_true_at_minus_two():
    assert C.log_kernel_check(-2, 2) is True


def test_log_kernel_vacuous_on_empty_rate():
    assert C.log_kernel_check(Fr(-3, 2), 1) is True


def test_log_kernel_synthetic_failure():
    bad = C.LinkPairData(c_da=Fr(2), c_db=Fr(5))
    assert C.log_kernel_check(-2, 2, pair=bad) is False


def test_index_change_values():
    assert C.index_change(2, -3, -1) == 6
    assert C.index_change(1, Fr(-19, 10), Fr(-1, 10)) == 0
    assert C.index_change(2, Fr(-19, 10), Fr(-1, 10)) == 0


def test_index_change_rejects_critical_endpoint():
    with pytest.raises(ValueError):
        C.index_change(2, -2, -1)


# ----------------------------------------------------------------------
# the Cartesian oracle
# ----------------------------------------------------------------------

def test_six_order_minus_two_forms_harmonic():
    basis = C.order_minus2_basis()
    assert len(basis) == 6
    for w in basis:
        out = C.harmonic_oracle_r4(w)
        assert out["residual"] == 0.0
        assert sp.simplify(out["order"] + 2) == 0


def test_decaying_forms_harmonic_closed_coclosed():
    for w in C.decaying_pair_forms():
        out = C.harmonic_oracle_r4(w)
        assert out["residual"] == 0.0
        assert sp.simplify(out["order"] + 4) == 0
        assert out["closed"] and out["coclosed"]


def test_constant_forms_harmonic():
    sd, asd = C.constant_two_forms()
    for w in sd + asd:
        out = C.harmonic_oracle_r4(w)
        assert out["residual"] == 0.0
        assert out["closed"] and out["coclosed"]


# Euclidean Hodge star on R^4: *dx_I = sign dx_J with dx_I ^ dx_J = sign vol
_STAR = {(0, 1): ((2, 3), 1), (0, 2): ((1, 3), -1), (0, 3): ((1, 2), 1),
         (1, 2): ((0, 3), 1), (1, 3): ((0, 2), -1), (2, 3): ((0, 1), 1)}


def test_oracle_tells_closed_from_coclosed():
    # omega = d(x1 |x|^-2 dx2) is exact but not coclosed; its Hodge dual
    # is coclosed but not closed
    beta = C._X[0] / C._S
    omega = {(a, 1): sp.diff(beta, C._X[a]) for a in (0, 2, 3)}
    out = C.harmonic_oracle_r4(omega)
    assert (out["closed"], out["coclosed"]) == (True, False)
    star = {}
    for ij, c in C._two_form(omega).items():
        kl, sign = _STAR[ij]
        star[kl] = sign * c
    out = C.harmonic_oracle_r4(star)
    assert (out["closed"], out["coclosed"]) == (False, True)


def test_oracle_negative_control():
    out = C.harmonic_oracle_r4({(0, 1): C._S ** -2})
    assert out["residual"] > 0


def test_oracle_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        C.harmonic_oracle_r4({(0, 1): 1 / C._S + 1})


@pytest.mark.parametrize("component", [
    1 / C._X[0], C._X[1] / (C._X[0] * C._S), 1 / (C._S + C._X[0] ** 2),
    sp.sqrt(2) / C._S])
def test_oracle_rejects_components_outside_the_term_form(component):
    # only P |x|^(-2a) with P a rational polynomial is accepted
    with pytest.raises(ValueError):
        C.harmonic_oracle_r4({(0, 1): component})


@st.composite
def terms(draw):
    """(P, a) with P a random homogeneous polynomial of degree <= 3."""
    degree = draw(st.integers(0, 3))
    monomials = sorted(sp.itermonomials(C._X, degree, degree),
                       key=sp.default_sort_key)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monomials),
                           max_size=len(monomials)))
    P = sum((c * mono for c, mono in zip(coeffs, monomials)), sp.Integer(0))
    return sp.Poly(P, *C._X, domain="QQ"), draw(st.integers(0, 3))


def _as_expr(term):
    P, a = term
    return P.as_expr() / C._S ** a


@settings(max_examples=20, deadline=None)
@given(term=terms(), i=st.integers(0, 3))
def test_term_calculus_matches_sympy_diff(term, i):
    expr = _as_expr(term)
    assert sp.cancel(_as_expr(C._diff(term, i))
                     - sp.diff(expr, C._X[i])) == 0
    assert sp.cancel(_as_expr(C._laplacian(term))
                     - sum(sp.diff(expr, x, 2) for x in C._X)) == 0


def test_order_minus2_forms_even_under_antipode():
    subs = {x: -x for x in C._X}
    for w in C.order_minus2_basis():
        for c in w.values():
            assert sp.simplify(sp.sympify(c).subs(subs, simultaneous=True) - c) == 0


# ----------------------------------------------------------------------
# S^3 function spectrum by polynomial algebra
# ----------------------------------------------------------------------

@pytest.mark.parametrize("m", range(0, 9))
def test_function_spectrum(m):
    out = C.s3_function_spectrum_check(m)
    assert out["eigenvalue"] == m * (m + 2)
    assert out["parity"] == (-1) ** m
    assert out["descends_to_so3"] == (m % 2 == 0)


def test_sphere_eigenvalue_read_off_the_polynomial():
    # |x|^2 restricts to a constant; x1^2 mixes eigenvalues 0 and 8
    assert C._sphere_eigenvalue(C._poly(C._S)) == 0
    with pytest.raises(RuntimeError):
        C._sphere_eigenvalue(C._poly(C._X[0] ** 2))


def test_so3_function_spectrum_bottom():
    evs = [m * (m + 2) for m in range(0, 9) if m % 2 == 0]
    assert evs[:3] == [0, 8, 24]


# ----------------------------------------------------------------------
# rate calculator
# ----------------------------------------------------------------------

def test_naive_weighted_exponent_matches_closed_form():
    B = Fr(-1, 5)
    for beta in (Fr(-1, 20), Fr(-1, 2), Fr(-1), Fr(-2), Fr(-3), Fr(-39, 10)):
        expo = C.jk_rate_bound(C.naive_gradient_table(B), beta - 2)
        assert expo == Fr(4, 5) * (2 - beta)


def test_naive_value_table_bounded():
    assert C.jk_rate_bound(C.naive_value_table(Fr(-1, 5)), 0) >= 0


def test_refined_certifies_thirteen_fifths():
    for beta in (Fr(-1, 20), Fr(-1, 4), Fr(-1), Fr(-3)):
        expo = C.jk_rate_bound(C.refined_gradient_table(), beta - 2)
        assert expo >= Fr(13, 5)


def test_linf_exponents():
    eps = Fr(1, 20)
    assert C.linf_exponent(Fr(8, 5), -eps) == Fr(3, 5) - eps
    assert C.linf_exponent(Fr(13, 5), -eps) == Fr(8, 5) - eps


def test_feasibility_thresholds():
    eps = Fr(1, 20)
    assert C.kappa_feasible(Fr(8, 5), -eps, eps)
    assert C.kappa_feasible(4, -eps, eps)
    assert not C.kappa_feasible(1, -eps, eps)
    with pytest.raises(ValueError):
        C.kappa_feasible(2, -5, eps)


def test_best_B_matches_the_chosen_one():
    B, expo = C.best_B(C.naive_gradient_table, Fr(-1, 20) - 2)
    assert B == Fr(-1, 5)
    assert expo == Fr(4, 5) * (2 + Fr(1, 20))


def test_uncovered_region_rejected():
    pieces = [C.RatePiece("core", 0, 0, [(0, 0)]),
              C.RatePiece("gap", Fr(-1, 2), Fr(-1, 2), [(1, 0)])]
    with pytest.raises(ValueError):
        C.jk_rate_bound(pieces, 0)


def test_empty_pieces_unconstrained():
    assert C.jk_rate_bound([], 0) is None
