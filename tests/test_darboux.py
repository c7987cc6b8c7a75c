import warnings

import numpy as np
import pytest

from bladegauge.blade import extract_potential
from bladegauge.darboux import (darboux_data, darboux_frame,
                                darboux_one_form, darboux_potential, expr_field,
                                frame_residual_report, verify_rank)
from bladegauge.em import em_frame, EmFrameParams
from bladegauge.errors import DomainError, ParameterError, RankError
from bladegauge.fields import FieldFn
from bladegauge.linalg import max_abs
from bladegauge.tolerances import DEFAULT as TOL


BOX = dict(lo=[-0.8] * 4, hi=[0.8] * 4)


def test_parser_arithmetic_and_precedence(st4):
    e = expr_field("1 + 2 * 3 - 4 / 2", st4)
    assert abs(e(np.zeros(4)) - 5.0) < 1e-14
    e2 = expr_field("(1 + 2) * 3", st4)
    assert abs(e2(np.zeros(4)) - 9.0) < 1e-14
    e3 = expr_field("-x1 * x1 + pi", st4)
    assert abs(e3(np.array([0, 2.0, 0, 0])) - (np.pi - 4.0)) < 1e-14


def test_parser_functions(st4):
    x = np.array([0.3, 0.5, 0, 0])
    assert abs(expr_field("sin(x0)", st4)(x) - np.sin(0.3)) < 1e-14
    assert abs(expr_field("cos(x0 * x1)", st4)(x) - np.cos(0.15)) < 1e-14
    assert abs(expr_field("arccos(x1)", st4)(x) - np.arccos(0.5)) < 1e-14
    assert abs(expr_field("sqrt(x1)", st4)(x) - np.sqrt(0.5)) < 1e-14


def test_parser_errors(st4):
    with pytest.raises(ParameterError):
        expr_field("x9", st4)
    with pytest.raises(ParameterError):
        expr_field("foo(x0)", st4)
    with pytest.raises(ParameterError):
        expr_field("1 +", st4)
    with pytest.raises(ParameterError):
        expr_field("x0 x1", st4)
    with pytest.raises(ParameterError):
        expr_field("@", st4)


@pytest.mark.parametrize("src", [
    "1e", "1..2", "(" * 300 + "x0" + ")" * 300, " + ".join(["x0"] * 5000), "x0**2", "1j",
    "x0.real", "__import__('os')", "sin(x0, x1)", "sin(x=x0)", "+x0",
], ids=["1e", "1..2", "300_parens", "5000_terms", "power", "complex", "attribute",
        "import", "two_args", "keyword", "unary_plus"])
def test_expr_field_rejects_what_the_grammar_lacks(src, st4):
    with pytest.raises(ParameterError):
        expr_field(src, st4)


def test_expr_field_depth_cap(st4):
    x = np.array([0.1, 0.2, 0.3, 0.4])
    ok = " + ".join(["x0 * x1"] * 150)
    assert abs(expr_field(ok, st4)(x) - 150 * 0.02) < 1e-12
    with pytest.raises(ParameterError, match="deeper than 200"):
        expr_field(" + ".join(["x0 * x1"] * 250), st4)


def test_expr_field_symbolic_derivatives(points4, st4):
    f = expr_field("sin(x0 * x1) + cos(x2) / (1 + x3 * x3)", st4)
    fd = f.without_analytic_derivs()
    for x in points4:
        for mu in range(4):
            assert abs(f.d(x, mu) - fd.d(x, mu)) < 1e-6
        assert abs(f.d2(x, 0, 1) - f.d2(x, 1, 0)) < 1e-12


def test_darboux_potential_single_pair(points4, st4):
    data = darboux_data(st4, [("x0", "x1")], **BOX)
    a = darboux_potential(data)
    for x in points4:
        assert abs(a.at(x, 1)[0, 0] - x[0]) < 1e-14
        assert abs(a.at(x, 0)[0, 0]) < 1e-14
        assert abs(a.at(x, 2)[0, 0]) < 1e-14


def test_darboux_potential_empty_is_zero(st4):
    data = darboux_data(st4, [], **BOX)
    a = darboux_potential(data)
    assert max_abs(a.at(np.zeros(4), 0)) == 0.0


def test_darboux_frame_two_pair_contract(st4):
    # A = x0 dx1 + x2 dx3: the non-decomposable case needing N = 4
    data = darboux_data(st4, [("x0", "x1"), ("x2", "x3")], **BOX)
    assert data.N == 4
    v = darboux_frame(data)
    assert v.shape == (4, 1)
    a_frame = extract_potential(v)
    a_decl = darboux_potential(data)
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.uniform(-0.8, 0.8, 4)
        assert abs(np.linalg.norm(v(x)) - 1.0) < 1e-12
        for mu in range(4):
            diff = abs(a_frame.at(x, mu)[0, 0] - a_decl.at(x, mu)[0, 0])
            assert diff < 1e-10


def test_darboux_frame_single_pair_reduces_to_em(st4, points4):
    # r = 0: the block construction is exactly the two-component parametrization
    data = darboux_data(st4, [("x0", "x1")], **BOX)
    v = darboux_frame(data)
    assert v.shape[0] == 2
    pi0 = expr_field("x0", st4)
    phi0 = expr_field("x1", st4)
    rho = 0.5 * _arccos_field(pi0)
    params = EmFrameParams(alpha=phi0, beta=-1.0 * phi0, rho=rho)
    vem = em_frame(params)
    for x in points4:
        assert max_abs(v(x) - vem(x)) < 1e-12


def _arccos_field(f):
    from bladegauge.fields import mapped
    return mapped(f, np.arccos,
                  lambda u: -1.0 / np.sqrt(1 - u * u),
                  lambda u: -u / (1 - u * u) ** 1.5)


def test_darboux_frame_plane_wave_pair(st4):
    # A = sin(k.x) d(n.x) as a single darboux pair, with phases scaled to keep
    # |pi| <= 1 on the box
    data = darboux_data(st4, [("sin(x0 - x3)", "x1")], **BOX)
    v = darboux_frame(data)
    a_frame = extract_potential(v)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, 4)
        want = np.sin(x[0] - x[3])
        assert abs(a_frame.at(x, 1)[0, 0] - want) < 1e-10


def test_darboux_domain_error_names_pair(st4):
    data = darboux_data(st4, [("2 * x0", "x1")], lo=[-0.3] * 4, hi=[0.3] * 4)
    v = darboux_frame(data)
    with pytest.raises(DomainError, match="pi_0"):
        v(np.array([0.9, 0, 0, 0]))


def test_darboux_data_validation_rejects_large_pi(st4):
    with pytest.raises(DomainError):
        darboux_data(st4, [("2 * x0", "x1")], **BOX)


# sqrt of a negative coordinate is NaN, which |pi| > 1 alone lets through; under the
# warnings-as-errors policy numpy's invalid-value warning must not come first either
@pytest.mark.parametrize("pi", ["0.5*sqrt(x0)", "sqrt(x0-5)"], ids=["partly_nan", "all_nan"])
def test_darboux_rejects_a_pi_that_is_not_finite(st4, pi):
    with pytest.raises(DomainError, match=r"pi_0 is not finite at \["):
        darboux_data(st4, [(pi, "x1")], **BOX)
    v = darboux_frame(darboux_data(st4, [(pi, "x1")], **BOX, validate=False))
    with pytest.raises(DomainError, match=r"pi_0 is not finite at \[-4.0, 0.0, 0.0, 0.0\]"):
        v(np.array([-4.0, 0, 0, 0]))


# the frame's cos(rho_k) and sin(rho_k) read one checked pi_k, and a query evaluates each
# field node once, so pi_k's value runs once per value, d or d2 query of the frame
def test_darboux_frame_query_evaluates_pi_once(st4):
    base = expr_field("0.5*sin(x0)", st4)
    calls = []

    def counted(x):
        calls.append(len(x))
        return base(x)

    pi = FieldFn(st4, (), counted, base.deriv, base.deriv2)
    v = darboux_frame(darboux_data(st4, [(pi, "x1")], **BOX))
    x = np.random.default_rng(3).uniform(-0.5, 0.5, (3, 4))
    for query in (lambda: v(x), lambda: v.d(x, 0), lambda: v.d2(x, 0, 1)):
        calls.clear()
        query()
        assert calls == [3]


# a NaN phi_k or gradient row must not reach matrix_rank, whose SVD fails on it; the
# second pair's phi, arccos(1 + 0 x0) = 0, is finite while its gradient inf * 0 is not
@pytest.mark.parametrize("pairs,message", [
    ([("0.5*sin(x0)", "sqrt(x0-5)")], r"phi_0 is not finite at \["),
    ([("0.5*sin(x0)", "sqrt(x0)")], r"phi_0 is not finite at \[-"),
    ([("0.5*sin(x0)", "x1"), ("0.4*cos(x2)", "arccos(1 + 0*x0)")],
     r"the gradient of phi_1 is not finite at \["),
], ids=["all_nan", "partly_nan", "gradient_only"])
def test_darboux_rejects_a_phi_that_is_not_finite(st4, pairs, message):
    with pytest.raises(DomainError, match=message):
        darboux_data(st4, pairs, **BOX)


def test_darboux_dependent_pairs_warn(st4):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        darboux_data(st4, [("x0", "x0")], **BOX)
    assert any("dependent" in str(w.message) for w in caught)


def test_verify_rank_two_pair(st4):
    data = darboux_data(st4, [("x0", "x1"), ("x2", "x3")], **BOX)
    assert verify_rank(data) == 1


def test_verify_rank_constant_pi(st4):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant pi makes the pair degenerate
        data = darboux_data(st4, [("0.5", "x1")], **BOX)
        assert verify_rank(data) == 0


def test_verify_rank_single_pair_tie_down(st4):
    # A = x0 dx1 has dA != 0 but A ^ dA = 0: measured rank 0, pairs - 1 = 0
    data = darboux_data(st4, [("x0", "x1")], **BOX)
    assert verify_rank(data) == 0


def test_verify_rank_dimension_guard(st4):
    data = darboux_data(st4, [("x0", "x1"), ("0.5 * x2", "x3"),
                              ("0.25 * sin(x0)", "x2")],
                        **BOX)
    with pytest.raises(RankError):
        verify_rank(data)


def test_frame_residual_report_flags_near_singular(st4):
    data = darboux_data(st4, [("x0", "x1")], lo=[-1.0, -0.8, -0.8, -0.8],
                        hi=[1.0, 0.8, 0.8, 0.8], validate=False)
    pts = [np.array([1.0 - 1e-12, 0.1, 0.2, 0.3]),
           np.array([0.2, 0.1, 0.2, 0.3])]
    rep = frame_residual_report(data, pts)
    assert len(rep["near_singular_points"]) == 1
    assert rep["points_checked"] == 1
    assert rep["max_residual"] < 1e-10


def test_darboux_two_pair_not_decomposable(st4, rng):
    # F ^ F != 0 for the two-pair fixture: this is why N = 4 is needed
    from bladegauge.fields import exterior_d, form_values, wedge
    data = darboux_data(st4, [("x0", "x1"), ("x2", "x3")], **BOX)
    da = exterior_d(darboux_one_form(data))
    x = rng.uniform(-0.5, 0.5, 4)
    vals = form_values(da, x)
    ff = wedge(vals, vals)
    assert max(abs(v) for v in ff.values()) > 1.0


@pytest.mark.parametrize("src", ["sqrt(1.5 + x0 * x1)", "arccos(0.4 * x2 - 0.3 * x0)",
                                 "x1 / (2 + cos(x3))"])
def test_expr_field_derivatives_match_fd(src, points4, st4):
    f = expr_field(src, st4)
    fd = f.without_analytic_derivs()
    for x in points4:
        for mu in range(4):
            assert abs(f.d(x, mu) - fd.d(x, mu)) < TOL.fd()
            for nu in range(4):
                assert abs(f.d2(x, mu, nu) - fd.d2(x, mu, nu)) < TOL.fd_nested()


def test_darboux_frame_derivatives_match_fd(points4, st4):
    # the half-angle blocks cos(rho_k), sin(rho_k) get both orders from the chain rule
    pairs = [("0.5*sin(x0)", "x1"), ("0.4*cos(x2)", "x3")]
    v = darboux_frame(darboux_data(st4, pairs, [-0.8] * 4, [0.8] * 4))
    fd = v.without_analytic_derivs()
    for x in points4:
        for mu in range(4):
            assert max_abs(v.d(x, mu) - fd.d(x, mu)) < TOL.fd()
            for nu in range(4):
                assert max_abs(v.d2(x, mu, nu) - fd.d2(x, mu, nu)) < TOL.fd_nested()
