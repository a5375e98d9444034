"""Fock-space trace oracles: known low-order values and cross-checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfock.fock import (
    LEGAL_OPS,
    a_generalized_trace,
    a_sector_trace,
    duality_trace,
    duality_trace_direct,
    eigenvalue,
    f1_charged_trace,
    neutral_trace,
)
from qfock.qseries import (
    HalfInt,
    NonTruncatable,
    Param,
    QSeriesError,
    Series,
    beta_scalar,
    pochhammer_inf,
    series_equal,
)

F = Fraction

T = Param(F(2, 3), label="t")
T2 = Param(F(3, 5), label="t2")
X = Param(F(2, 5), label="x")
Y = Param(F(3, 7), label="y")


def test_eigenvalue_examples():
    b = beta_scalar(T)
    assert eigenvalue("boson_pair", ((), ()), "A", T) == b
    root = F(2, 3)
    assert eigenvalue("boson_pair", ((1,), (1,)), "A", T) == root - 1 / root + b
    assert eigenvalue("boson_neutral", ((1,),), "C", T) == root - 1 / root + b
    with pytest.raises(QSeriesError):
        eigenvalue("boson_neutral", ((1,),), "A", T)


def test_sector_dims_first_coefficients():
    s = a_sector_trace(0, [], 20)
    assert [s.qcoeff_scalar(k) for k in range(4)] == [1, 1, 3, 6]


def test_sector_trace_low_orders():
    b = beta_scalar(T)
    s = a_sector_trace(0, [T], 6)
    assert s.qcoeff_scalar(0) == b
    assert s.qcoeff_scalar(1) == b - 1 / b


def test_generalized_trace_n0():
    # 1/((x q^(1/2))_inf (y q^(1/2))_inf)
    N = 10
    got = a_generalized_trace(X, Y, [], N)
    expect = (pochhammer_inf(X * Param(1, F(1, 2)), N) *
              pochhammer_inf(Y * Param(1, F(1, 2)), N)).invert()
    assert series_equal(got, expect)
    assert a_generalized_trace(Param(0), Param(0), [], 8).constant() == 1


def test_generalized_trace_slices_to_sectors():
    zx = Param(1, e=-1)
    zy = Param(1, e=1)
    full = a_generalized_trace(zx, zy, [T], 8)
    for m in (-1, 0, 2):
        assert series_equal(full.coeff_z(1, m), a_sector_trace(m, [T], 8))
    full2 = a_generalized_trace(zx, zy, [T, T2], 8)
    for m in (-1, 0, 2):
        assert series_equal(full2.coeff_z(1, m), a_sector_trace(m, [T, T2], 8))


def test_neutral_traces_n0():
    N = 10
    got = neutral_trace("boson_neutral", "C", [], N)
    expect = pochhammer_inf(Param(1, F(1, 2)), N).invert()
    assert series_equal(got, expect)
    got = neutral_trace("fermion_neutral", "D", [], N)
    expect = pochhammer_inf(Param(1, F(1, 2), sign=-1), N)
    assert series_equal(got, expect)


def test_neutral_one_point_low_orders():
    b = beta_scalar(T)
    root = F(2, 3)
    s = neutral_trace("boson_neutral", "C", [T], 6)
    assert s.qcoeff_scalar(0) == b
    # single state at energy 1/2: eigenvalue (t^(1/2) - t^(-1/2)) + beta
    assert s.qcoeff_scalar(F(1, 2)) == root - 1 / root + b


def test_neutral_antisymmetry():
    s = neutral_trace("boson_neutral", "C", [T], 6)
    sinv = neutral_trace("boson_neutral", "C", [T.inverse()], 6)
    assert series_equal(s, -sinv)


def test_f1_charge_zero_dims():
    z = Param(1, e=1)
    s = f1_charged_trace(z, [], 8).coeff_z(1, 0)
    # charge-0 strict-pair dimensions 1, 1, 2, 3, 5, ... = 1/(q)_inf slice
    assert [s.qcoeff_scalar(k) for k in range(5)] == [1, 1, 2, 3, 5]
    # k <-> -k symmetry
    full = f1_charged_trace(z, [], 8)
    assert series_equal(full.coeff_z(1, 2), full.coeff_z(1, -2))


def test_f1_vacuum_eigenvalue():
    z = Param(1, e=1)
    s = f1_charged_trace(z, [T], 6).coeff_z(1, 0)
    assert s.qcoeff_scalar(0) == -beta_scalar(T)


def test_c_equals_a_minus_a_inverse():
    for state in (((), ()), ((2, 1), (1,)), ((3,), (2, 2))):
        assert eigenvalue("boson_pair", state, "C", T) == \
            eigenvalue("boson_pair", state, "A", T) - \
            eigenvalue("boson_pair", state, "A", T.inverse())


def test_duality_single_factor_reduces():
    got = duality_trace(["boson_pair"], "A", [T], 6)
    zx = Param(1, e=-1)
    zy = Param(1, e=1)
    expect = a_generalized_trace(zx, zy, [T], 6)
    assert series_equal(got, expect)


def test_duality_n0_factorizes():
    got = duality_trace(["boson_pair", "boson_pair"], "A", [], 6)
    one = duality_trace(["boson_pair"], "A", [], 6)
    prod = one * Series(one.trunc2, {(q2, tuple((2, e) for _, e in zk)): c
                                     for (q2, zk), c in one.terms.items()})
    assert series_equal(got, prod)


def test_duality_vacuum_level_minus2():
    got = duality_trace(["boson_pair", "boson_pair"], "A", [T], 4)
    # coefficient of z1^0 z2^0 q^0 is 2*beta
    assert got.coeff_z(1, 0).coeff_z(2, 0).qcoeff_scalar(0) == 2 * beta_scalar(T)


@pytest.mark.parametrize("factors,op", [
    (["boson_pair", "boson_pair"], "A"),
    (["boson_pair", "boson_pair"], "C"),
    (["boson_neutral", "fermion_pair"], "C"),
    (["boson_pair", "fermion_neutral"], "D"),
])
def test_duality_convolution_vs_direct(factors, op):
    for pts in ([], [T], [T, T2]):
        a = duality_trace(factors, op, pts, 2)
        b = duality_trace_direct(factors, op, pts, 2)
        assert series_equal(a, b)


def test_shifted_points_rejected():
    with pytest.raises(NonTruncatable):
        a_sector_trace(0, [Param(F(2, 3), 1)], 4)


KINDS = ("boson_pair", "fermion_pair", "boson_neutral", "fermion_neutral")
point_st = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)) \
    .filter(lambda s: abs(s) != 1).map(Param)


@settings(max_examples=25, deadline=None)
@given(st.lists(point_st, max_size=3), st.integers(0, 6),
       st.lists(st.sampled_from(KINDS), min_size=1, max_size=2),
       st.sampled_from("ACD"))
def test_traces_match_direct_enumeration(pts, n2, factors, op):
    """Every factorized trace against the state-by-state tensor-product
    enumeration, at random rational points."""
    N = HalfInt(twice=n2)
    z = Param(1, e=1)
    pair = duality_trace_direct(("boson_pair",), "A", pts, N)
    assert a_generalized_trace(Param(1, e=-1), z, pts, N) == pair
    for m in range(-2, 3):
        assert a_sector_trace(m, pts, N) == pair.coeff_z(1, m)
    assert f1_charged_trace(z, pts, N) == \
        duality_trace_direct(("fermion_pair",), "A", pts, N)
    for kind, tag in (("boson_neutral", "C"), ("fermion_neutral", "D")):
        assert neutral_trace(kind, tag, pts, N) == \
            duality_trace_direct((kind,), tag, pts, N)
    if all(op in LEGAL_OPS[kind] for kind in factors):
        assert duality_trace(factors, op, pts, N) == \
            duality_trace_direct(factors, op, pts, N)
    else:
        with pytest.raises(QSeriesError):
            duality_trace(factors, op, pts, N)
        if pts:
            with pytest.raises(QSeriesError):
                duality_trace_direct(factors, op, pts, N)
