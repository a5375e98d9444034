"""Series ring, Pochhammer products, hypergeometric sums, theta jets."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qfock import closedform as cf, combinat, verify
from qfock.qseries import (
    DegenerateParameter,
    IllegalPower,
    NonTruncatable,
    NotInvertible,
    Param,
    QSeriesError,
    Series,
    beta_scalar,
    c_term,
    first_difference,
    pochhammer_inf,
    pochhammer_n,
    power,
    qhyper,
    series_equal,
    series_from_json,
    series_to_json,
    theta,
    theta_jet,
    to2,
    zkey,
    _chain,
    _chain_sum,
    _factor,
    _one_point_nest,
    _half,
    _over_one_minus,
    _over_pochhammer,
    _pochhammer_factors,
    _product_slices,
    _times_pochhammer,
    _zmul,
)
from reference import (_one_minus, _outcome, _ref, _ref_add, _ref_coeff_z,
                       _ref_invert, _ref_kept, _ref_mul, _ref_over_factor,
                       _ref_scale, _ref_times_factor, qcoeff,
                       reference_one_point_nest)

F = Fraction


def q(exp, N, c=1):
    return Series.monomial(c, F(exp), N)


def assert_canonical(s):
    """The stored form is canonical: integer numerators, none zero, over a
    positive denominator that shares no factor with all of them, and no key
    above the truncation.  == and hash rely on it."""
    assert type(s.den) is int and s.den > 0
    assert all(type(n) is int and n for n in s.nums.values())
    assert math.gcd(s.den, *s.nums.values()) == 1
    assert all(q2 <= s.trunc2 for q2, _ in s.nums)


def test_to2_takes_half_integers_only():
    assert [to2(x) for x in (3, F(3, 2), F(-1, 2), F(4, 2))] == [6, 3, -1, 4]
    for bad in (F(1, 3), F(-5, 4)):
        with pytest.raises(IllegalPower):
            to2(bad)
    trunc = Series.one(F(7, 2)).truncation
    assert type(trunc) is F and trunc == F(7, 2)


def test_add_mul_polynomials():
    N = 5
    one = Series.one(N)
    a = one + q(1, N)      # 1 + q
    b = one - q(1, N)      # 1 - q
    assert series_equal(a * b, one - q(2, N))
    assert (a - a).is_zero()
    h = one + q(F(1, 2), N)
    assert series_equal(h * h, one + q(F(1, 2), N, 2) + q(1, N))


def test_invert_geometric():
    N = 6
    s = (Series.one(N) - q(1, N)).invert()
    expect = Series.one(N)
    for k in range(1, 7):
        expect = expect + q(k, N)
    assert series_equal(s, expect)


def test_invert_monomial_and_roundtrip():
    N = 4
    m = q(F(1, 2), N)
    assert series_equal(m.invert(), Series.monomial(1, F(-1, 2), m.invert().truncation))
    a = Series.const(2, N) - q(1, N, 2)
    assert series_equal(a * a.invert(), Series.one(N))
    with pytest.raises(NotInvertible):
        Series.zero(N).invert()
    with pytest.raises(NotInvertible):
        (Series.one(N) + Series.monomial(1, 0, N, {1: 1})).invert()


def test_coeff_z():
    N = 3
    s = Series.monomial(1, 0, N, {1: 1}) + Series.monomial(3, 1, N, {1: 2})
    assert series_equal(s.coeff_z(1, 2), q(1, N, 3))
    assert series_equal(s.coeff_z(1, 0), Series.zero(N))
    plain = Series.one(N) + q(1, N)
    assert series_equal(plain.coeff_z(1, 0), plain)
    assert plain.coeff_z(1, 1).is_zero()


def test_param_power():
    t = Param(F(2, 3))
    assert qcoeff(power(t, F(1, 2), 4), 0) == F(2, 3)
    t = Param(F(2, 3), 1)
    s = power(t, F(3, 2), 4)
    assert s.terms == {(3, ()): F(8, 27)}
    x = Param(1, F(1, 2), e=-1)
    s = power(x, 2, 4)
    assert s.terms == {(2, ((1, -4),)): F(1)}
    with pytest.raises(IllegalPower):
        power(Param(1, F(1, 2)), F(1, 2), 4)


def test_c_term():
    t = Param(F(2, 3))
    assert qcoeff(c_term(t, 4), 0) == F(6, 5)
    assert beta_scalar(t) == F(6, 5)
    # t = q: q^(1/2)(1 + q + q^2 + ...)
    s = c_term(Param(1, 1), F(7, 2))
    assert s.terms == {(1, ()): F(1), (3, ()): F(1), (5, ()): F(1), (7, ()): F(1)}
    s = c_term(Param(F(2, 3), 1), F(3, 2))
    assert s.terms == {(1, ()): F(2, 3), (3, ()): F(8, 27)}
    with pytest.raises(DegenerateParameter):
        c_term(Param(1), 4)


def test_pochhammer_n():
    N = 6
    assert series_equal(pochhammer_n(Param(F(2, 3)), 0, N), Series.one(N))
    qq = pochhammer_n(Param(1, 1), 2, N)
    assert series_equal(qq, Series.one(N) - q(1, N) - q(2, N) + q(3, N))
    s = pochhammer_n(Param(F(2, 3), 1), 1, N)
    assert series_equal(s, Series.one(N) - q(1, N, F(4, 9)))


def test_pochhammer_inf_euler():
    # pentagonal-number expansion of (q)_inf
    s = pochhammer_inf(Param(1, 1), 12)
    expect = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
    for k in range(13):
        assert qcoeff(s, k) == expect.get(k, 0)


def test_pochhammer_inf_scalar_leading_factor():
    # d = 0 argument: scalar factor (1 - s^2) at i = 0, then truncatable
    a = Param(F(3, 5))  # value 9/25
    s = pochhammer_inf(a, 3)
    byhand = Series.one(3)
    for i in range(4):
        byhand = byhand * (Series.one(3) - q(i, 3, F(9, 25)))
    assert series_equal(s, byhand)


def test_qhyper_phi21_00():
    # 2Phi1(0,0;q;q) = sum q^n/((q)_n)^2 = 1 + q + 3q^2 + ...
    zero = Param(0)
    s = qhyper([zero, zero], [Param(1, 1)], Param(1, 1), 8)
    byhand = Series.zero(8)
    for n in range(9):
        term = Series.monomial(1, n, 8)
        pn = pochhammer_n(Param(1, 1), n, 8)
        term = term * (pn * pn).invert()
        byhand = byhand + term.truncate(8)
    assert series_equal(s, byhand)
    assert qcoeff(s, 0) == 1
    assert qcoeff(s, 1) == 1
    assert qcoeff(s, 2) == 3


def test_qhyper_n0_layer():
    t = Param(F(2, 3))
    s = qhyper([Param(0), Param(0), Param(1, 1)],
               [t.qshift(1), Param(1, 1)], Param(1, 1), 0)
    assert qcoeff(s, 0) == 1


@pytest.mark.parametrize("d", [F(-1, 2), -1, F(-3, 2)])
def test_qhyper_negative_valuation_is_exact_to_N(d):
    """An argument of negative valuation puts the first terms below q^0;
    the sum is still exact to N: it is the sum to a higher order, cut."""
    for upper, lower in (([], []), ([Param(F(2, 3), 1)], [Param(F(3, 5), 1)]),
                         ([], [Param(F(1, 2), F(1, 2))])):
        for N in (3, F(7, 2)):
            got = qhyper(upper, lower, Param(F(1, 2), d), N)
            assert got.trunc2 == to2(N)
            assert got == qhyper(upper, lower, Param(F(1, 2), d),
                                 N + 6).truncate(N)


def test_qhyper_lower_unit_point_needs_no_charge():
    """b = 1 makes (b)_n vanish; b = z does not, and 1/(1 - z) has no
    q-expansion, so it is refused as _over_one_minus refuses it."""
    with pytest.raises(DegenerateParameter):
        qhyper([], [Param(1)], Param(1, 1), 2)
    with pytest.raises(NotInvertible):
        qhyper([], [Param(1, 0, e=1)], Param(1, 1), 2)


def test_exponential_identity_left():
    # sum_m (-z)^m q^(m(m-1)/2)/(q)_m = (z)_inf
    for zp in (Param(1, 1), Param(F(2, 3), 1)):
        N = 20
        lhs = Series.zero(N)
        m = 0
        while m * zp.qval2() // 2 + m * (m - 1) <= 2 * N:
            c, q2, zk = zp.pow_monomial(m)
            term = Series(2 * N, {(q2 + m * (m - 1), zk): c * (-1) ** m})
            term = term * pochhammer_n(Param(1, 1), m, N).invert()
            lhs = lhs + term.truncate(N)
            m += 1
        assert series_equal(lhs, pochhammer_inf(zp, N))


def test_exponential_identity_right():
    # sum_l (a)_l z^l/(q)_l = (az)_inf/(z)_inf
    N = 20
    a = Param(F(2, 3))
    zp = Param(1, 1)
    lhs = Series.zero(N)
    for l in range(2 * N + 1):
        c, q2, zk = zp.pow_monomial(l)
        if q2 > 2 * N:
            break
        term = Series(2 * N, {(q2, zk): c})
        term = term * pochhammer_n(a, l, N)
        term = term * pochhammer_n(Param(1, 1), l, N).invert()
        lhs = lhs + term.truncate(N)
    rhs = pochhammer_inf(a * zp, N) * pochhammer_inf(zp, N).invert()
    assert series_equal(lhs, rhs)


def test_theta_constant_layer():
    t = Param(F(2, 3))
    s = theta(t, 5)
    assert qcoeff(s, 0) == F(2, 3) - F(3, 2)
    assert theta(Param(1), 10).is_zero()


def test_theta_jet_triple_product():
    # Theta'(1) * (q)_inf^3 = sum (-1)^m (2m+1) q^(m(m+1)/2)
    N = 20
    jet = theta_jet(Param(1), 1, N)
    qinf = pochhammer_inf(Param(1, 1), N)
    lhs = jet[1] * qinf * qinf * qinf
    rhs = Series.zero(N)
    m = 0
    while m * (m + 1) // 2 <= N:
        rhs = rhs + Series.monomial((-1) ** m * (2 * m + 1), m * (m + 1) // 2, N)
        m += 1
    assert series_equal(lhs, rhs)


def test_theta_jet_chain_rule():
    # lower-order jet coefficients are stable as the jet order grows
    t = Param(F(2, 3))
    j2 = theta_jet(t, 2, 8)
    j3 = theta_jet(t, 3, 8)
    for k in range(3):
        assert series_equal(j2[k], j3[k])


def test_serialization_roundtrip():
    s = (Series.one(5) - q(1, 5, F(2, 3))).invert() + Series.monomial(
        F(-7, 3), F(3, 2), 4, {1: -2, 2: F(1, 2)})
    obj = series_to_json(s)
    back = series_from_json(obj)
    assert back.trunc2 == s.trunc2 and back.terms == s.terms


# -- property tests ---------------------------------------------------------

coeffs = st.fractions(max_denominator=9)
keys = st.tuples(st.integers(min_value=-4, max_value=8),
                 st.sampled_from([(), ((1, 2),), ((1, -1),), ((2, 1),)]))
series_strategy = st.dictionaries(keys, coeffs, max_size=5).map(
    lambda d: Series(8, d))


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_axioms(a, b, c):
    assert series_equal((a + b) * c, a * c + b * c)
    assert series_equal(a * b, b * a)
    assert series_equal((a * b) * c, a * (b * c))


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy)
def test_truncation_coherence(a, b):
    full = a * b
    assert series_equal(full.truncate(3), a.truncate(3) * b.truncate(3))
    assert series_equal((a + b).truncate(3), a.truncate(3) + b.truncate(3))


@settings(max_examples=40, deadline=None)
@given(series_strategy)
def test_invert_round_trip(a):
    mins = [k for k in a.terms if k[0] == a.min2()]
    if len(mins) != 1:
        return
    assert series_equal(a * a.invert(), Series.one(F(a.trunc2, 2)))


# -- products against the {key: Fraction} ring -----------------------------


# primes and prime powers of 2 to about 100 bits; one base per term keeps
# the denominators of an operand pairwise coprime
_DENOMINATOR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1)
_Z_KEYS = st.sampled_from([(), ((1, 1),), ((1, -3),), ((1, 2), (2, -1)),
                           ((2, 1),)])


# 0-3 charge variables, sometimes with a gap (z_1 and z_3 without z_2), and
# the doubled exponents they take: small or up to +-2^40
CHARGE_LAYOUTS = st.tuples(
    st.sampled_from([(), (1,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]),
    st.sampled_from([st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40)]))


def _zkeys_on(zvars, e2s):
    """z-keys on the charge variables zvars, doubled exponents from e2s."""
    return st.just(()) if not zvars else st.dictionaries(
        st.sampled_from(zvars), e2s).map(
        lambda d: zkey({v: F(e2, 2) for v, e2 in d.items()}))


@st.composite
def coprime_series(draw, zkeys, max_size=6):
    """A series at a truncation of either sign whose coefficients have
    pairwise coprime denominators of up to about 100 bits, on keys with
    negative and half-integer q-exponents and z-keys drawn from zkeys."""
    trunc2 = draw(st.integers(-4, 10))
    keys = draw(st.lists(st.tuples(st.integers(-6, trunc2), zkeys),
                         unique=True, max_size=max_size))
    bases = draw(st.permutations(_DENOMINATOR_BASES))
    terms = {}
    for key, p in zip(keys, bases):
        e = draw(st.integers(0, max(0, 100 // p.bit_length())))
        terms[key] = F(draw(st.integers(-10 ** 30, 10 ** 30).filter(bool)),
                       p ** e)
    return Series(trunc2, terms)


@st.composite
def mul_operands(draw):
    """Two series, or a series and an int or Fraction scalar.  The z-keys
    come from one charge layout of CHARGE_LAYOUTS, each operand on a subset
    of its variables, so the operands share all, some or none of them.
    With cancel, the operands are s + m and s - m, whose product s^2 - m^2
    loses the cross terms s*m at every key s^2 and m^2 do not reach."""
    zvars, e2s = draw(CHARGE_LAYOUTS)

    def series(max_size=6):
        some = draw(st.lists(st.sampled_from(zvars), unique=True)) \
            if zvars else ()
        return draw(coprime_series(_zkeys_on(some, e2s), max_size))

    a = series()
    kind = draw(st.sampled_from(["series", "cancel", "int", "fraction"]))
    if kind == "series":
        return a, series()
    if kind == "int":
        return a, draw(st.integers(-10 ** 20, 10 ** 20))
    if kind == "fraction":
        return a, draw(st.fractions(max_denominator=2 ** 100))
    m = series(max_size=1)
    return a + m, a - m


@settings(max_examples=300, deadline=None)
@given(mul_operands())
@example((Series.zero(3), Series(5, {(-2, ()): F(1, 3)})))   # zero on the left
@example((Series(5, {(-2, ()): F(1, 3)}), Series.zero(3)))   # zero on the right
@example((Series.zero(3), Series.zero(F(1, 2))))             # both zero
@example((Series(2, {(0, ()): F(1), (2, ()): F(1, 3)}),      # pairs beyond
          Series(4, {(-2, ()): F(1, 5), (4, ()): F(1)})))    # the truncation
@example((Series(4, {(0, ()): F(1), (1, ((1, 1),)): F(1, 2 ** 89 - 1)}),
          Series(4, {(0, ()): F(1), (1, ((1, 1),)): F(-1, 2 ** 89 - 1)})))
@example((Series(3, {(-1, ((1, -3),)): F(7, 3 ** 60)}), F(5, 2 ** 61 - 1)))
@example((Series(3, {(-1, ((1, -3),)): F(7, 3 ** 60)}), -4))
# exponents that sum to twice a field's reach: +-3 on z_1 on both sides
@example((Series(4, {(0, ((1, 3),)): F(1, 2), (1, ((1, -3),)): F(2)}),
          Series(3, {(-1, ((1, -3),)): F(3), (2, ((1, 3),)): F(-1, 7)})))
# the same at -2^40 on z_1 and z_3, with a gap at z_2, and a cancelling pair
@example((Series(6, {(-2, ((1, -2 ** 40), (3, -2 ** 40))): F(2, 3),
                     (1, ((1, 1),)): F(1)}),
          Series(5, {(0, ((1, -2 ** 40), (3, -2 ** 40))): F(-5),
                     (3, ((3, 2 ** 40),)): F(1, 11)})))
# operands on disjoint variables, as the charge-resolved vacuum at l = 2
@example((Series(4, {(0, ()): F(1), (1, ((1, 1),)): F(-1),
                     (1, ((1, -1),)): F(-1)}),
          Series(4, {(0, ()): F(1), (1, ((2, 1),)): F(-1),
                     (3, ((2, -2),)): F(1, 3)})))
def test_mul_matches_fraction_loop(operands):
    """The product equals the Fraction ring's, or its scaling for a
    scalar operand, and is canonical: on 0-3 charge variables with gaps,
    exponents up to 2^40 and operands on disjoint variables."""
    a, b = operands
    new = a * b
    ref = _ref_mul if isinstance(b, Series) else _ref_scale
    assert _ref(new) == ref(_ref(a), _ref(b) if isinstance(b, Series) else b)
    assert_canonical(new)
    if not isinstance(b, Series):
        assert b * a == new


def _charged_pair(N, var=1):
    """(z q^(1/2))_inf and (z^(-1) q^(1/2))_inf on z_var, to q^N."""
    return [pochhammer_inf(Param(1, F(1, 2), e=e, zvar=var), N)
            for e in (1, -1)]


@pytest.mark.parametrize("operands", [
    lambda: _charged_pair(16),
    lambda: [(a * b).invert() for a, b in (_charged_pair(10, 1),
                                           _charged_pair(10, 2))]],
    ids=["pair-z1-N16", "inverse-pairs-z1-z2-N10"])
def test_mul_joins_charge_keys_by_codes(operands, monkeypatch):
    """A charged product adds integer keys: (z q^(1/2))_inf times
    (z^(-1) q^(1/2))_inf, and the inverses of that pair on z_1 and on z_2
    (the full charge-resolved vacuum at l = 2, N = 10), join no z-keys and
    equal the Fraction ring's product."""
    from qfock import qseries
    a, b = operands()
    calls = []

    def counting_zmul(x, y, _zmul=qseries._zmul):
        calls.append(1)
        return _zmul(x, y)

    monkeypatch.setattr(qseries, "_zmul", counting_zmul)
    got = a * b
    monkeypatch.undo()
    assert calls == []
    assert _ref(got) == _ref_mul(_ref(a), _ref(b))


# -- weighted z-slices of a product against the sliced Fraction product ----


def _head(zk, l):
    """The doubled exponents of the z-key zk on z_1..z_l."""
    d = dict(zk)
    return tuple(d.get(v, 0) for v in range(1, l + 1))


@st.composite
def slice_requests(draw):
    """(a, b, l, weights) for _product_slices.  The operands are on one
    layout of CHARGE_LAYOUTS, each on a subset of its variables, and
    l in {1, 2, 3}, so a variable beyond z_l may stay in the result.  The
    weights are keyed by heads on z_1..z_l, drawn from the heads that term
    pairs of a * b reach (hits) or at random (mostly misses), weight 0
    included.  Half the time b becomes c + c z^d, with the weights w at h
    and -w at h + d, so the slice of a * c at h enters once with each
    sign and cancels."""
    zvars, e2s = draw(CHARGE_LAYOUTS)
    l = draw(st.integers(1, 3))

    def series():
        some = draw(st.lists(st.sampled_from(zvars), unique=True)) \
            if zvars else ()
        return draw(coprime_series(_zkeys_on(some, e2s)))

    a, b = series(), series()
    head = st.tuples(*[e2s] * l)
    hits = sorted({_head(_zmul(az, bz), l) for _, az in a.nums
                   for _, bz in b.nums})
    if hits:
        head = st.one_of(st.sampled_from(hits), head)
    weights = draw(st.dictionaries(head, st.integers(-3, 3), max_size=4))
    if draw(st.booleans()):
        d = draw(st.tuples(*[e2s] * l).filter(any))
        dk = tuple((v, e2) for v, e2 in enumerate(d, 1) if e2)
        b = b + Series(b.trunc2, {(q2, _zmul(zk, dk)): c
                                  for (q2, zk), c in b.terms.items()})
        h, w = draw(head), draw(st.integers(1, 3))
        weights[h] = w
        weights[tuple(x + y for x, y in zip(h, d))] = -w
    return a, b, l, weights


def _ref_slices(a, b, l, weights):
    """sum_h weights[h] [z_1^h_1 ... z_l^h_l] of the Fraction product."""
    prod = _ref_mul(a, b)
    out = (prod[0], {})
    for h, w in weights.items():
        s = prod
        for var, e2 in enumerate(h, 1):
            s = _ref_coeff_z(s, var, e2)
        out = _ref_add(out, _ref_scale(s, w))
    return out


@settings(max_examples=300, deadline=None)
@given(slice_requests())
# qdiff's shape: both operands on z_1, the z^1 slice
@example((pochhammer_inf(Param(1, F(1, 2), e=1), 3),
          cf.pair_vacuum(Param(1, 0, -1), Param(1, 0, 1), 3), 1,
          {(2,): 1}))
# the l = 2 charge-resolved shape: the inverse pairs on z_1 and on z_2,
# weighted by the Weyl shifts of the label (1, 0)
@example((verify.charge_resolved_pair_inverse(1, 4),
          verify.charge_resolved_pair_inverse(2, 4), 2,
          cf._weyl_shifts("A", combinat.rho_vector("A", 2), (1, 0))))
# zero operands: the truncation is still the product's
@example((Series.zero(3), Series(5, {(-2, ((2, 1),)): F(1, 3)}), 1,
          {(0,): 1}))
@example((Series(5, {(-2, ((1, 2),)): F(1, 3)}), Series.zero(3), 1,
          {(2,): 1}))
@example((Series.zero(3), Series.zero(F(1, 2)), 2, {(0, 0): 1}))
# a negative lowest q-exponent, a variable beyond z_l, and weights that
# cancel: b = c + c z_1, and the slice of a * c at (2,) enters with 1 and -1
@example((Series(4, {(-3, ((1, 2), (3, -1))): F(2, 3), (1, ()): F(1)}),
          Series(6, {(-1, ()): F(1, 5), (-1, ((1, 2),)): F(1, 5)}), 1,
          {(2,): 1, (4,): -1}))
def test_product_slices_match_sliced_product(req):
    """The weighted z-slices equal those of the Fraction ring's product,
    truncation included, and are canonical."""
    a, b, l, weights = req
    got = _product_slices(a, b, l, weights)
    assert_canonical(got)
    assert _ref(got) == _ref_slices(_ref(a), _ref(b), l, weights)


def test_first_difference_reports_lowest():
    a = Series.one(5) + q(2, 5)
    b = Series.one(5) + q(2, 5, 2) + q(3, 5)
    d = first_difference(a, b)
    assert d[0] == 4 and d[2] == 1 and d[3] == 2


# -- inversion against the Fraction recurrence -----------------------------


@st.composite
def invertible_series(draw):
    """A series whose lowest q-layer is one monomial: 0-3 charge variables,
    sometimes with a gap (z_1 and z_3 without z_2), with doubled exponents
    small or up to +-2^40, and half-integer q-exponents of either sign."""
    zvars, e2s = draw(CHARGE_LAYOUTS)
    zkeys = _zkeys_on(zvars, e2s)
    v2 = draw(st.integers(-5, 4))
    trunc2 = v2 + draw(st.integers(0, 14))
    coeffs = st.fractions(-4, 4, max_denominator=draw(
        st.sampled_from([7, 2 ** 100])))
    rest = draw(st.dictionaries(
        st.tuples(st.integers(v2 + 1, trunc2 + 1), zkeys), coeffs,
        max_size=6))
    lead = draw(coeffs.filter(bool))
    return Series(trunc2, {**rest, (v2, draw(zkeys)): lead})


@settings(max_examples=300, deadline=None)
@given(invertible_series())
@example(Series(6, {(-3, ()): F(2, 3)}))                     # u = 0
@example(Series(9, {(-1, ((1, 2),)): F(-3), (1, ((1, -1),)): F(1, 2),
                    (4, ()): F(5)}))                         # z-carrying lead
@example(Series(7, {(0, ()): F(1), (1, ((1, 1), (2, -3))): F(2),
                    (2, ((2, 2),)): F(-1, 3)}))               # two variables
# a lead on three variables with a gap, u on the same ones
@example(Series(8, {(-2, ((1, -3), (3, 2 ** 40), (5, 1))): F(3, 4),
                    (0, ((1, 1),)): F(-1), (1, ((3, -2 ** 40),)): F(2, 5),
                    (3, ((1, -1), (5, -2))): F(7)}))
# every variable at a negative exponent, in the lead and in u
@example(Series(10, {(1, ((1, -1), (2, -2 ** 40), (3, -3))): F(-5, 2),
                     (2, ((1, -2), (2, -1), (3, -1))): F(1, 3),
                     (4, ((2, -3),)): F(-2)}))
# large pairwise coprime denominators, one per u-layer
@example(Series(12, {(0, ()): F(3, 2 ** 61 - 1), (1, ()): F(5, 3 ** 40),
                    (2, ()): F(-7, 2 ** 89 - 1), (5, ()): F(1, 5 ** 30)}))
@example(Series(10, {(-2, ((1, 1),)): F(-2, 7 ** 20),
                     (-1, ((1, -1),)): F(1, 2 ** 61 - 1),
                     (-1, ((1, 3), (2, 1))): F(4, 11 ** 18),
                     (1, ()): F(-9, 2 ** 89 - 1),
                     (3, ((2, -2),)): F(2 ** 70, 13 ** 19)}))  # z-carrying
# z-free, on the one-list recurrence: every exponent of u even (step 2), every
# one a multiple of 3 (step 3), and a negative lead over L = 20
@example(Series(11, {(-1, ()): F(2, 3), (1, ()): F(-1, 7), (5, ()): F(5)}))
@example(Series(10, {(-2, ()): F(3), (1, ()): F(1, 2), (7, ()): F(-2, 5)}))
@example(Series(9, {(-1, ()): F(-4, 3), (0, ()): F(1, 5), (2, ()): F(2)}))
def test_invert_matches_geometric_sum(a):
    """1/(1 + u) = sum_k (-u)^k, built by the ring's Fraction recurrence
    g_n = -sum_e u_e g_(n-e), equals the integer inverse, which is
    canonical."""
    inv = a.invert()
    assert _ref(inv) == _ref_invert(_ref(a))
    assert_canonical(inv)


@pytest.mark.parametrize("a", [
    Series.zero(4),
    Series.one(4) + Series.monomial(1, 0, 4, {1: 1}),
    Series.monomial(2, F(-1, 2), 4, {1: F(1, 2)}) + Series.monomial(
        1, F(-1, 2), 4, {2: 1}) + q(1, 4)])
def test_invert_not_invertible_in_both_algorithms(a):
    with pytest.raises(NotInvertible) as new:
        a.invert()
    with pytest.raises(NotInvertible) as old:
        _ref_invert(_ref(a))
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("a", [
    pochhammer_inf(Param(1, 1), 30),
    pochhammer_inf(Param(F(2, 3), 1, e=1), 16)])
def test_invert_uses_no_series_products(a, monkeypatch):
    calls = []

    def counting_mul(self, other, _mul=Series.__mul__):
        calls.append(1)
        return _mul(self, other)

    monkeypatch.setattr(Series, "__mul__", counting_mul)
    monkeypatch.setattr(Series, "__rmul__", counting_mul)
    inv = a.invert()
    monkeypatch.undo()
    assert calls == []
    assert a * inv == Series.one(F(a.trunc2, 2))


def test_invert_joins_charge_keys_by_codes(monkeypatch):
    """The recurrence adds integer charge codes: inverting
    (z q^(1/2))_inf (z^(-1) q^(1/2))_inf at N = 16 makes no more z-key
    joins than the input and the result have terms together."""
    from qfock import qseries
    a = pochhammer_inf(Param(1, F(1, 2), e=1), 16) \
        * pochhammer_inf(Param(1, F(1, 2), e=-1), 16)
    calls = []

    def counting_zmul(x, y, _zmul=qseries._zmul):
        calls.append(1)
        return _zmul(x, y)

    monkeypatch.setattr(qseries, "_zmul", counting_zmul)
    inv = a.invert()
    monkeypatch.undo()
    assert len(calls) <= len(a.nums) + len(inv.nums)
    assert a * inv == Series.one(16)


# -- theta jets against the product of one-factor jets ---------------------


def _product_theta_jet(t, k, N):
    """Reference jet: the prefactor t^(1/2) - t^(-1/2) and every factor of
    (qt)_inf (q/t)_inf as a Taylor jet in eps under t -> t e^eps, multiplied
    jet by jet at (k+1)^2 series products each, then by (q)_inf^(-2).

    This was theta_jet before the triple-product sum; it stays here as an
    independent second algorithm for the differential test.
    """
    if t.e2:
        raise IllegalPower("theta of a charge-carrying point")
    if t.sign == -1:
        raise IllegalPower("theta of a negative point")
    cp, qp2, _ = t.pow_monomial(F(1, 2))
    t2 = to2(N) + abs(qp2)
    Nw = F(t2, 2)
    fact = [math.factorial(j) for j in range(k + 1)]
    jet = [Series(t2, {(qp2, ()): cp * F(1, 2) ** j / fact[j]})
           - Series(t2, {(-qp2, ()): F(-1, 2) ** j / (cp * fact[j])})
           for j in range(k + 1)]
    for c, q2_first, sign in ((t.value_coeff, t.d2 + 2, 1),
                              (1 / t.value_coeff, 2 - t.d2, -1)):
        for q2 in range(q2_first, t2 + 1, 2):
            if q2 < 0:
                raise IllegalPower("theta needs qval >= 0")
            u = Series(t2, {(q2, ()): c})  # the jet of 1 - u e^(sign eps)
            factor = [Series.one(Nw) - u] + [
                u.scale(F(-(sign ** j), fact[j])) for j in range(1, k + 1)]
            jet = [sum((jet[i] * factor[j - i] for i in range(1, j + 1)),
                       jet[0] * factor[j]) for j in range(k + 1)]
    qq = pochhammer_inf(Param(1, 1), Nw)
    etainv2 = (qq * qq).invert()
    return [(c * etainv2).truncate(N) for c in jet]


@settings(max_examples=200, deadline=None)
@given(st.fractions(-3, 3, max_denominator=13).filter(bool),
       st.sampled_from([-1, F(-1, 2), 0, F(1, 2), 1]),
       st.integers(0, 4), st.sampled_from([F(i, 2) for i in range(17)]))
@example(F(1), 0, 3, 8)              # Theta(1) = 0, jets of order >= 1 do not
@example(F(1), 1, 2, 5)              # t = q
@example(F(-1), -1, 2, F(5, 2))      # t = 1/q
@example(F(-2, 3), F(1, 2), 1, 3)    # refused: half-integer shift
def test_theta_jet_matches_product_of_jets(s, d, k, N):
    t = Param(s, d)
    new, old = _outcome(theta_jet, t, k, N), _outcome(_product_theta_jet, t, k, N)
    assert new == old
    if isinstance(new, list):
        # a float coefficient would compare equal to its Fraction
        assert all(type(c) is F for c_k in new for c in c_k.terms.values())


def _fraction_theta_jet(t, k, N):
    """Reference jet: the triple-product sum with one Fraction per term and
    jet order.  This was theta_jet before its sums were built in integers;
    it stays here for the differential test."""
    if t.e2:
        raise IllegalPower("theta of a charge-carrying point")
    if t.sign == -1:
        raise IllegalPower("theta of a negative point")
    t.pow_monomial(F(1, 2))
    d = t.d2 // 2
    t2 = to2(N) + abs(d)
    if abs(t.d2) > 2 and 2 - abs(t.d2) <= t2:
        raise IllegalPower("theta needs qval(%s) >= 0"
                           % ("qt" if t.d2 < 0 else "q/t"))
    acc = [{} for _ in range(k + 1)]
    m = 0
    while True:
        pair = (1 - d + m, -d - m)
        if pair[1] * (pair[1] - 1) + d * (2 * pair[1] - 1) > t2:
            break
        for n in pair:
            c, q2, _ = t.pow_monomial(F(2 * n - 1, 2))
            c = c if n % 2 else -c
            key = (n * (n - 1) + q2, ())
            w = F(1)
            for j in range(k + 1):
                acc[j][key] = acc[j].get(key, F(0)) + c * w
                w = w * (n - F(1, 2)) / (j + 1)
        m += 1
    qq = pochhammer_inf(Param(1, 1), F(max(t2, 0), 2))
    qinf_inv3 = (qq * qq * qq).invert()
    return [(Series(t2, a) * qinf_inv3).truncate(N) for a in acc]


@settings(max_examples=300, deadline=None)
@given(st.fractions(-4, 4, max_denominator=40).filter(bool),
       st.sampled_from([-1, 0, 1]), st.integers(0, 4),
       st.sampled_from([F(i, 2) for i in range(-3, 19)]))
@example(F(1), 0, 3, 8)              # Theta(1) = 0, jets of order >= 1 do not
@example(F(-1), -1, 4, F(9, 2))      # t = 1/q
@example(F(-35, 12), 1, 2, 5)        # s < 0 above 1
@example(F(2, 3), F(1, 2), 1, 3)     # refused: half-integer shift
@example(F(2, 3), 2, 1, 3)           # refused: (q/t)_inf starts below 1
@example(F(2, 3), -2, 0, 1)          # refused: (qt)_inf starts below 1
@example(F(0), 0, 2, 3)              # refused: t^(-1/2) at t = 0
@example(F(0), 0, 2, -1)             # t = 0 below every term: zero jets
def test_integer_theta_jet_matches_fraction_loop(s, d, k, N):
    """The integer jets equal the Fraction loop's, and a refusal has the
    same type and message."""
    t = Param(s, d)
    got, want = _result(theta_jet, t, k, N), _result(_fraction_theta_jet, t, k, N)
    assert got == want
    if isinstance(got, list):
        for c in got:
            assert_canonical(c)


# -- truncation coherence of the public builders ----------------------------

_POINTS = {
    "scalar": Param(F(3, 5)),
    "shifted": Param(F(3, 5), 1),
    "half-shifted": Param(F(3, 5), F(1, 2)),
    "z-carrying": Param(F(3, 5), 1, e=1),
    "down-shifted": Param(F(3, 5), -1),
}
_NONNEGATIVE = ["scalar", "shifted", "half-shifted", "z-carrying"]
_BUILDERS = {
    "pochhammer_inf": (pochhammer_inf, _NONNEGATIVE),
    "pochhammer_n": (lambda p, N: pochhammer_n(p, 3, N), _NONNEGATIVE),
    "c_term": (c_term, ["scalar", "shifted", "z-carrying"]),
    "qhyper": (lambda p, N: qhyper([p], [Param(F(2, 7), 1)], Param(1, 1), N),
               _NONNEGATIVE),
    "theta": (theta, ["scalar", "shifted", "down-shifted"]),
    **{"theta_jet%d" % k: (lambda p, N, k=k: theta_jet(p, k, N)[k],
                           ["scalar", "shifted", "down-shifted"])
       for k in (1, 2, 3)},
    "f_bo": (lambda p, N: cf.f_bo([p, Param(F(2, 7))], N),
             ["scalar", "shifted", "down-shifted"]),
    "invert": (lambda p, N: pochhammer_inf(p, N).invert(), _NONNEGATIVE),
}


@pytest.mark.parametrize("builder,point", [
    (b, p) for b, (_, pts) in _BUILDERS.items() for p in pts])
def test_builder_truncation_coherence(builder, point):
    f, t = _BUILDERS[builder][0], _POINTS[point]
    for N in (4, F(9, 2), 6):
        full = f(t, N)
        assert full.truncation == N
        for M in (0, F(1, 2), 2, F(7, 2)):
            assert full.truncate(M) == f(t, M), (N, M)


def test_shifted_theta_keeps_truncation():
    t = Param(F(2, 3), 1)
    assert theta(t, 2).truncation == 2
    jet = theta_jet(t, 2, 3)
    assert [c.truncation for c in jet] == [3, 3, 3]
    assert jet[0] == theta(t, 3)


@pytest.mark.parametrize("d", [-3, -2, 2])
def test_theta_refuses_shift_beyond_one(d):
    # (qt)_inf or (q/t)_inf would start at a negative q-power
    with pytest.raises(IllegalPower):
        theta(Param(F(2, 3), d), 2)


# -- every ring operation against the {key: Fraction} ring -------------------


@st.composite
def fraction_series(draw, zvars, e2s=st.integers(-3, 3)):
    """A series on the charge variables zvars with half-integer z- and
    q-exponents of either sign (doubled z-exponents drawn from e2s),
    coefficients of either sign with small or 100-bit denominators, and
    keys beyond the truncation (dropped)."""
    zkeys = _zkeys_on(zvars, e2s)
    trunc2 = draw(st.integers(-4, 10))
    coeffs = st.fractions(-5, 5, max_denominator=draw(
        st.sampled_from([1, 6, 2 ** 100])))
    keys = st.tuples(st.integers(trunc2 - 8, trunc2 + 1), zkeys)
    terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=6))
    if draw(st.booleans()):
        # a single monomial, negative, in the lowest layer: invertible
        v2 = min(q2 for q2, _ in terms) - 1
        terms[(v2, draw(zkeys))] = -abs(draw(coeffs.filter(bool)))
    return Series(trunc2, terms)


def _first_vars(n):
    """The charge variables z_1..z_n."""
    return tuple(range(1, n + 1))


_RING_OPS = {
    "add": (lambda a, b, c, k: a + b, lambda a, b, c, k: _ref_add(a, b)),
    "sub": (lambda a, b, c, k: a - b, lambda a, b, c, k: _ref_add(a, b, -1)),
    "radd": (lambda a, b, c, k: c + a,
             lambda a, b, c, k: _ref_add(a, (a[0], {(0, ()): c}))),
    "rsub": (lambda a, b, c, k: c - a,
             lambda a, b, c, k: _ref_add((a[0], {(0, ()): c}), a, -1)),
    "neg": (lambda a, b, c, k: -a,
            lambda a, b, c, k: (a[0], {key: -v for key, v in a[1].items()})),
    "mul": (lambda a, b, c, k: a * b, lambda a, b, c, k: _ref_mul(a, b)),
    "scale": (lambda a, b, c, k: a * c, lambda a, b, c, k: _ref_scale(a, c)),
    "rmul": (lambda a, b, c, k: c * a, lambda a, b, c, k: _ref_scale(a, c)),
    "pow": (lambda a, b, c, k: a ** (k % 4),
            lambda a, b, c, k: functools.reduce(
                _ref_mul, [a] * (k % 4), (a[0], {(0, ()): F(1)}
                                          if a[0] >= 0 else {}))),
    "shift": (lambda a, b, c, k: a.shift(F(k, 2)),
              lambda a, b, c, k: (a[0] + k, {
                  (q2 + k, zk): v for (q2, zk), v in a[1].items()})),
    "truncate": (lambda a, b, c, k: a.truncate(F(k, 2)),
                 lambda a, b, c, k: _ref_kept(min(k, a[0]), a[1])),
    "coeff_z": (lambda a, b, c, k: a.coeff_z(1, F(k % 5 - 2, 2)),
                lambda a, b, c, k: _ref_coeff_z(a, 1, k % 5 - 2)),
    "invert": (lambda a, b, c, k: a.invert(),
               lambda a, b, c, k: _ref_invert(a)),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_RING_OPS)), st.integers(0, 2).map(
    _first_vars).flatmap(lambda zv: st.tuples(fraction_series(zv),
                                              fraction_series(zv))),
    st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=2 ** 70)),
    st.integers(-3, 8))
@example("invert", (Series(9, {(-1, ((1, 2),)): F(-3), (1, ((1, -1),)): F(1, 2),
                               (4, ()): F(5)}), Series.zero(0)), 1, 0)
@example("add", (Series(4, {(0, ()): F(1, 6), (1, ()): F(1, 3)}),
                 Series(4, {(0, ()): F(1, 6), (1, ()): F(-1, 3)})), 1, 0)
@example("mul", (Series(4, {(0, ()): F(2, 3)}), Series(4, {(0, ()): F(3, 2),
                                                           (2, ()): F(9, 4)})),
         1, 0)
@example("coeff_z", (Series(4, {(0, ((1, 1),)): F(2, 3), (1, ()): F(1, 3)}),
                     Series.zero(0)), 1, 3)
def test_ring_ops_match_fraction_reference(op, operands, c, k):
    """Every ring operation, on 0-2 charge variables, equals the Fraction
    reference coefficient by coefficient, and its result is canonical."""
    a, b = operands
    new, ref = _RING_OPS[op]
    got = _outcome(new, a, b, c, k)
    want = _outcome(ref, _ref(a), _ref(b), c, k)
    if isinstance(got, Series):
        assert_canonical(got)
        got = _ref(got)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2).map(_first_vars).flatmap(fraction_series))
# the least q-exponent on several z-keys, none of them the least key's
@example(Series(4, {(1, ((1, 2),)): F(1), (-2, ((1, -2),)): F(3),
                    (-2, ((2, 1),)): F(1, 2), (-1, ()): F(5)}))
@example(Series.zero(3))
def test_min2_is_the_least_q_exponent(s):
    assert s.min2() == min((q2 for q2, _ in s.terms), default=None)


@settings(max_examples=100, deadline=None)
@given(st.integers(-4, 8), st.integers(1, 2 ** 80),
       st.dictionaries(st.tuples(st.integers(-4, 10), _Z_KEYS),
                       st.integers(-10 ** 12, 10 ** 12), max_size=6))
def test_from_numerators_is_canonical(t2, den, nums):
    s = Series.from_numerators(t2, den, nums)
    assert_canonical(s)
    assert s.terms == {k: F(n, den) for k, n in nums.items()
                       if n and k[0] <= t2}
    assert s == Series(t2, s.terms) and hash(s) == hash(Series(t2, s.terms))


def test_kernel_builds_no_fraction_before_readout(monkeypatch):
    """(q)_inf and a chain of sums, products, an inverse, a power, shifts and
    integer scalings build no Fraction; reading the result out does."""
    a = Series.one(12) - q(F(1, 2), 12, F(2, 3)) + Series.monomial(
        F(-5, 7), 1, 12, {1: F(1, 2)})
    b = Series.monomial(F(3, 4), F(-1, 2), 12, {2: -1}) + q(3, 12, -2)
    point = Param(1, 1)
    built = []
    fraction_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    qinf = pochhammer_inf(point, 30)
    chain = (((a * b - a.shift(1)) * (3 + b.shift(1)).invert())
             .scale(-2) ** 2 + a * qinf).truncate(4)
    assert built == []
    assert qcoeff(qinf, 5) == 1 and chain.terms
    monkeypatch.undo()
    assert built


@pytest.mark.parametrize("t", [Param(F(-7, 5)), Param(F(2, 3), 1),
                               Param(F(3, 4), -1)])
def test_theta_jet_builds_fractions_independent_of_N(monkeypatch, t):
    """theta_jet builds its sums in integers: the Fractions it makes (the
    checks of the point) do not grow with the truncation."""
    built = []
    fraction_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    counts = []
    for N in (2, 12, 40):
        theta_jet(t, 4, N)  # (q)_inf^(-3) at this truncation, built once
        monkeypatch.setattr(F, "__new__", counting_new)
        jet = theta_jet(t, 4, N)
        monkeypatch.undo()
        counts.append(len(built))
        built.clear()
        assert len(jet[4].nums) > N  # the sums do grow with N
    assert counts[0] == counts[1] == counts[2] <= 4, counts


def _dict_zmul(a, b):
    """The product of two z-keys through one dict, sorted."""
    acc = dict(a)
    for v, e2 in b:
        acc[v] = acc.get(v, 0) + e2
    return tuple(sorted((v, e2) for v, e2 in acc.items() if e2))


@settings(max_examples=200, deadline=None)
@given(_Z_KEYS, _Z_KEYS)
@example(((1, 2),), ((1, -2),))   # one variable, cancelling
@example(((1, 1),), ((1, 3),))    # one variable, adding
@example(((2, 1),), ((1, 3),))    # one variable each, different ones
def test_zmul_matches_dict_merge(a, b):
    assert _zmul(a, b) == _dict_zmul(a, b)


# -- quotients by (1 - p) factors against the generic inverse ---------------
#
# The reference divides as every quotient was built before _over_one_minus:
# the product with the generic inverse of the factor, at s's truncation (or
# at 0, where 1 - p with a negative truncation would be the zero series).


def _ref_over_one_minus(s, p):
    return s * _one_minus(p, _half(max(s.trunc2, 0))).invert()


def _ref_over_pochhammer(s, a, n):
    N = _half(max(s.trunc2, 0))
    poch = pochhammer_inf(a, N) if n is None else pochhammer_n(a, n, N)
    return s * poch.invert()


def _result(f, *args):
    """f(*args), or the type and message of the QSeriesError it raises."""
    try:
        return f(*args)
    except QSeriesError as exc:
        return type(exc), str(exc)


def _assert_same_quotient(got, want, s):
    """got is the reference's quotient, exact to s's truncation, or it
    raises as the reference does."""
    if not isinstance(want, Series):
        assert got == want
        return
    assert isinstance(got, Series), got
    assert_canonical(got)
    assert got.trunc2 == s.trunc2 >= want.trunc2
    assert first_difference(got, want) is None


@st.composite
def points(draw, zvars, d2_min=-2, e2s=st.integers(-2, 2)):
    """sign s^2 q^d z^e with s of either sign, integral, over 3 or over a
    40-bit denominator, d in (1/2)Z from d2_min/2 to 6 and a charge
    exponent (doubled, from e2s) on one of zvars when there are any."""
    s = draw(st.fractions(-3, 3, max_denominator=draw(
        st.sampled_from([1, 3, 2 ** 40]))).filter(bool))
    e2 = draw(e2s) if zvars else 0
    return Param(s, F(draw(st.integers(d2_min, 12)), 2), F(e2, 2),
                 zvar=draw(st.sampled_from(zvars or (1,))),
                 sign=draw(st.sampled_from([1, -1])))


def _quotient_operands(divisors):
    """(s, p) on one charge layout of CHARGE_LAYOUTS, p drawn by
    divisors(zvars, e2s)."""
    return CHARGE_LAYOUTS.flatmap(lambda ze: st.tuples(
        fraction_series(*ze), divisors(*ze)))


@settings(max_examples=150, deadline=None)
@given(_quotient_operands(lambda zv, e2s: points(zv, e2s=e2s)))
@example((Series(4, {(0, ()): F(2, 3), (3, ()): F(-1, 5)}),
          Param(F(2, 3), F(1, 2), sign=-1)))                  # den > 1, sign -1
@example((Series(3, {(-4, ((1, 1),)): F(1, 7), (0, ()): F(3)}),
          Param(F(3, 2), 1, F(-1, 2))))                       # negative lowest
@example((Series(2, {(0, ()): F(1)}), Param(F(5, 3), 3)))    # p above trunc
@example((Series(6, {(1, ()): F(1)}), Param(1)))             # 1 - p = 0
@example((Series(6, {(1, ()): F(1)}), Param(-1, 0, sign=-1)))  # 1 - p = 2
@example((Series(6, {(1, ()): F(1)}), Param(2, 0, 1)))       # 1 - 4 z
@example((Series(6, {(1, ()): F(1)}), Param(F(1, 2), -1)))   # 1 - q^(-1)/4
@example((Series.zero(5), Param(F(2, 3), 1)))
# p charged on z_2, which s (on z_1 and z_3) lacks
@example((Series(6, {(0, ((1, 1), (3, -2))): F(2, 3), (1, ((1, -1),)): F(-1)}),
          Param(F(3, 2), F(1, 2), 1, zvar=2)))
# negative exponents on every variable, in s and in p
@example((Series(8, {(-1, ((1, -1), (2, -2 ** 40), (3, -3))): F(-5, 2),
                     (2, ((1, -2), (3, -1))): F(1, 3)}),
          Param(F(2, 5), 1, F(-3, 2), zvar=3)))
# chains that end at the field bound: 3 + 3 steps of +1, 2^40 + 4 of 2^40
@example((Series(6, {(0, ((1, 3),)): F(1), (1, ((1, -3),)): F(2)}),
          Param(F(2, 3), 1, F(1, 2))))
@example((Series(4, {(0, ((2, 2 ** 40),)): F(1)}),
          Param(F(1, 3), F(1, 2), F(2 ** 40, 2), zvar=2, sign=-1)))
def test_over_one_minus_matches_generic_inverse(operands):
    """s / (1 - p) in one pass equals the product with the generic inverse
    up to the common truncation and is exact to s's, on 0-3 charge
    variables with gaps and exponents up to 2^40; a p with d < 0, a
    charged p with d = 0 and p = 1 take the generic inverse, so they
    expand or raise with its exception and message."""
    s, p = operands
    got = _result(_over_one_minus, s, p)
    want = _result(_ref_over_one_minus, s, p)
    if p.d2 < 0 or p.d2 == 0 and (p.e2 or p.value_coeff == 1):
        assert got == want
    else:
        _assert_same_quotient(got, want, s)


@settings(max_examples=100, deadline=None)
@given(_quotient_operands(lambda zv, e2s: st.one_of(
    st.just(Param(0)), points(zv, d2_min=0, e2s=e2s))),
    st.one_of(st.none(), st.integers(0, 5)))
@example((Series(4, {(-2, ()): F(3)}), Param(F(2, 3))), None)
@example((Series(4, {(0, ()): F(1)}), Param(1)), 3)           # (1)_3 = 0
@example((Series(4, {(0, ()): F(1)}), Param(1, 0, 1)), None)  # never truncates
@example((Series.zero(F(-1, 2)), Param(1)), None)            # 0 / 0 raises
# a charged on z_2, which s (on z_1 and z_3) lacks
@example((Series(5, {(0, ((1, 2),)): F(1), (1, ((3, -1),)): F(3, 4)}),
          Param(F(2, 3), F(1, 2), F(1, 2), zvar=2)), None)
# negative exponents on every variable, in s and in a
@example((Series(6, {(-1, ((1, -1), (2, -3), (3, -2 ** 40))): F(2, 7),
                     (1, ((1, -2),)): F(-1)}),
          Param(F(1, 2), 1, -1, zvar=1)), None)
# one factor whose chain ends at the field bound: -3 and 3 steps of -1
@example((Series(6, {(0, ((1, -3),)): F(1)}),
          Param(F(2, 3), 1, F(-1, 2))), 1)
def test_over_pochhammer_matches_generic_inverse(operands, n):
    """s / (a)_n and s / (a)_inf (n None) factor by factor equal the
    product with the generic inverse of the whole symbol, on 0-3 charge
    variables with gaps and exponents up to 2^40."""
    s, a = operands
    _assert_same_quotient(_result(_over_pochhammer, s, a, n),
                          _result(_ref_over_pochhammer, s, a, n), s)


def test_charged_quotient_joins_keys_by_codes(monkeypatch):
    """Dividing a z-carrying series by (z q^(1/2))_inf at N = 10 joins no
    z-keys: the factors' recurrences add integer charge codes."""
    from qfock import qseries
    s = Series.one(10) + Series.monomial(F(2, 3), F(1, 2), 10, {1: -1})
    a = Param(1, F(1, 2), e=1)
    want = s * pochhammer_inf(a, 10).invert()
    calls = []

    def counting_zmul(x, y, _zmul=qseries._zmul):
        calls.append(1)
        return _zmul(x, y)

    monkeypatch.setattr(qseries, "_zmul", counting_zmul)
    got = _over_pochhammer(s, a)
    monkeypatch.undo()
    assert calls == []
    assert got == want


# -- the chain kernel against one factor at a time ---------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2).map(_first_vars).flatmap(lambda zv: st.tuples(
    fraction_series(zv),
    st.lists(st.tuples(st.booleans(), points(zv, d2_min=1)), max_size=5))))
@example((Series.zero(5), [(True, Param(F(2, 3), 1)),
                           (False, Param(1, F(1, 2)))]))     # zero series
@example((Series(2, {(0, ()): F(1)}), [(False, Param(F(5, 3), 3)),
                                       (True, Param(F(1, 2), 2))]))  # K = 0
@example((Series(4, {(-3, ()): F(2, 3), (1, ()): F(-1, 5)}),
          [(True, Param(F(2, 3), F(1, 2))), (False, Param(F(3, 2), 1)),
           (False, Param(1, F(1, 2)))]))                     # negative lowest
@example((Series(6, {(0, ()): F(1), (3, ()): F(7, 4)}),
          [(False, Param(F(2, 3), F(1, 2), sign=-1)),
           (True, Param(1, 1, sign=-1))]))                   # sign -1
@example((Series(4, {(0, ((1, 1),)): F(1), (2, ()): F(2, 3)}),
          [(True, Param(F(2, 3), 0, 1)), (False, Param(1, F(1, 2), -1)),
           (True, Param(F(3, 5), 1, 1))]))                   # charged, d = 0 up
def test_chain_matches_factor_by_factor(operands):
    """_chain(s, ups, downs) equals multiplying s by each 1 - p of ups and
    dividing it by each of downs one at a time, in the drawn order, in the
    {key: Fraction} ring (a quotient as its geometric sum), truncation
    included: on 0-2 charge variables, with B = 1 and B > 1, signs -1,
    half-integer steps and a zero series."""
    s, draws = operands
    got = _chain(s, [_factor(p) for up, p in draws if up],
                 [_factor(p) for up, p in draws if not up])
    assert_canonical(got)
    want = _ref(s)
    for up, p in draws:
        want = (_ref_times_factor if up else _ref_over_factor)(want,
                                                               _factor(p))
    assert _ref(got) == want


def _ref_chain_sum(s, steps):
    """_chain_sum's sum term by term, the reference: each term is the one
    before through _chain, times the z-part of the step's point (power,
    taken to the term's relative order so that it cuts nothing off),
    shifted by its q-part, and the terms are added by +."""
    out = term = s
    for p, ups, downs in steps:
        term = _chain(term, [_factor(a) for a in ups],
                      [_factor(b) for b in downs])
        zpart = Param(p.s, 0, F(p.e2, 2), p.zvar, p.sign)
        rel = _half(term.trunc2 - (term.min2() or 0))
        term = (term * power(zpart, 1, rel)).shift(F(p.d2, 2))
        out = out + term
    return out


def _step(p, ups, downs):
    """The _chain_sum step of the point p and the points of ups and
    downs."""
    c, d2, zk = p.pow_monomial(1)
    return ((c.numerator, c.denominator, d2, zk),
            [_factor(a) for a in ups], [_factor(b) for b in downs])


def _chain_sum_steps(zv):
    """0-5 steps on the charge variables zv: a point of any q-exponent from
    -3/2, or 0, and 0-2 up factors (d >= 0) and down factors (d > 0)."""
    return st.lists(st.tuples(
        st.one_of(st.just(Param(0)), points(zv, d2_min=-3)),
        st.lists(st.one_of(st.just(Param(1)), points(zv, d2_min=0)),
                 max_size=2),
        st.lists(points(zv, d2_min=1), max_size=2)), max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2).map(_first_vars).flatmap(lambda zv: st.tuples(
    fraction_series(zv), _chain_sum_steps(zv))))
@example((Series(4, {(0, ()): F(1)}),
          [(Param(1, 1, 1), [Param(F(2, 3))], [Param(1, 1)])] * 3))  # z^1
@example((Series(7, {(0, ()): F(1)}),
          [(Param(F(1, 2), -1), [], [Param(1, 1)]),
           (Param(1, F(3, 2)), [Param(F(2, 3), 1)], [])] * 2))  # d < 0 first
@example((Series(3, {(1, ()): F(2, 3)}),
          [(Param(1, 1), [Param(1)], []),
           (Param(1, 1), [], [Param(1, 1)])]))               # 1 - 1 = 0
@example((Series(2, {(0, ()): F(1)}),
          [(Param(1, 2), [], []), (Param(1, -2), [], [])]))  # past, then back
@example((Series.zero(F(5, 2)), [(Param(1, -1), [], [])]))  # zero series
def test_chain_sum_matches_per_term_sum(operands):
    """_chain_sum equals its terms built one by one from _chain, power,
    shift and +, truncation included: on 0-2 charge variables, for z-free
    and charged series, points and factors, half-integer truncations,
    negative q-exponents, steps past the truncation and terms that
    vanish."""
    s, draws = operands
    got = _chain_sum(s, [_step(*d) for d in draws])
    assert_canonical(got)
    assert got == _ref_chain_sum(s, draws)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.fractions(-3, 3, max_denominator=9),
                 st.fractions(-2, 2, max_denominator=2 ** 60)).filter(bool),
       st.sampled_from([1, -1]), st.sampled_from([F(k, 2) for k in range(27)]))
@example(F(2, 3), 1, 12)
@example(F(5, 7), -1, F(19, 2))                    # sign -1, half-integer N
@example(F(3 ** 40 + 2, 2 ** 61), 1, 9)           # large numerators
@example(F(2, 3), 1, F(1, 2))                      # N < 1: the empty nest
@example(F(1), 1, 6)                               # t = 1
def test_one_point_nest_matches_series_nest(s, sign, N):
    """The integer-list nest equals the nest built one Series per step,
    truncation included, at t and at 1/t, for either sign, half-integer N
    and N < 1, and large numerators."""
    t = Param(s, sign=sign)
    for tt in (t, t.inverse()):
        got = _one_point_nest(_factor(tt), to2(N))
        assert_canonical(got)
        assert got == reference_one_point_nest(tt, N)


def test_charged_products_and_sums_join_keys_by_codes(monkeypatch):
    """A charged chain with up factors, (z q^(1/2))_inf at N = 16, and a
    charged term-by-term sum, a qhyper in z, join no z-keys: their factors
    and monomials add integer charge codes."""
    from qfock import qseries
    a, z = Param(1, F(1, 2), e=1), Param(F(2, 3), 1, e=1)
    runs = [lambda: pochhammer_inf(a, 16),
            lambda: qhyper([Param(F(3, 5), F(1, 2), e=-1)], [], z, 8)]
    want = [_loop_pochhammer(a, None, 16), _qhyper_reference(
        [Param(F(3, 5), F(1, 2), e=-1)], [], z, 8)]
    calls = []

    def counting_zmul(x, y, _zmul=qseries._zmul):
        calls.append(1)
        return _zmul(x, y)

    monkeypatch.setattr(qseries, "_zmul", counting_zmul)
    got = [run() for run in runs]
    monkeypatch.undo()
    assert calls == []
    assert got == want


def test_z_free_chain_reduces_once(monkeypatch):
    """A z-free chain builds its Series once, with one gcd: s / (q)_inf
    makes one _reduced call; (2/3)_inf makes three (the unit, its product
    with the number 1 - 4/9, the d = 0 factor, and one _chain with one
    call);
    and a qhyper whose factors all have d > 0 is one _chain_sum with one
    call for the whole sum, and no _chain."""
    from qfock import qseries
    calls, per_chain, per_sum = [0], [], []

    def counting_reduced(*args, _reduced=qseries._reduced):
        calls[0] += 1
        return _reduced(*args)

    def recording(kernel, record):
        def run(*args):
            before = calls[0]
            out = kernel(*args)
            record.append(calls[0] - before)
            return out
        return run

    one, a = Series.one(20), Param(F(2, 3))
    want = _over_pochhammer(one, Param(1, 1)), pochhammer_inf(a, 20)
    monkeypatch.setattr(qseries, "_reduced", counting_reduced)
    monkeypatch.setattr(qseries, "_chain",
                        recording(qseries._chain, per_chain))
    monkeypatch.setattr(qseries, "_chain_sum",
                        recording(qseries._chain_sum, per_sum))
    assert _over_pochhammer(one, Param(1, 1)) == want[0]
    assert (calls, per_chain) == ([1], [1])
    calls[0], per_chain[:] = 0, []
    assert pochhammer_inf(a, 20) == want[1]
    assert (calls, per_chain) == ([3], [1])
    per_chain[:] = []
    qhyper([Param(F(3, 5), F(1, 2)), Param(F(2, 3), 1)], [Param(F(5, 7), 1)],
           Param(F(1, 2), 1), 12)
    assert (per_chain, per_sum) == ([], [1])


def _qhyper_reference(upper, lower, arg, N):
    """rPhis as it was built before the (q)_n cancellation: every factor
    multiplied in, every lower factor and (q)_n by the generic inverse."""
    r, s = len(upper), len(lower)
    extra = 1 + s - r
    t2 = to2(N)
    if arg.is_zero:
        return Series.one(N)
    v2 = arg.qval2()
    if extra < 0 or (extra == 0 and v2 <= 0):
        raise NonTruncatable("term valuations of this rPhis do not diverge")
    out = Series.one(N)
    term = Series.one(N)
    n = 1
    while n * v2 + extra * n * (n - 1) <= t2:
        for a in upper:
            if a.is_zero:
                continue
            term = term * _one_minus(a.qshift(n - 1), N)
        for b in lower:
            if b.is_zero:
                raise DegenerateParameter("zero lower parameter")
            bq = b.qshift(n - 1)
            if bq.d2 == 0 and bq.e2 == 0 and bq.value_coeff == 1:
                raise DegenerateParameter("lower Pochhammer vanishes at the leading layer")
            term = term * _one_minus(bq, N).invert()
        term = term * _one_minus(Param(1, n), N).invert()
        term = term * power(arg, 1, N)
        if extra:
            term = term.shift(extra * (n - 1))
            if extra % 2:
                term = -term
        if term.is_zero():
            break
        out = out + term.truncate(N)
        n += 1
    return Series.from_numerators(t2, out.den, out.nums)


_HYPER_PARAMS = st.one_of(
    st.sampled_from([Param(0), Param(1, 1), Param(-1, 1), Param(1),
                     Param(1, 2)]),
    st.builds(Param, st.fractions(-2, 2, max_denominator=5).filter(bool),
              st.integers(0, 4).map(lambda d2: F(d2, 2))))


@settings(max_examples=100, deadline=None)
@given(st.lists(_HYPER_PARAMS, max_size=3), st.lists(_HYPER_PARAMS, max_size=2),
       st.builds(Param, st.fractions(-2, 2, max_denominator=5).filter(bool),
                 st.integers(1, 4).map(lambda d2: F(d2, 2)), st.integers(-1, 1)),
       st.integers(0, 9).map(lambda n2: F(n2, 2)))
@example([Param(0), Param(0), Param(1, 1)], [Param(F(2, 3), 1), Param(1, 1)],
         Param(1, 1), 6)                       # the 3Phi2 of one_point_minus1
@example([Param(1, 1), Param(1, 1)], [Param(1, 2)], Param(1, 1), 5)
@example([Param(1, 1)], [Param(0)], Param(1, 1), 3)
@example([Param(1, 1)], [Param(1)], Param(1, 1), 3)
@example([Param(0)], [Param(4)], Param(1, F(1, 2)), 3)  # lower d = 0, past n = 1
@example([Param(F(2, 3), 0, 1)], [Param(F(3, 5))], Param(1, 1), 3)  # charged
@example([], [Param(2, 0, 1)], Param(1, 1), 3)          # 1 - 4 z, no inverse
def test_qhyper_cancels_upper_q_like_the_reference(upper, lower, arg, N):
    """An upper q cancels (q)_n: the sum, and each refusal, are the ones of
    the product form with every lower factor and (q)_n inverted."""
    got = _result(qhyper, upper, lower, arg, N)
    want = _result(_qhyper_reference, upper, lower, arg, N)
    if isinstance(want, Series):
        assert_canonical(got)
    assert got == want


def test_quotients_call_no_generic_inverse(monkeypatch):
    """qhyper and the level -1 one-point function divide by their (1 - p)
    factors without Series.invert."""
    calls = []

    def counting_invert(self, _invert=Series.invert):
        calls.append(1)
        return _invert(self)

    monkeypatch.setattr(Series, "invert", counting_invert)
    t = Param(F(2, 3))
    qhyper([Param(0), Param(0), Param(1, 1)], [t.qshift(2), Param(1, 2)],
           Param(1, 1), 8)
    qhyper([Param(F(3, 5), F(1, 2))], [t, Param(F(5, 7), 1, 1)],
           Param(F(1, 2), 1), 8)
    cf.one_point_minus1(t, 6)
    assert calls == []


# -- products by (1 - p) factors against the generic product ---------------
# The reference multiplies as every product by such a factor was built
# before the chain kernel: the generic product with the two-term series, the
# factor taken to s's relative order so that it cuts nothing off, and the
# symbols (a)_n and (a)_inf as a loop of those products.


def _ref_times_one_minus(s, p):
    return s * _one_minus(p, _half(s.trunc2 - (s.min2() or 0)))


def _loop_pochhammer(a, n, N):
    """(a)_n, or (a)_inf when n is None, as the loop of products that
    pochhammer_n and pochhammer_inf were."""
    out = Series.one(N)
    for _, _, d2, _ in _pochhammer_factors(a, n, to2(N)):
        out = out * _one_minus(a.qshift(_half(d2 - a.d2)), N)
        if out.is_zero():
            break
    return out


def _ref_times_pochhammer(s, a, n):
    return s * _loop_pochhammer(a, n, _half(s.trunc2 - (s.min2() or 0)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2).map(_first_vars).flatmap(
    lambda zv: st.tuples(fraction_series(zv), st.one_of(
        st.just(Param(0)), st.just(Param(1)), points(zv, d2_min=0)))))
@example((Series(4, {(0, ()): F(2, 3), (3, ()): F(-1, 5)}),
          Param(F(2, 3), F(1, 2), sign=-1)))                  # den > 1, sign -1
@example((Series(3, {(-4, ((1, 1),)): F(1, 7), (0, ()): F(3)}),
          Param(F(3, 2), 1, F(-1, 2))))                       # negative lowest
@example((Series(2, {(0, ()): F(1)}), Param(F(5, 3), 3)))    # p above trunc
@example((Series(6, {(-1, ()): F(1)}), Param(1)))            # 1 - p = 0
@example((Series(6, {(1, ()): F(1)}), Param(2, 0, 1)))       # 1 - 4 z
@example((Series.zero(F(-3, 2)), Param(F(2, 3), 1)))
@example((Series(4, {(0, ()): F(1), (2, ()): F(-1)}), Param(1, 1)))  # cancels
def test_times_one_minus_matches_generic_product(operands):
    """s (1 - p) as the one-factor _chain, d = 0 included, equals the
    generic product, truncation included, on 0-2 charge variables, with
    half-integer exponents, a negative sign, a zero series and a zero
    factor."""
    s, p = operands
    got = _chain(s, (_factor(p),))
    assert_canonical(got)
    assert got == _ref_times_one_minus(s, p)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2).map(_first_vars).flatmap(
    lambda zv: st.tuples(fraction_series(zv), st.one_of(
        st.just(Param(0)), st.just(Param(1)), points(zv, d2_min=0)))),
    st.one_of(st.none(), st.integers(0, 5)))
@example((Series(4, {(-2, ()): F(3)}), Param(F(2, 3))), None)
@example((Series(4, {(0, ()): F(1)}), Param(1)), 3)           # (1)_3 = 0
@example((Series(4, {(0, ()): F(1)}), Param(1, 0, 1)), None)  # never truncates
@example((Series.zero(F(-1, 2)), Param(1)), None)
def test_times_pochhammer_matches_product_loop(operands, n):
    """s (a)_n and s (a)_inf (n None) factor by factor equal the generic
    product with the symbol built as a loop of products, or both raise
    with the same exception and message."""
    s, a = operands
    got = _result(_times_pochhammer, s, a, n)
    want = _result(_ref_times_pochhammer, s, a, n)
    if isinstance(got, Series):
        assert_canonical(got)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 1).map(_first_vars).flatmap(lambda zv: st.one_of(
    st.just(Param(0)), st.just(Param(1)), points(zv, d2_min=0))),
    st.one_of(st.none(), st.integers(0, 6)),
    st.integers(0, 12).map(lambda n2: F(n2, 2)))
@example(Param(1), None, 4)                          # (1)_inf = 0
@example(Param(-1, 0, sign=-1), None, F(7, 2))       # leading factor 2
@example(Param(F(2, 3), 0, 1), None, 3)              # never truncates
def test_pochhammer_matches_product_loop(a, n, N):
    """(a)_n and (a)_inf equal the loop of products they were built by,
    truncation included, or both raise with the same exception and
    message."""
    if n is None:
        got = _result(pochhammer_inf, a, N)
    else:
        got = _result(pochhammer_n, a, n, N)
    assert got == _result(_loop_pochhammer, a, n, N)


def test_products_by_one_minus_factors_make_no_series_product(monkeypatch):
    """(q)_inf is built without Series.__mul__, and so is a z-free qhyper:
    its monomial argument and its factors (1 - a q^k) are passes over the
    running term of one _chain_sum."""
    calls = []

    def recording_mul(self, other, _mul=Series.__mul__):
        calls.append(other)
        return _mul(self, other)

    monkeypatch.setattr(Series, "__mul__", recording_mul)
    pochhammer_inf(Param(1, 1), 30)
    assert calls == []
    qhyper([Param(F(3, 5), F(1, 2)), Param(F(2, 3), 1)], [Param(F(5, 7), 1)],
           Param(F(1, 2), 1), 12)
    assert calls == []
