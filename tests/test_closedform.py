"""Closed-form correlation functions and q-dimensions against the
enumeration oracles: one- and two-point generalized traces, fermionic
level-one sectors, neutral-boson one-point function, graded dimensions of
every negative-level family, the Weyl-group duality reductions, and the
first-point q-shift difference equations."""

import math
from fractions import Fraction as F
from itertools import combinations, permutations, product as iter_product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qfock import closedform as cf
from qfock import combinat, fock, verify
from qfock import qseries as qs
from qfock.qseries import (
    CapExceeded,
    DegenerateParameter,
    IllegalPower,
    Param,
    Series,
    _over_one_minus,
    beta_scalar,
    c_term,
    first_difference,
    pochhammer_inf,
    power,
    qhyper,
    series_equal,
    theta,
    theta_jet,
    to2,
)
from reference import (HALVES, _outcome, _outcome_and_message, any_point,
                       point_st, product_duality_trace, pts, qcoeff,
                       reference_module_instance, weyl_zsum)


S_VALUES = (F(2, 3), F(3, 5), F(5, 7))
X = Param(F(2, 5))
Y = Param(F(3, 7))
XZ = Param(F(2, 5), 0, -1, zvar=1)
YZ = Param(F(3, 7), 0, 1, zvar=1)


def assert_same(a, b):
    assert first_difference(a, b) is None


class TestOnePoint:
    @pytest.mark.parametrize("s", S_VALUES)
    def test_matches_oracle(self, s):
        t = Param(s)
        closed = cf.one_point_minus1(t, 10)
        oracle = fock.a_sector_trace(0, [t], 10)
        assert_same(closed, oracle)

    def test_low_order_coefficients(self):
        t = Param(F(2, 3))
        closed = cf.one_point_minus1(t, 4)
        b = beta_scalar(t)
        assert qcoeff(closed, 0) == b
        assert qcoeff(closed, 1) == b - 1 / b


def qhyper_one_point(t, N):
    """one_point_minus1 as the paper writes it: for each i >= 1 one
    3Phi2(0, 0, q; tq^i, q^i; q, q), weighted by q^(i-1)/(q)_(i-1)^2."""
    if t.is_zero:
        raise DegenerateParameter("one-point function at the zero parameter")
    zero, q1 = Param(0), Param(1, 1)
    out = qhyper([zero, zero], [q1], q1, N) * c_term(t, N)
    n2 = to2(N)
    for tt, sgn in ((t, 1), (t.inverse(), -1)):
        acc = Series.zero(N)
        inv = Series.one(N)  # 1/(q)_(i-1)^2, one factor pair per step
        i = 1
        while i - 1 <= n2 // 2:
            if i > 1:
                inv = _over_one_minus(_over_one_minus(inv, Param(1, i - 1)),
                                      Param(1, i - 1))
            phi = qhyper([zero, zero, q1], [tt.qshift(i), Param(1, i)], q1, N)
            acc = acc + inv.shift(i - 1) * (phi - Series.one(N))
            i += 1
        out = out + (power(tt, F(1, 2), N) * acc).scale(sgn)
    return out


@settings(max_examples=60, deadline=None)
@given(any_point(), st.sampled_from([F(k, 2) for k in range(21)]))
@example(Param(F(2, 3)), 10)
@example(Param(F(-5, 7)), F(19, 2))
@example(Param(F(2, 3), 0, 1), 3)        # charged: refused by beta(t)
@example(Param(F(2, 3), 1), 3)           # q-shifted: refused at t.inverse()
@example(Param(F(2, 3), F(1, 2)), 3)     # half q-shift: refused at t^(1/2)
@example(Param(0), 3)
@example(Param(F(2, 3), sign=-1), 3)
@example(Param(1), 2)
def test_one_point_nested_sum_matches_hypergeometric_loop(t, N):
    """The Horner nest over m = i + n - 1 equals the sum of 3Phi2's,
    truncation included, or both raise with the same exception and
    message."""
    assert _outcome_and_message(cf.one_point_minus1, t, N) \
        == _outcome_and_message(qhyper_one_point, t, N)


def _count_products_outside_qhyper(monkeypatch, f, *args):
    """(qhyper calls, Series products outside qhyper, _reduced calls inside
    each _one_point_nest) of one call f(*args)."""
    from qfock import qseries
    calls, inside, nests = [], [], []

    def counting_qhyper(*args, _qhyper=cf.qhyper):
        calls.append("qhyper")
        inside.append(1)
        try:
            return _qhyper(*args)
        finally:
            inside.pop()

    def counting_mul(self, other, _mul=Series.__mul__):
        if not inside:
            calls.append("mul")
        return _mul(self, other)

    def counting_reduced(*args, _reduced=qseries._reduced):
        calls.append("reduced")
        return _reduced(*args)

    def counting_nest(*args, _nest=cf._one_point_nest):
        before = calls.count("reduced")
        out = _nest(*args)
        nests.append(calls.count("reduced") - before)
        return out

    monkeypatch.setattr(cf, "qhyper", counting_qhyper)
    monkeypatch.setattr(cf, "_one_point_nest", counting_nest)
    monkeypatch.setattr(qseries, "_reduced", counting_reduced)
    monkeypatch.setattr(Series, "__mul__", counting_mul)
    f(*args)
    monkeypatch.undo()
    return calls.count("qhyper"), calls.count("mul"), nests


def test_one_point_cost_does_not_grow_with_N(monkeypatch):
    """one_point_minus1 calls qhyper once, for the t-free central 2Phi1,
    and makes no Series product outside it at N = 6, 12 and 20: the nest
    at t and at 1/t builds one Series each, with one gcd."""
    for N in (6, 12, 20):
        assert _count_products_outside_qhyper(
            monkeypatch, cf.one_point_minus1, Param(F(2, 3)), N) \
            == (1, 0, [1, 1])


def test_neutral_one_point_makes_no_product_outside_qhyper(monkeypatch):
    """c_one_point_half calls qhyper once per sign, for its 2Phi2, and
    makes no Series product outside it at N = 6, 10 and 20."""
    for N in (6, 10, 20):
        assert _count_products_outside_qhyper(
            monkeypatch, cf.c_one_point_half, Param(F(2, 3)), N) \
            == (2, 0, [])


def test_generalized_closed_forms_make_no_one_term_product(monkeypatch):
    """The charge-weighted one- and two-point closed forms apply beta(t),
    the ladder monomial and the double-ladder prefactor as scales, shifts
    and chain steps: no Series product has a one-term operand, and the
    two-point form keeps only the three products of its cross term."""
    operands = []

    def recording_mul(self, other, _mul=Series.__mul__):
        operands.append((len(self.nums), len(other.nums)))
        return _mul(self, other)

    monkeypatch.setattr(Series, "__mul__", recording_mul)
    t1, t2 = Param(F(2, 3)), Param(F(3, 5))
    cf.generalized_one_point(X, Y, t1, 10)
    cf.generalized_one_point(XZ, YZ, t1, 10)
    cf.partition_ladder_closed(Param(F(1, 2), F(1, 2)), t1, 10)
    assert operands == []
    cf.generalized_two_point(X, Y, t1, t2, 8)
    assert len(operands) == 3 and min(map(min, operands)) > 1


class TestGeneralizedOnePoint:
    @pytest.mark.parametrize("s", (F(2, 3), F(3, 5)))
    def test_matches_oracle(self, s):
        t = Param(s)
        closed = cf.generalized_one_point(X, Y, t, 8)
        oracle = fock.a_generalized_trace(X, Y, [t], 8)
        assert_same(closed, oracle)

    @pytest.mark.parametrize("s", (F(2, 3), F(3, 5)))
    def test_ladder_closed_form(self, s):
        t = Param(s)
        assert_same(verify.partition_ladder_sum(X, t, 8),
                    cf.partition_ladder_closed(X, t, 8))


def partitions_of(weight, largest=None):
    """The partitions of exactly `weight` with parts <= largest, as
    decreasing tuples, by recursion on the largest part."""
    if weight == 0:
        yield ()
        return
    for first in range(min(weight, weight if largest is None else largest),
                       0, -1):
        for rest in partitions_of(weight - first, first):
            yield (first,) + rest


def enumerated_ladder_sum(x, t, N):
    """verify.partition_ladder_sum before it read fock.mod_partitions: every
    partition of weight <= 2N, the ones beyond q^N dropped one by one."""
    n2 = to2(N)
    acc = {}
    for w in range(1, n2 + 1):
        for la in partitions_of(w):
            l = len(la)
            xc, xq2, xzk = x.pow_monomial(l)
            q2 = 2 * w - l + xq2
            if q2 > n2 or not xc:
                continue
            c = xc * sum(t.scalar_pow(F(2 * part - 1, 2)) for part in la)
            if c:
                acc[(q2, xzk)] = acc.get((q2, xzk), F(0)) + c
    return Series(n2, acc)


_SVAL = st.fractions(-3, 3, max_denominator=7).filter(bool)


@settings(max_examples=150, deadline=None)
@given(_SVAL, st.integers(0, 3), st.integers(-2, 2), st.sampled_from([1, -1]),
       _SVAL, st.integers(0, 12))
def test_ladder_sum_matches_enumeration(s, d2, e2, sign, ts, n2):
    """The ladder sum over mod_partitions against the enumeration of all
    partitions of weight <= 2N, at scalar and z-carrying x of q-valuation
    >= 0."""
    x = Param(s, F(d2, 2), F(e2, 2), zvar=1, sign=sign)
    t, N = Param(ts), F(n2, 2)
    assert verify.partition_ladder_sum(x, t, N) \
        == enumerated_ladder_sum(x, t, N)


@settings(max_examples=100, deadline=None)
@given(_SVAL, st.sampled_from([0, F(1, 2), 1]),
       st.sampled_from([F(-1, 2), 0, 1]), st.sampled_from([1, -1]),
       any_point(), HALVES)
def test_ladder_sum_matches_enumeration_or_refuses_alike(s, d, e, sign, t,
                                                         N):
    """The integer ladder sum against the Fraction enumeration at x with a
    q-shift, a charge or sign -1 and t of either sign, zero, q-shifted or
    charged: equal sums, or the same exception and message."""
    x = Param(s, d, e, sign=sign)
    assert _outcome_and_message(verify.partition_ladder_sum, x, t, N) \
        == _outcome_and_message(enumerated_ladder_sum, x, t, N)


@pytest.mark.parametrize("x, t, N, error", [
    (X, Param(F(2, 3), 1), 4, "parameter is not a scalar"),
    (X, Param(F(2, 3), 0, 1), 4, "parameter is not a scalar"),
    (X, Param(F(2, 3), sign=-1), 4,
     "half-integer power of a negative parameter"),
    (X, Param(0), 4, None),
    (X, Param(F(2, 3), sign=-1), 0, None),  # only the empty partition
    (Param(F(2, 5), 1), Param(F(2, 3), 1), F(1, 2), None),  # q^(3/2) > q^N
])
def test_ladder_sum_refuses_exactly_when_a_partition_is_summed(x, t, N,
                                                               error):
    """t is refused as each part's power t^(la_i - 1/2) refuses it, and only
    when some partition reaches q^N; t = 0 sums to zero."""
    got = _outcome_and_message(verify.partition_ladder_sum, x, t, N)
    assert got == _outcome_and_message(enumerated_ladder_sum, x, t, N)
    if error:
        assert got == (IllegalPower, error)
    else:
        assert got == Series.zero(N)


class TestGeneralizedTwoPoint:
    def test_matches_oracle(self):
        t1, t2 = Param(F(2, 3)), Param(F(3, 5))
        closed = cf.generalized_two_point(X, Y, t1, t2, 6)
        oracle = fock.a_generalized_trace(X, Y, [t1, t2], 6)
        assert_same(closed, oracle)

    def test_point_symmetry(self):
        t1, t2 = Param(F(2, 3)), Param(F(3, 5))
        assert series_equal(cf.generalized_two_point(X, Y, t1, t2, 6),
                            cf.generalized_two_point(X, Y, t2, t1, 6))

    def test_degenerate_product_rejected(self):
        t = Param(F(2, 3))
        with pytest.raises(DegenerateParameter):
            cf.generalized_two_point(X, Y, t, t.inverse(), 6)


class TestFermionicLevelOne:
    @pytest.mark.parametrize("k", [-1, 0, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_sector_matches_oracle_slice(self, k, n):
        points = pts(*S_VALUES[:n])
        closed = cf.level1_sector(k, points, 6)
        zvar = Param(F(1), 0, 1, zvar=1)
        oracle = fock.f1_charged_trace(zvar, points, 6).coeff_z(1, k)
        assert_same(closed, oracle)

    def test_f_bo_point_symmetry(self):
        t1, t2 = Param(F(2, 3)), Param(F(3, 5))
        assert series_equal(cf.f_bo([t1, t2], 6), cf.f_bo([t2, t1], 6))

    def test_f_bo_empty_is_vacuum_character(self):
        assert_same(cf.f_bo([], 10),
                    pochhammer_inf(Param(F(1), 1), 10).invert())


# -- level +1 sectors: the subset table and random points -------------------


def _leibniz_f_bo(points, N):
    """Reference f_bo: for every ordering sigma, the n x n theta-jet
    determinant as its n!-term Leibniz sum, divided by Theta(P_1) ...
    Theta(P_n), summed and divided by (q)_inf.

    This was closedform.f_bo before the unit-subdiagonal Hessenberg
    recurrence; it stays here as an independent second algorithm for the
    differential test.
    """
    n = len(points)
    if n > cf.F_BO_CAP:
        raise CapExceeded("f_bo limited to %d points" % cf.F_BO_CAP)
    qinf_inv = pochhammer_inf(Param(F(1), 1), N).invert()
    if n == 0:
        return qinf_inv
    jets, inverses = {}, {}

    def key(p):
        return (p.s, p.d2, p.e2, p.zvar, p.sign)

    def jet_of(p):
        if key(p) not in jets:
            jets[key(p)] = theta_jet(p, n, N)
        return jets[key(p)]

    def theta_inv(p):
        if key(p) not in inverses:
            if p.d2 in (-2, 0, 2) and p.e2 == 0 and p.value_coeff == 1:
                raise DegenerateParameter("theta vanishes at 1 and q^(+-1)")
            inverses[key(p)] = theta(p, N).invert()
        return inverses[key(p)]

    total = Series.zero(N)
    for sigma in permutations(range(n)):
        prefix = [Param(F(1))]
        for idx in sigma:
            prefix.append(prefix[-1] * points[idx])
        # entry (i, j), 0-based: jet order j - i + 1 at P_(n-1-j)
        det = Series.zero(N)
        for tau in permutations(range(n)):
            if any(tau[i] - i + 1 < 0 for i in range(n)):
                continue
            term = Series.one(N)
            for i, j in enumerate(tau):
                term = term * jet_of(prefix[n - 1 - j])[j - i + 1]
            det = det + term.scale(combinat._perm_sign(tau))
        den = Series.one(N)
        for p in prefix[1:]:
            den = den * theta_inv(p)
        total = total + det * den
    return qinf_inv * total


# s-values whose products often equal 1, where Theta vanishes
_S_POOL = st.one_of(st.sampled_from([F(2, 3), F(3, 2), F(-3, 2), F(1), F(-1)]),
                    st.fractions(-3, 3, max_denominator=13).filter(bool))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_S_POOL, st.sampled_from([-1, 0, 0, 1])),
                max_size=4),
       st.sampled_from([F(i, 2) for i in range(7)]))
@example([(F(2, 3), 0), (F(3, 2), 0)], 3)       # P_2 = 1
@example([(F(1), 1)], 2)                       # Theta(q) = 0
@example([(F(-1), 0), (F(-3, 5), 1), (F(5, 3), 0), (F(-3, 5), 1)], 2)
@example([(F(2, 3), 1), (F(5, 7), -1), (F(7, 5), 1), (F(3, 2), -1)], 1)
@example([(F(2, 3), 1), (F(3, 5), -1)], 3)      # q-shifted
@example([(F(2, 3), 1), (F(3, 5), 1)], 2)       # refused: P_2 at q^2
@example([(F(2, 3), 0), (F(2, 3), 0), (F(3, 5), 0)], 3)  # a repeated point
@example([(F(2, 3), 0), (F(3, 5), 0), (F(2, 5), 0)], 2)  # one product, two sets
@example([(F(3, 5), 0), (F(2, 5), 0), (F(2, 3), 0), (F(3, 5), 0)], 2)
def test_f_bo_matches_leibniz_determinants(spec, N):
    points = [Param(s, d) for s, d in spec]
    assert _outcome(cf.f_bo, points, N) == _outcome(_leibniz_f_bo, points, N)


@pytest.mark.parametrize("spec", [
    [(F(1), 1)], [(F(1), -1)], [(F(-1), 1)],
    [(F(2, 3), 1), (F(3, 2), 0)],               # P_2 = q
    [(F(2, 3), 0), (F(3, 5), -1), (F(5, 2), 0)],  # P_3 = 1/q
])
def test_f_bo_refuses_theta_zeros_at_q_powers(spec):
    points = [Param(s, d) for s, d in spec]
    with pytest.raises(DegenerateParameter):
        cf.f_bo(points, 2)


# points whose products recur across lists, and points theta refuses
_A, _B, _C, _D = pts(F(2, 3), F(3, 2), F(3, 5), F(5, 3))
_Q2 = Param(F(2, 3), 2)
_AC, _E = pts(F(2, 5), F(5, 7))  # _AC = _A _C: one product, two sets
_BATCH_POOL = [_A, _B, _C, _D, _Q2, Param(F(2, 3), 1), Param(F(3, 2), -1),
               Param(F(-1)), Param(F(2, 3), F(1, 2)), Param(F(2, 3), 0, 1),
               Param(F(2, 3), sign=-1)]


def batch_f_bo(point_lists, N):
    """cf._f_bo_all's Rows as the series cf.f_bo builds from one of them."""
    return [fock.row_series(to2(N), row)
            for row in cf._f_bo_all(point_lists, N)]


def _sequential_f_bo(point_lists, N):
    """[f_bo(points, N) for points in point_lists], or the type and message
    of the first call that raises."""
    out = []
    for points in point_lists:
        got = _outcome_and_message(cf.f_bo, points, N)
        if not isinstance(got, Series):
            return got
        out.append(got)
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_BATCH_POOL), max_size=5),
                max_size=5),
       st.sampled_from([F(i, 2) for i in range(7)]))
@example([[_A, _C], [_C, _A], [_A, _C, _D], [_B, _D]], 3)  # shared products
@example([], 2)
@example([[], [_A]], 2)
@example([[_A], [_A] * 5, [_B]], 1)                        # over F_BO_CAP
@example([[_A, _C], [_C, _Q2]], 2)                         # theta refuses
@example([[_C], [_A, _B], [_C, _Q2]], 2)                   # P_2 = 1 first
@example([[_A, _C, _E], [_E, _C], [_C, _E, _A], [_E, _A, _C, _A]], 2)
@example([[_A, _C, _AC], [_AC, _E], [_C, _A, _E], [_E, _AC, _A]], 2)
def test_f_bo_batch_matches_sequential_calls(point_lists, N):
    assert _outcome_and_message(batch_f_bo, point_lists, N) \
        == _sequential_f_bo(point_lists, N)


@pytest.mark.parametrize("n,cap", [(3, 100), (4, 300)])  # 53 and 188 made
def test_f_bo_batch_builds_one_subset_table(monkeypatch, n, cap):
    """Over the 3^n eps-signed subsets of n points at N = 4, the batch
    makes one list product per point multiset and per (multiset, jet
    order), not one Hessenberg recurrence per list and ordering, and
    inverts each distinct nonempty partial product's list once."""
    points = pts(F(2, 3), F(3, 5), F(5, 7), F(7, 11))[:n]
    lists = [list(signed) for U in range(1 << n)
             for _, _, signed in cf._eps_signed(points, U)]
    count = {"convolve": 0, "inverse": 0}

    def counted_convolve(*args, _convolve=cf._convolve):
        count["convolve"] += 1
        return _convolve(*args)

    def counted_inverse(M, _inverse=cf._inverse_list):
        count["inverse"] += 1
        return _inverse(M)

    monkeypatch.setattr(cf, "_convolve", counted_convolve)
    monkeypatch.setattr(cf, "_inverse_list", counted_inverse)
    got = batch_f_bo(lists, 4)
    monkeypatch.undo()
    assert count["convolve"] <= cap
    assert count["inverse"] == 3 ** n - 1
    if n == 3:
        assert got == [cf.f_bo(points, 4) for points in lists]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(-3, 3, max_denominator=13).filter(bool),
                min_size=1, max_size=2),
       st.integers(-2, 2), st.sampled_from([F(i, 2) for i in range(9)]))
def test_level1_sector_matches_oracle_at_random_points(svals, k, N):
    # a partial product equal to 1 is refused by f_bo (Theta vanishes)
    assume(all(v * v != 1 for v in (svals[0], svals[-1], svals[0] * svals[-1])))
    points = pts(*svals)
    zvar = Param(F(1), 0, 1, zvar=1)
    closed = cf.level1_sector(k, points, N)
    # the factor q^(k^2/2) lifts the closed form's truncation to N + k^2/2
    assert closed.truncation >= N
    assert closed.truncate(N) \
        == fock.f1_charged_trace(zvar, points, N).coeff_z(1, k)


class TestNeutralOnePoint:
    @pytest.mark.parametrize("s", S_VALUES)
    def test_matches_oracle(self, s):
        t = Param(s)
        closed = cf.c_one_point_half(t, 8)
        oracle = fock.neutral_trace("boson_neutral", "C", [t], 8)
        assert_same(closed, oracle)

    def test_antisymmetry_under_inversion(self):
        t = Param(F(2, 3))
        assert series_equal(cf.c_one_point_half(t, 8),
                            cf.c_one_point_half(t.inverse(), 8).scale(-1))


class TestSectorBlocks:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_c_slice_matches_duality_oracle(self, m):
        points = pts(F(2, 3))
        closed = cf.c_sector_minus1(m, points, 6)
        oracle = Series.zero(6)
        for sgn, p in ((1, points), (-1, [points[0].inverse()])):
            oracle = oracle + fock.a_sector_trace(m, p, 6).scale(sgn)
        assert_same(closed, oracle)

    def test_d_slice_is_difference(self):
        points = pts(F(2, 3))
        assert series_equal(
            cf.d_sector_minus1(1, points, 6),
            cf.c_sector_minus1(1, points, 6) - cf.c_sector_minus1(3, points, 6))

    def test_d_slice_negative_charge_extension(self):
        # d(-1) = 0 and d(-k-2) = -d(k): both sides of the even extension.
        points = pts(F(2, 3))
        assert cf.d_sector_minus1(-1, points, 6).is_zero()
        assert series_equal(cf.d_sector_minus1(-3, points, 6),
                            cf.d_sector_minus1(1, points, 6).scale(-1))


def eps_signed_points(points):
    """(eps_1...eps_n, eps-inverted points) for every eps in {+-1}^n."""
    for eps in iter_product((1, -1), repeat=len(points)):
        sgn = 1
        signed = []
        for p, e in zip(points, eps):
            signed.append(p if e == 1 else p.inverse())
            sgn *= e
        yield sgn, signed


def reference_c_sector_minus1(m, points, N):
    """``cf.c_sector_minus1`` with one A-operator Fock trace per sign
    pattern, where the closed form reads the C rule, C(t) = A(t) - A(1/t),
    at the points themselves: the Tier-1 check that C = sum_eps eps A."""
    out = Series.zero(N)
    for sgn, signed in eps_signed_points(points):
        out = out + fock.a_sector_trace(abs(m), signed, N).scale(sgn)
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(point_st, max_size=3), st.integers(-3, 3), st.integers(0, 6))
@example(pts(F(2, 3), F(2, 3)), 1, 4)           # repeated points
@example(pts(F(2, 3), F(3, 2)), 0, 4)           # mutually inverse points
@example([], 2, 6)
def test_signed_slices_match_one_trace_per_sign_pattern(points, m, n2):
    N = F(n2, 2)
    assert cf.c_sector_minus1(m, points, N) \
        == reference_c_sector_minus1(m, points, N)
    assert cf.d_sector_minus1(m, points, N) \
        == reference_c_sector_minus1(m, points, N) \
        - reference_c_sector_minus1(m + 2, points, N)


class TestQDimBaseSeries:
    def test_charged_base_first_coefficients(self):
        g = cf.charged_qdim_base(0, 6)
        assert [qcoeff(g, i) for i in range(4)] == [1, 1, 3, 6]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_charged_base_counts_states(self, k):
        assert_same(cf.charged_qdim_base(k, 8),
                    fock.a_sector_trace(k, [], 8))


LEVEL_OF = {
    ("a", "-l"): "-2",
    ("c", "l-1/2"): "3/2",
    ("c", "-l"): "-2",
    ("c", "-l-1/2"): "-5/2",
    ("d", "-l"): "-2",
    ("d", "-l+1/2"): "-3/2",
}


class TestQDimensions:
    @pytest.mark.parametrize("lam", [(0, 0), (1, 0), (1, -1)])
    def test_type_a_rank2_vs_extraction(self, lam):
        inst = cf.duality_instance("a", "-l", 2)
        assert_same(cf.qdim_closed("a", "-2", lam, 8),
                    cf.extract_dominant(inst, lam, [], 8))

    def test_type_a_rank3_vs_extraction(self):
        inst = cf.duality_instance("a", "-l", 3)
        lam = (2, 1, 0)
        assert_same(cf.qdim_closed("a", "-3", lam, 6),
                    cf.extract_dominant(inst, lam, [], 6))

    @pytest.mark.parametrize("lam", [(0, 0), (1, 0), (2, 1)])
    def test_c_positive_half_forms_agree(self, lam):
        assert series_equal(
            cf.qdim_closed("c", "3/2", lam, 12, form="weyl"),
            cf.qdim_closed("c", "3/2", lam, 12, form="product"))

    # (a, -l) is covered with negative labels above
    @pytest.mark.parametrize("key", [
        pytest.param(key, id="key%d" % i)
        for i, key in enumerate(sorted(LEVEL_OF)) if key != ("a", "-l")])
    @pytest.mark.parametrize("lam", [(0, 0), (1, 0), (2, 1)])
    def test_rank2_families_vs_extraction(self, key, lam):
        alg, fam = key
        inst = cf.duality_instance(alg, fam, 2)
        assert_same(cf.qdim_closed(alg, LEVEL_OF[key], lam, 8),
                    cf.extract_dominant(inst, lam, [], 8))

    @pytest.mark.parametrize("alg,k", [("c", 0), ("c", 1), ("d", 0), ("d", 2)])
    def test_rank1_vs_extraction(self, alg, k):
        inst = cf.duality_instance(alg, "-l", 1)
        assert_same(cf.qdim_closed(alg, "-1", (k,), 8),
                    cf.extract_dominant(inst, (k,), [], 8))

    def test_bad_labels_rejected(self):
        with pytest.raises(IllegalPower):
            cf.qdim_closed("c", "-2", (0, 1), 4)  # increasing
        with pytest.raises(IllegalPower):
            cf.qdim_closed("c", "-2", (1, -1), 4)  # negative entry
        with pytest.raises(IllegalPower):
            cf.qdim_closed("a", "-2", (1,), 4)  # short type-a label


class TestDualityReduce:
    @pytest.mark.parametrize("key", sorted(LEVEL_OF))
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_assignment_matches_extraction(self, key, n):
        alg, fam = key
        inst = cf.duality_instance(alg, fam, 2)
        points = pts(*S_VALUES[:n])
        for lam in ((0, 0), (1, 0)):
            asg = cf.duality_reduce(inst, lam, points, 6, mode="assignment")
            ext = cf.extract_dominant(inst, lam, points, 6)
            assert_same(asg, ext)

    @pytest.mark.parametrize("key", sorted(LEVEL_OF))
    def test_no_points_literal_equals_assignment(self, key):
        alg, fam = key
        inst = cf.duality_instance(alg, fam, 2)
        lit = cf.duality_reduce(inst, (1, 0), [], 8, mode="literal")
        asg = cf.duality_reduce(inst, (1, 0), [], 8, mode="assignment")
        assert series_equal(lit, asg)
        assert series_equal(asg, cf.qdim_closed(alg, LEVEL_OF[key], (1, 0), 8))

    def test_rank1_assignment_is_base_function(self):
        points = pts(F(2, 3))
        inst = cf.duality_instance("a", "-l", 1)
        assert series_equal(cf.duality_reduce(inst, (1,), points, 8),
                            fock.a_sector_trace(1, points, 8))
        inst = cf.duality_instance("d", "-l", 1)
        assert series_equal(cf.duality_reduce(inst, (1,), points, 8),
                            cf.d_sector_minus1(1, points, 8))

    def test_known_literal_discrepancy(self):
        # Rank 2, trivial label, one point: the assignment form matches the
        # trace (2*beta at order q^0) while the naive product of full
        # one-point blocks gives beta^2.
        t = Param(F(2, 3))
        inst = cf.duality_instance("a", "-l", 2)
        asg = cf.duality_reduce(inst, (0, 0), [t], 4, mode="assignment")
        lit = cf.duality_reduce(inst, (0, 0), [t], 4, mode="literal")
        b = beta_scalar(t)
        assert qcoeff(asg, 0) == 2 * b
        assert qcoeff(lit, 0) == b * b
        oracle = cf.extract_dominant(inst, (0, 0), [t], 4)
        assert qcoeff(oracle, 0) == 2 * b

    def test_point_cap(self):
        """Every mode refuses what the oracle refuses, with its message:
        DUALITY_CAP + 1 points."""
        from qfock.qseries import CapExceeded
        inst = cf.duality_instance("a", "-l", 1)
        points = pts(*[F(k + 2, k + 3) for k in range(fock.DUALITY_CAP + 1)])
        with pytest.raises(CapExceeded) as oracle:
            cf.extract_dominant(inst, (0,), points, 4)
        for mode in ("assignment", "literal"):
            with pytest.raises(CapExceeded) as closed:
                cf.duality_reduce(inst, (0,), points, 4, mode)
            assert str(closed.value) == str(oracle.value)


# -- Weyl extraction against the product-and-slice route ----------------------


def product_extract(oracle, wtype, rho, lam, N):
    """Reference route of ``weyl_extract``: multiply the oracle by the
    alternating Weyl z-sum, then slice out z_i^((lam+rho)_i) for each i."""
    out = oracle * Series(to2(N), weyl_zsum(wtype, rho).terms)
    for i in range(len(rho)):
        out = out.coeff_z(i + 1, F(2 * lam[i] + to2(rho[i]), 2))
    return out


# (Weyl type, rho kind) of the duality families, plus whether labels may be
# negative (type a only).
WEYL_DATA = [("A", "A", True), ("BC", "B", False), ("D", "A", False),
             ("BC", "C", False)]


@st.composite
def extraction_cases(draw):
    """(Weyl type, rho, label, oracle, N).  The oracle's z_1..z_l exponents
    are drawn half the time from the Weyl shifts lam+rho-w rho, so that
    lookups hit, and otherwise at random, half-integers included; z_(l+1)
    is a variable beyond z_l.  Its truncation falls above and below
    2N + min2, and its lowest q-exponent may be negative."""
    wtype, rho_kind, negative = draw(st.sampled_from(WEYL_DATA))
    l = draw(st.integers(1, 3))
    lo = -2 if negative else 0
    lam = tuple(sorted(draw(st.lists(st.integers(lo, 3), min_size=l,
                                     max_size=l)), reverse=True))
    rho = combinat.rho_vector(rho_kind, l)
    shifts = sorted({tuple(2 * k for k in combinat.k_vector(lam, w, rho))
                     for w, _ in combinat.weyl_group(wtype, l)})
    N2 = draw(st.integers(0, 8))
    trunc2 = draw(st.integers(-4, 14))
    head = st.one_of(st.sampled_from(shifts),
                     st.tuples(*[st.integers(-10, 10)] * l))
    term = st.tuples(st.integers(-4, trunc2), head, st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3,
                                  max_denominator=4))
    terms = {}
    for q2, hd, extra, c in draw(st.lists(term, max_size=12)):
        zk = tuple((i + 1, e) for i, e in enumerate(hd) if e)
        if extra:
            zk += ((l + 1, extra),)
        terms[(q2, zk)] = c
    return wtype, rho, lam, Series(trunc2, terms), F(N2, 2)


@settings(max_examples=300, deadline=None)
@given(extraction_cases())
@example(("A", combinat.rho_vector("A", 2), (1, -1), Series(6, {}),
          F(2)))
@example(("BC", combinat.rho_vector("B", 1), (0,),
          Series(9, {(-3, ((1, 2), (2, 1))): F(1, 2), (4, ()): F(1)}),
          F(3)))
def test_weyl_extract_matches_product_route(case):
    wtype, rho, lam, oracle, N = case
    assert cf.weyl_extract(Series.one(N), oracle, wtype, rho, lam) \
        == product_extract(oracle, wtype, rho, lam, N)


def test_extraction_multiplies_only_z_free_series(monkeypatch):
    """The oracle's extraction multiplies no series at all: the charge
    trie of fock.duality_trace convolves integer rows.  The charge-resolved
    q-dimension multiplies no series on different charge variables and
    none by a one-term series: the per-variable inverses go to the slice
    reader as they are, and the full vacuum is never multiplied out."""
    inst = cf.duality_instance("c", "-l-1/2", 2)
    points = pts(F(2, 3))
    oracle = product_duality_trace(inst.factors, inst.op_tag, points, 4)
    operands = []

    def recording_mul(self, other, _mul=Series.__mul__):
        operands.append((self, other))
        return _mul(self, other)

    monkeypatch.setattr(Series, "__mul__", recording_mul)
    monkeypatch.setattr(Series, "__rmul__", recording_mul)
    qdim = verify.charge_resolved_qdim_extract(2, (1, 0), 6)
    qdim_products = [(a, b) for a, b in operands if isinstance(b, Series)]
    operands.clear()
    ext = cf.extract_dominant(inst, (1, 0), points, 4)
    monkeypatch.undo()
    assert operands == []

    def charge_vars(s):
        return {v for _, zk in s.nums for v, _ in zk}

    assert qdim_products
    for a, b in qdim_products:
        assert charge_vars(a) == charge_vars(b)
        assert len(a.nums) > 1 and len(b.nums) > 1
    vacuum = verify.charge_resolved_pair_inverse(1, 6) \
        * verify.charge_resolved_pair_inverse(2, 6)
    assert ext == product_extract(oracle, inst.weyl, inst.rho, (1, 0), 4)
    assert qdim == product_extract(vacuum, "A", combinat.rho_vector("A", 2),
                                   (1, 0), 6)
    assert not ext.is_zero() and not qdim.is_zero()


@st.composite
def extraction_requests(draw, max_rank=2, max_points=2, max_n2=6):
    """(instance, label, points, N) over the six families at ranks
    1..max_rank, with up to max_points random scalar points and
    N <= max_n2/2; type-a labels may be negative."""
    alg, fam = draw(st.sampled_from(sorted(LEVEL_OF)))
    inst = cf.duality_instance(alg, fam, draw(st.integers(1, max_rank)))
    lo = -2 if inst.allow_negative_label else 0
    lam = tuple(sorted(draw(st.lists(st.integers(lo, 2), min_size=inst.l,
                                     max_size=inst.l)), reverse=True))
    points = draw(st.lists(point_st, max_size=max_points))
    return inst, lam, points, F(draw(st.integers(0, max_n2)), 2)


@settings(max_examples=200, deadline=None)
@given(extraction_requests())
@example((cf.duality_instance("a", "-l", 2), (1, -1), pts(F(2, 3)),
          F(3)))
@example((cf.duality_instance("c", "-l-1/2", 2), (1, 0),
          pts(F(2, 3), F(-3, 5)), F(2)))
def test_sliced_extraction_matches_full_product_oracle(req):
    inst, lam, points, N = req
    oracle = product_duality_trace(inst.factors, inst.op_tag, points, N)
    assert cf.extract_dominant(inst, lam, points, N) \
        == cf.weyl_extract(Series.one(N), oracle, inst.weyl, inst.rho, lam)


def has_unit_signed_product(points):
    """Whether some nonempty subset of the points, each taken as t or 1/t,
    multiplies to 1: there a level-one block's f_bo refuses."""
    for r in range(1, len(points) + 1):
        for sub in combinations(points, r):
            for _, signed in eps_signed_points(sub):
                prod = Param(F(1))
                for p in signed:
                    prod = prod * p
                if prod.value_coeff == 1:
                    return True
    return False


@settings(max_examples=200, deadline=None)
@given(extraction_requests(max_rank=3))
@example((cf.duality_instance("d", "-l", 1), (1,), pts(F(2, 3)),
          F(3)))
@example((cf.duality_instance("c", "l-1/2", 3), (1, 0, 0),
          pts(F(2, 3), F(-3, 5)), F(2)))
def test_assignment_reduction_matches_oracle_at_random_points(req):
    """The closed-form reduction against the Fock oracle's Weyl extraction,
    which enumerates the Weyl group on its own."""
    inst, lam, points, N = req
    assume(not has_unit_signed_product(points))
    assert cf.duality_reduce(inst, lam, points, N, mode="assignment") \
        == cf.extract_dominant(inst, lam, points, N)


# -- Weyl-group references of the closed-form alternants ----------------------


def weyl_signed_product(wtype, l, rho, lam, block, N):
    """sum_w sgn(w) block(lam + rho - w rho, N), the group enumerated
    element by element: the reference of ``cf._alternant``."""
    out = Series.zero(N)
    for elem, sgn in combinat.weyl_group(wtype, l):
        ks = combinat.k_vector(lam, elem, rho)
        out = out + block(ks, N).scale(sgn)
    return out


def charged_qdim_product(ks, N):
    out = Series.one(N)
    for k in ks:
        out = out * cf.charged_qdim_base(k, N)
    return out


def norm_monomial(ks, N):
    return Series.monomial(1, F(sum(k * k for k in ks), 2), N)


def neutral_qdim(kind, N):
    """Graded dimension of a neutral factor as a series: 1/(q^(1/2))_inf
    for the boson, (-q^(1/2))_inf for the fermion."""
    if kind == "boson_neutral":
        return pochhammer_inf(Param(F(1), F(1, 2)), N).invert()
    return pochhammer_inf(Param(F(1), F(1, 2), sign=-1), N)


def reference_qdim(algebra, level, label, N):
    """``cf.qdim_closed`` (Weyl form) with its Weyl sums enumerated and its
    neutral factor multiplied in as a series."""
    inst = cf.module_instance(algebra, level)
    if inst.factors[0] == "fermion_pair":
        lam = cf._normalize_label(label, inst.l, allow_negative=False)
        pre = neutral_qdim("boson_neutral", N) \
            * pochhammer_inf(Param(F(1), 1), N).invert() ** inst.l
        return pre * weyl_signed_product(inst.weyl, inst.l, inst.rho, lam,
                                         norm_monomial, N)
    lam = cf._normalize_label(label, inst.l, inst.allow_negative_label)
    wsum = weyl_signed_product(inst.weyl, inst.l, inst.rho, lam,
                               charged_qdim_product, N)
    if inst.neutral_factor is None:
        return wsum
    return neutral_qdim(inst.factors[inst.neutral_factor], N) * wsum


def reference_charged_block(inst, k, points, N):
    """Level +-1 block of one charged factor at shifted weight k, built on
    its own: one f_bo or Fock trace per sign pattern and charge."""
    if inst.factors[0] == "fermion_pair":
        out = Series.zero(N)
        for sgn, signed in eps_signed_points(points):
            out = out + cf.level1_sector(k, signed, N).scale(sgn)
        return out
    if inst.op_tag == "A":
        return fock.a_sector_trace(k, points, N)
    return reference_c_sector_minus1(k, points, N)


def points_key(points):
    return tuple((p.s, p.d2, p.e2, p.zvar, p.sign) for p in points)


def reference_duality_reduce(inst, label, points, N, mode):
    """``cf.duality_reduce`` with both readings summed over the Weyl group
    element by element (literal: one product of full-list blocks per
    element; assignment: per element, a sum over the maps from points to
    factors), and every block built on its own, keyed by point values."""
    lam = cf._normalize_label(label, inst.l, inst.allow_negative_label)
    cache = {}

    def block(k, pts):
        key = (k, points_key(pts))
        if key not in cache:
            cache[key] = reference_charged_block(inst, k, pts, N)
        return cache[key]

    def nblock(pts):
        key = ("neutral", points_key(pts))
        if key not in cache:
            cache[key] = fock.neutral_trace(inst.factors[-1], inst.op_tag,
                                            pts, N)
        return cache[key]

    n = len(points)
    all_pts = tuple(points)
    has_neutral = inst.neutral_factor is not None
    out = Series.zero(N)
    if mode == "literal":
        pre = nblock(all_pts) if has_neutral else Series.one(N)
        for elem, sgn in combinat.weyl_group(inst.weyl, inst.l):
            ks = combinat.k_vector(lam, elem, inst.rho)
            term = Series.one(N)
            for k in ks:
                term = term * block(k, all_pts)
            out = out + term.scale(sgn)
        return pre * out
    nfac = len(inst.factors)
    assignments = list(iter_product(range(nfac), repeat=n))
    for elem, sgn in combinat.weyl_group(inst.weyl, inst.l):
        ks = combinat.k_vector(lam, elem, inst.rho)
        inner = Series.zero(N)
        for phi in assignments:
            term = Series.one(N)
            for i in range(nfac):
                pts = tuple(points[j] for j in range(n) if phi[j] == i)
                if has_neutral and i == inst.neutral_factor:
                    term = term * nblock(pts)
                else:
                    term = term * block(ks[i], pts)
            inner = inner + term
        out = out + inner.scale(sgn)
    return out


@settings(max_examples=150, deadline=None)
@given(extraction_requests(max_rank=4, max_points=0, max_n2=10))
@example((cf.duality_instance("d", "-l", 4), (2, 1, 1, 0), [], F(5)))
@example((cf.duality_instance("c", "l-1/2", 4), (2, 1, 0, 0), [],
          F(5)))
@example((cf.duality_instance("a", "-l", 4), (2, 0, -1, -2), [],
          F(9, 2)))
def test_qdim_alternant_matches_weyl_enumeration(req):
    """Every Weyl-sum family of qdim_closed against the group enumerated
    element by element; == compares the truncation too."""
    inst, lam, _, N = req
    assert cf.qdim_closed(inst.algebra, inst.level, lam, N) \
        == reference_qdim(inst.algebra, inst.level, lam, N)


def repeated_and_inverse_points(test):
    """Explicit examples at a repeated point and at mutually inverse points,
    for the a -l, c -l, d -l and c -l-1/2 families in both readings."""
    for key in (("a", "-l"), ("c", "-l"), ("d", "-l"), ("c", "-l-1/2")):
        for svals in ((F(2, 3), F(2, 3)), (F(2, 3), F(3, 2))):
            for mode in ("literal", "assignment"):
                req = (cf.duality_instance(*key, 2), (1, 0), pts(*svals),
                       F(2))
                test = example(req, mode)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(extraction_requests(max_rank=4, max_n2=4),
       st.sampled_from(["literal", "assignment"]))
@example((cf.duality_instance("d", "-l+1/2", 3), (1, 1, 0),
          pts(F(2, 3), F(3, 5)), F(2)), "assignment")
@example((cf.duality_instance("c", "-l", 4), (1, 0, 0, 0),
          pts(F(2, 3), F(3, 5)), F(1)), "assignment")
@example((cf.duality_instance("a", "-l", 4), (1, 0, 0, -1), pts(F(2, 3)),
          F(3, 2)), "literal")
@example((cf.duality_instance("c", "l-1/2", 2), (1, 0), pts(F(2, 3), F(3, 2)),
          F(1)), "assignment")
# rows of length 1 (N = 0) and 2 (N = 1/2)
@example((cf.duality_instance("d", "-l", 2), (1, 0), pts(F(2, 3), F(3, 5)),
          F(0)), "assignment")
@example((cf.duality_instance("c", "-l", 2), (1, 1), pts(F(3, 5)),
          F(1, 2)), "literal")
# fermion-pair blocks over different denominators: the merges take the lcm
@example((cf.duality_instance("c", "l-1/2", 2), (1, 0), pts(F(2, 3), F(3, 5)),
          F(1)), "assignment")
# the fermion-neutral prefactor of the literal reading, folded as its tail
@example((cf.duality_instance("d", "-l+1/2", 2), (1, 0),
          pts(F(2, 3), F(3, 5)), F(3, 2)), "literal")
@repeated_and_inverse_points
def test_duality_alternant_matches_weyl_enumeration(req, mode):
    """Both readings of duality_reduce against the Weyl-group loops they
    replaced, refusals included."""
    inst, lam, points, N = req
    assert _outcome(cf.duality_reduce, inst, lam, points, N, mode) \
        == _outcome(reference_duality_reduce, inst, lam, points, N, mode)


# -- the point-mask fold against the map-by-map loop --------------------------


def row_alternant(inst, rows, entry, N):
    """sum_w sgn(w) prod_i entry(i, k_i(w)) over the Weyl group of inst,
    expanded row by row over (used columns, type-D parity) from
    Series.one(N).

    This was ``cf._alternant`` before the point masks were folded into its
    rows; with ``phi_loop_duality_reduce`` it is the reference of
    ``test_point_fold_matches_phi_loop``."""
    states = {(0, 0): Series.one(N)}
    for i, shifts in enumerate(rows):
        row = [(j, s, entry(i, k)) for j, s, k in shifts]
        nxt = {}
        for (used, odd), acc in states.items():
            for j, s, e in row:
                if used >> j & 1:
                    continue
                term = acc * e
                if (bin(used >> j).count("1") + (s < 0)) % 2:
                    term = -term
                key = (used | 1 << j, odd ^ (inst.weyl == "D" and s < 0))
                nxt[key] = nxt[key] + term if key in nxt else term
        states = nxt
    return Series.zero(N) + states[(2 ** inst.l - 1, 0)]


def phi_loop_duality_reduce(inst, label, points, N):
    """The assignment reading of ``cf.duality_reduce`` as one row alternant
    per map phi from the points to the factors, each factor's block read at
    the points phi sends it, times the neutral factor's trace at its own."""
    lam = cf._normalize_label(label, inst.l, inst.allow_negative_label)
    n = len(points)
    nfac = len(inst.factors)
    neutral = inst.neutral_factor
    rows = cf._row_shifts(inst, lam)
    charges = {k for row in rows for _, _, k in row}
    blocks = cf._charged_blocks(inst, charges, points, N)
    if neutral is not None:
        nblocks = [fock.row_series(to2(N), row) for row in fock._neutral_rows(
            inst.factors[neutral], points, to2(N))]
    out = Series.zero(N)
    for phi in iter_product(range(nfac), repeat=n):
        parts = [sum(1 << j for j in range(n) if phi[j] == i)
                 for i in range(nfac)]
        term = row_alternant(
            inst, rows,
            lambda i, k: fock.row_series(to2(N), blocks[k][parts[i]]), N)
        if neutral is not None:
            term = term * nblocks[parts[neutral]]
        out = out + term
    return out


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("key", sorted(LEVEL_OF), ids="".join)
def test_point_fold_matches_phi_loop(key, l, n):
    """Every family at ranks 1-3 with 0-3 points: the fold over (used
    columns, parity, point mask) equals the sum of one alternant per map
    from the points to the factors."""
    inst = cf.duality_instance(*key, l)
    lam = (1,) + (0,) * (l - 2) + (-1,) * (l > 1) \
        if inst.allow_negative_label else (1,) + (0,) * (l - 1)
    points = pts(*S_VALUES)[:n]
    got = cf.duality_reduce(inst, lam, points, 3, mode="assignment")
    assert got == phi_loop_duality_reduce(inst, lam, points, 3)
    assert n == 0 or not got.is_zero()


FERMION_BLOCK_CASES = [(pts(F(2, 3), F(3, 5)), F(7, 2)),
                       (pts(F(-2, 3), F(5, 3), F(3, 7)), 2)]


@pytest.mark.parametrize("points,N", FERMION_BLOCK_CASES)
def test_fermion_blocks_match_one_level1_sector_per_sign(points, N):
    """Every (charge, mask) block of the fermion pair, truncation included,
    equals the sum of one ``level1_sector`` per eps-signed subset."""
    inst = cf.duality_instance("c", "l-1/2", 2)
    charges = [-2, -1, 0, 1, 3]
    blocks = cf._charged_blocks(inst, charges, points, N)
    for k in charges:
        assert len(blocks[k]) == 1 << len(points)
        for U in range(1 << len(points)):
            sub = [p for j, p in enumerate(points) if U >> j & 1]
            assert fock.row_series(to2(N), blocks[k][U]) \
                == reference_charged_block(inst, k, sub, N)


_BLOCK_S = st.fractions(-3, 3, max_denominator=7).filter(
    lambda s: s and abs(s) != 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(_BLOCK_S, min_size=1, max_size=3),
       st.sampled_from([F(i, 2) for i in range(9)]),
       st.lists(st.integers(0, 2), min_size=1, max_size=2))
@example([F(-2, 3), F(3, 5), F(-5, 7)], 4, [1, 0])  # negative roots
@example([F(2, 3), F(-3, 2)], F(5, 2), [1])         # t_1 t_2 = 1
@example([F(2, 3), F(3, 5), F(-2, 5)], 3, [2, 1])   # t_1 t_2 = t_3
@example([F(-3, 2)], 0, [0, 0])
def test_fermion_block_rows_match_reference_blocks(svals, N, label):
    """Every (charge, mask) Row of the c l - 1/2 blocks, read by row_series,
    equals reference_charged_block (one level1_sector series per
    eps-signed subset) at ranks 1 and 2; a partial product equal to 1
    raises the same DegenerateParameter, with the same message, on both
    sides."""
    label = sorted(label, reverse=True)
    inst = cf.duality_instance("c", "l-1/2", len(label))
    points = pts(*svals)
    charges = cf._row_charges(cf._row_shifts(inst, label))
    got = _outcome_and_message(cf._charged_blocks, inst, charges, points, N)
    if not isinstance(got, dict):
        assert got[0] is DegenerateParameter
        assert _outcome_and_message(reference_charged_block, inst,
                                    min(charges), points, N) == got
        return
    for k in charges:
        for U in range(1 << len(svals)):
            sub = [p for j, p in enumerate(points) if U >> j & 1]
            assert fock.row_series(to2(N), got[k][U]) \
                == reference_charged_block(inst, k, sub, N)


@pytest.mark.parametrize("points,N", FERMION_BLOCK_CASES)
def test_fermion_blocks_shift_once_per_block(monkeypatch, points, N):
    """Past the f_bo batch, a fermion-pair block is one signed sum of
    integer rows and one q-shift, the offset q^(k^2/2) of its row: no
    series is shifted, scaled or added, and no row term lies below it."""
    inst = cf.duality_instance("c", "l-1/2", 2)
    charges = [-1, 0, 2]
    ops = []
    for name in ("shift", "scale", "_plus"):
        def counted(self, *args, _name=name, _op=getattr(Series, name)):
            ops.append(_name)
            return _op(self, *args)
        monkeypatch.setattr(Series, name, counted)
    blocks = cf._charged_blocks(inst, charges, points, N)
    monkeypatch.undo()
    assert ops == []
    for k in charges:
        for _, pairs in blocks[k]:
            assert all(q2 >= k * k for q2, _ in pairs)


@pytest.mark.parametrize("level,n", [("1/2", 1), ("1/2", 2), ("1/2", 3),
                                     ("3/2", 1), ("3/2", 2), ("3/2", 3)])
def test_fermion_blocks_make_no_series_arithmetic(monkeypatch, level, n):
    """The c l - 1/2 blocks, from the f_bo batch to the rows the alternant
    reads, and level1_sector make no series product, inverse or addition:
    level1_sector builds its one series from f_bo's integer row."""
    inst = cf.module_instance("c", level)
    points = pts(F(2, 3), F(-3, 5), F(5, 7))[:n]
    charges = cf._row_charges(cf._row_shifts(inst, (1,) + (0,) * (inst.l - 1)))
    ops = []
    for name in ("__mul__", "invert", "_plus"):
        def counted(self, *args, _name=name, _op=getattr(Series, name)):
            ops.append(_name)
            return _op(self, *args)
        monkeypatch.setattr(Series, name, counted)
    blocks = cf._charged_blocks(inst, charges, points, 3)
    sector = cf.level1_sector(-1, points, 3)
    monkeypatch.undo()
    assert ops == [] and set(blocks) == charges
    tprod = math.prod(p.value_coeff for p in points)
    assert sector == cf.f_bo(points, 3).scale(1 / tprod).shift(F(1, 2))


@pytest.mark.parametrize("algebra,oracle_cap,fold_cap", [
    ("d", 8000, 0),   # 73,728 and 4,096 as one product per map
    ("c", 5000, 0),   # 36,864 and 7,680
])
def test_duality_sides_fold_the_point_maps(monkeypatch, algebra, oracle_cap,
                                           fold_cap):
    """At level -4, rank 4, three points and N = 6, the oracle's trie and
    the closed form's point-mask fold each make a bounded number of series
    products, far fewer than one per map from the points to the factors,
    and still agree."""
    count = [0]

    def counted(self, other, _mul=Series.__mul__):
        count[0] += 1
        return _mul(self, other)

    inst = cf.module_instance(algebra, -4)
    assert inst.l == 4 and inst.neutral_factor is None
    points = pts(*S_VALUES)
    monkeypatch.setattr(Series, "__mul__", counted)
    oracle = cf.extract_dominant(inst, (1, 0, 0, 0), points, 6)
    oracle_products, count[0] = count[0], 0
    closed = cf.duality_reduce(inst, (1, 0, 0, 0), points, 6)
    monkeypatch.undo()
    assert oracle_products <= oracle_cap
    assert count[0] <= fold_cap
    assert oracle == closed and not closed.is_zero()


BOSON_FAMILIES = [key for key in sorted(LEVEL_OF)
                  if cf.duality_instance(*key, 1).factors[0] == "boson_pair"]

SERIES_ARITHMETIC = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                     "__neg__", "scale", "shift")


def test_alternant_folds_integer_rows(monkeypatch):
    """duality_reduce (both readings, every family at rank 2 with two
    points, N = 4) and qdim_closed (every family) make no series product,
    sum or scale while ``_alternant`` runs, the fold builds one series per
    call, and a boson-pair fold never rescales a row to an lcm."""
    inside, ops, built, lcms = [False], [], [0], [0]
    calls = []
    real_alternant, real_reduced = cf._alternant, qs._reduced

    def alternant(inst, *args):
        calls.append(inst.factors[0])
        inside[0] = True
        try:
            return real_alternant(inst, *args)
        finally:
            inside[0] = False

    def reduced(*args):
        built[0] += inside[0]
        return real_reduced(*args)

    def lcm(*args, _lcm=cf.lcm):
        lcms[0] += inside[0] and calls[-1] == "boson_pair"
        return _lcm(*args)

    for name in SERIES_ARITHMETIC:
        def counted(self, *args, _name=name, _op=getattr(Series, name)):
            if inside[0]:
                ops.append(_name)
            return _op(self, *args)
        monkeypatch.setattr(Series, name, counted)
    monkeypatch.setattr(cf, "_alternant", alternant)
    monkeypatch.setattr(qs, "_reduced", reduced)
    monkeypatch.setattr(cf, "lcm", lcm)
    points = pts(F(2, 3), F(3, 5))
    for key, level in sorted(LEVEL_OF.items()):
        inst = cf.duality_instance(*key, 2)
        for mode in ("literal", "assignment"):
            assert not cf.duality_reduce(inst, (1, 0), points, 4,
                                         mode).is_zero()
        assert not cf.qdim_closed(key[0], level, (1, 0), 4).is_zero()
    monkeypatch.undo()
    assert len(calls) == 3 * len(LEVEL_OF)
    assert ops == []
    assert built[0] == len(calls)
    assert lcms[0] == 0


@pytest.mark.parametrize("key", BOSON_FAMILIES)
def test_duality_reduce_builds_one_fock_table(monkeypatch, key):
    """Every charge and point subset of a rank-2, two-point reduction is
    read from one table under the family's own operator at the two points,
    with no inverted point (and a neutral factor's blocks from one more),
    and the result is the per-block one."""
    calls, sizes = [], []
    build = fock._trace_table

    def counted(kind, op_tag, points, *args, **kwargs):
        calls.append((kind, op_tag))
        sizes.append(len(points))
        return build(kind, op_tag, points, *args, **kwargs)

    monkeypatch.setattr(fock, "_trace_table", counted)
    inst = cf.duality_instance(*key, 2)
    points = pts(F(2, 3), F(3, 5))
    got = cf.duality_reduce(inst, (1, 0), points, 3, mode="assignment")
    monkeypatch.undo()
    assert [c for c in calls if c[0] in fock.CHARGED] \
        == [("boson_pair", inst.op_tag)]
    assert sizes == [len(points)] * len(calls)
    neutral = inst.neutral_factor
    assert calls[1:] == ([] if neutral is None
                         else [(inst.factors[neutral], inst.op_tag)])
    assert got == reference_duality_reduce(inst, (1, 0), points, 3,
                                           "assignment")


@pytest.mark.parametrize("lam", [(0, 0), (1, 0)])
def test_fermion_reduction_builds_one_f_bo_per_signed_subset(monkeypatch, lam):
    """c at 3/2: one batch of f_bo lists, one for each of the 3^2
    eps-signed subsets of two points, shared by every charge."""
    calls = []
    build = cf._f_bo_all

    def counted(point_lists, N):
        calls.append([points_key(points) for points in point_lists])
        return build(point_lists, N)

    monkeypatch.setattr(cf, "_f_bo_all", counted)
    inst = cf.duality_instance("c", "l-1/2", 2)
    points = pts(F(2, 3), F(3, 5))
    got = cf.duality_reduce(inst, lam, points, 4)
    monkeypatch.undo()
    assert len(calls) == 1
    assert len(calls[0]) == len(set(calls[0])) == 9
    assert got == reference_duality_reduce(inst, lam, points, 4, "assignment")


@pytest.mark.parametrize("mode", ["assignment", "literal"])
@pytest.mark.parametrize("level,points", [
    ("1/2", pts(F(2, 3), F(-3, 5), F(5, 7))),
    ("3/2", pts(F(2, 3), F(3, 5))),
], ids=["c1/2-3pts", "c3/2-2pts"])
def test_fermion_reduction_builds_each_theta_jet_once(monkeypatch, level,
                                                      points, mode):
    """The f_bo lists of one reduction share their theta data: the
    triple-product sums are built once per distinct point, to one order,
    and no theta jet and no (q)_inf^(-3) is built, since that factor
    cancels."""
    sums, jets, cubes = [], [], []

    def counted_sums(t, k, N, _build=cf._theta_sums):
        sums.append((points_key([t]), k, N))
        return _build(t, k, N)

    def counted_jet(t, k, N, _build=qs.theta_jet):
        jets.append(points_key([t]))
        return _build(t, k, N)

    def counted_qinf(t2, m, _build=qs._qinf_inv):
        if m == 3:
            cubes.append(t2)
        return _build(t2, m)

    inst = cf.module_instance("c", level)
    lam = (1,) + (0,) * (inst.l - 1)
    monkeypatch.setattr(cf, "_theta_sums", counted_sums)
    monkeypatch.setattr(qs, "theta_jet", counted_jet)
    for module in (cf, qs):
        monkeypatch.setattr(module, "_qinf_inv", counted_qinf)
    got = cf.duality_reduce(inst, lam, points, 4, mode=mode)
    monkeypatch.undo()
    keys = [key for key, _, _ in sums]
    assert sums and len(keys) == len(set(keys))
    assert len({(k, N) for _, k, N in sums}) == 1
    assert jets == cubes == []
    assert got == reference_duality_reduce(inst, lam, points, 4, mode)


_VANISHING = (r"^theta vanishes at a partial product equal to 1 or "
              r"q\^\(\+-1\)$")


@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
def test_f_bo_refusals_keep_their_order(shared):
    """A jet that theta refuses is reported before a Theta that vanishes,
    with the same messages, for lone f_bo calls and for one batch whose
    earlier lists filled the shared theta data; a refused call leaves
    nothing that changes the next one."""
    fine = pts(F(2, 3), F(3, 5))
    illegal_first = [Param(F(2, 3), 2), Param(F(3, 2), -2)]  # q/t, then 1
    vanishing = pts(F(2, 3), F(3, 2))                        # P_2 = 1

    def f_bo(points):
        if shared:
            return batch_f_bo([fine, points, fine], 3)[1]
        return cf.f_bo(points, 3)

    for _ in range(2):
        with pytest.raises(IllegalPower,
                           match=r"^theta needs qval\(q/t\) >= 0$"):
            f_bo(illegal_first)
        with pytest.raises(DegenerateParameter, match=_VANISHING):
            f_bo(vanishing)
        assert f_bo(fine) == cf.f_bo(fine, 3)
    inst = cf.duality_instance("c", "l-1/2", 2)
    with pytest.raises(DegenerateParameter, match=_VANISHING):
        cf.duality_reduce(inst, (1, 0), vanishing, 3)


def test_rank_cap_is_refused_before_any_entry(monkeypatch):
    def no_entry(k, n2):
        raise AssertionError("entry computed")

    monkeypatch.setattr(cf, "_charged_qdim_sum", no_entry)
    with pytest.raises(CapExceeded, match="^Weyl rank 7 exceeds cap 6$"):
        cf.qdim_closed("d", "-7", (0,) * 7, 4)


@pytest.mark.parametrize("key", sorted(LEVEL_OF))
@pytest.mark.parametrize("n", [0, 1, 2])
def test_duality_truncation_coherence(key, n):
    inst = cf.duality_instance(*key, 2)
    points = pts(*S_VALUES[:n])
    builders = (lambda lam, N: cf.extract_dominant(inst, lam, points, N),
                lambda lam, N: cf.duality_reduce(inst, lam, points, N))
    for f in builders:
        for lam in ((0, 0), (1, 0)):
            full = f(lam, 4)
            assert full.truncation == 4
            for M in (0, F(3, 2), 3):
                assert full.truncate(M) == f(lam, M), (lam, M)


T2 = Param(F(2, 3))
_COHERENT = {
    "one_point_minus1": lambda N: cf.one_point_minus1(T2, N),
    "generalized_one_point": lambda N: cf.generalized_one_point(X, Y, T2, N),
    "generalized_one_point-z":
        lambda N: cf.generalized_one_point(XZ, YZ, T2, N),
    "generalized_two_point":
        lambda N: cf.generalized_two_point(X, Y, T2, Param(F(3, 5)), N),
    "c_one_point_half": lambda N: cf.c_one_point_half(T2, N),
    **{"c_sector_minus1-m%d" % m:
       (lambda N, m=m: cf.c_sector_minus1(m, pts(*S_VALUES[:2]), N))
       for m in (0, 1)},
    **{"d_sector_minus1-m%d" % m:
       (lambda N, m=m: cf.d_sector_minus1(m, pts(*S_VALUES[:2]), N))
       for m in (-1, 0)},
    **{"charged_qdim_base-k%d" % k:
       (lambda N, k=k: cf.charged_qdim_base(k, N)) for k in (-2, 0, 1)},
    **{"qdim_closed-%s%s" % key:
       (lambda N, key=key: cf.qdim_closed(key[0], LEVEL_OF[key], (1, 0), N))
       for key in sorted(LEVEL_OF)},
    "qdim_closed-cl-1/2-product":
        lambda N: cf.qdim_closed("c", "3/2", (1, 0), N, form="product"),
    **{"qdiff_residual-%s" % alg:
       (lambda N, alg=alg: cf.qdiff_residual(alg, pts(*S_VALUES[:2]), N))
       for alg in ("a", "c")},
}


@pytest.mark.parametrize("name", sorted(_COHERENT))
def test_closed_form_truncation_coherence(name):
    f = _COHERENT[name]
    full = f(6)
    assert full.truncation == 6
    for M in (0, F(1, 2), 2, F(7, 2)):
        assert full.truncate(M) == f(M), M


@pytest.mark.parametrize("k", [-1, 0, 2])
def test_level1_sector_truncation_coherence(k):
    # the factor q^(k^2/2) lifts the truncation to N + k^2/2 on purpose
    points = pts(*S_VALUES[:2])
    full = cf.level1_sector(k, points, 6)
    for M in (0, F(1, 2), 2, F(7, 2)):
        part = cf.level1_sector(k, points, M)
        assert part.truncation == M + F(k * k, 2)
        assert full.truncate(M) == part.truncate(M), M


class TestQDifferenceEquations:
    @pytest.mark.parametrize("alg", ["a", "c"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_zero(self, alg, n):
        points = pts(*S_VALUES[:n])
        assert cf.qdiff_residual(alg, points, 8).is_zero()


@pytest.mark.parametrize("algebra", "acd")
def test_module_instance_matches_the_rank_found_in_fractions(algebra):
    """Every level of a family at ranks 1-3, and levels no family
    realizes (7/3, 0, -1/3, a quarter, a positive type a level), give the
    instance or the refusal the rank found in Fractions gives, the level
    the sum of the factors' central charges."""
    found = set()
    for level in [F(k, 2) for k in range(-8, 9)] + [
            F(7, 3), F(-1, 3), F(3, 4), F(-5, 4), 5, "-7/2"]:
        got = _outcome_and_message(cf.module_instance, algebra, level)
        assert got == _outcome_and_message(reference_module_instance,
                                           algebra, level)
        if isinstance(got, cf.DualityInstance):
            assert type(got.level) is F
            found.add(got.factors)
    assert found >= {cf.duality_instance(alg, family, l).factors
                     for alg, family in cf._FAMILIES if alg == algebra
                     for l in (1, 2, 3)}
