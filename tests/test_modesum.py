"""Per-mode resummation oracle: agreement with direct state enumeration at
scalar points, and behaviour at q-shifted points."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from qfock.qseries import (NonTruncatable, Param, Series, _QH,
                           _over_pochhammer, c_term, power, to2)
from qfock import closedform, fock, modesum
from reference import _outcome_and_message, pts, set_partitions


X = Param(F(2, 5), 0, -1, zvar=1)
Y = Param(F(3, 7), 0, 1, zvar=1)
S_VALUES = (F(2, 3), F(3, 5), F(5, 7))


class TestScalarAgreementCharged:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_enumeration(self, n):
        points = pts(*S_VALUES[:n])
        ms = modesum.a_generalized_trace(X, Y, points, 6)
        orc = fock.a_generalized_trace(X, Y, points, 6)
        assert (ms - orc).terms == {}

    def test_empty_trace_is_partition_function(self):
        ms = modesum.a_generalized_trace(X, Y, [], 8)
        orc = fock.a_generalized_trace(X, Y, [], 8)
        assert (ms - orc).terms == {}

    def test_repeated_point(self):
        points = pts(F(2, 3), F(2, 3))
        ms = modesum.a_generalized_trace(X, Y, points, 5)
        orc = fock.a_generalized_trace(X, Y, points, 5)
        assert (ms - orc).terms == {}


class TestScalarAgreementNeutral:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_enumeration(self, n):
        points = pts(*S_VALUES[:n])
        ms = modesum.neutral_c_trace(points, 6)
        orc = fock.neutral_trace("boson_neutral", "C", points, 6)
        assert (ms - orc).terms == {}


class TestShiftedPoints:
    """q-shifted points are the whole reason this module exists: the direct
    state sum diverges coefficient-by-coefficient there, while the per-mode
    geometric resummation stays exact."""

    def test_shifted_point_accepted(self):
        p = Param(F(2, 3)).qshift(1)
        out = modesum.a_generalized_trace(X, Y, [p], 5)
        assert out.terms  # nonempty, exact

    def test_enumeration_rejects_shifted(self):
        p = Param(F(2, 3)).qshift(1)
        with pytest.raises(Exception):
            fock.a_generalized_trace(X, Y, [p], 5)

    def test_charge_sector_extraction(self):
        # [z^1] of the z-graded trace at a shifted point reproduces the
        # sector-0 scalar trace at the unshifted point (the trace identity
        # behind the a-infinity q-difference equation, n = 1).
        x = Param(F(1), 0, -1, zvar=1)
        y = Param(F(1), 0, 1, zvar=1)
        t = Param(F(2, 3))
        ms = modesum.a_generalized_trace(x, y, [t.qshift(1)], 6)
        orc = fock.a_sector_trace(0, [t], 6)
        assert (ms.coeff_z(1, 1) - orc).terms == {}

    def test_neutral_shifted_equals_plain(self):
        # c-infinity q-difference equation at n = 1: the shifted trace equals
        # the unshifted one.
        t = Param(F(2, 3))
        ms = modesum.neutral_c_trace([t.qshift(1)], 6)
        orc = fock.neutral_trace("boson_neutral", "C", [t], 6)
        assert (ms - orc).terms == {}

    def test_two_shifts_rejected(self):
        p1 = Param(F(2, 3)).qshift(1)
        p2 = Param(F(3, 5)).qshift(1)
        with pytest.raises(NonTruncatable):
            modesum.a_generalized_trace(X, Y, [p1, p2], 5)


class TestPointInverse:
    def test_scalar_roundtrip(self):
        p = Param(F(2, 3))
        q = modesum.point_inverse(p)
        c, q2, zk = q.pow_monomial(1)
        assert c == F(9, 4) and q2 == 0

    def test_shifted_inverse_carries_negative_shift(self):
        p = Param(F(2, 3)).qshift(1)
        q = modesum.point_inverse(p)
        c, q2, zk = q.pow_monomial(1)
        assert q2 == -2


s_st = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)) \
    .filter(lambda s: abs(s) != 1)
ratio_st = st.one_of(st.just(Param(0)), s_st.map(Param),
                     st.tuples(s_st, st.sampled_from((-1, F(1, 2), 1))).map(
                         lambda se: Param(se[0], 0, se[1], zvar=1)))


@settings(max_examples=25, deadline=None)
@given(st.lists(s_st.map(Param), max_size=3), ratio_st, ratio_st,
       st.integers(0, 8))
def test_matches_enumeration_at_random_points(pts, x, y, n2):
    """The cumulant sum against the state-enumeration oracle of qfock.fock
    at random rational points and ratios (zero, scalar or z-carrying)."""
    N = F(n2, 2)
    assert modesum.a_generalized_trace(x, y, pts, N) == \
        fock.a_generalized_trace(x, y, pts, N)
    assert modesum.neutral_c_trace(pts, N) == \
        fock.neutral_trace("boson_neutral", "C", pts, N)


@settings(max_examples=25, deadline=None)
@given(s_st, st.integers(0, 8))
def test_shifted_point_identities_at_random_s(s, n2):
    """The n = 1 q-difference identities of the shifted-points tests above,
    at a random point: charge slice z^1 of the z-graded trace at q*t is the
    charge-0 trace at t, and the neutral trace is unchanged by the shift."""
    N = F(n2, 2)
    t = Param(s)
    x = Param(F(1), 0, -1, zvar=1)
    y = Param(F(1), 0, 1, zvar=1)
    assert modesum.a_generalized_trace(x, y, [t.qshift(1)], N).coeff_z(1, 1) \
        == fock.a_sector_trace(0, [t], N)
    assert modesum.neutral_c_trace([t.qshift(1)], N) == \
        fock.neutral_trace("boson_neutral", "C", [t], N)


@settings(max_examples=30, deadline=None)
@given(st.lists(s_st, min_size=1, max_size=3), st.integers(0, 20))
@example([F(2, 3), F(2, 3)], 12)           # a repeated point
@example([F(3, 5), F(5, 7)], 0)            # N = 0
@example([F(3, 5), F(5, 7), F(2, 3)], 1)   # N = 1/2
@example([F(-2, 3), F(5, 7)], 9)           # a negative s
@example([F(2, 3), F(3, 2)], 6)            # t_1 t_2 = 1: the mode sum diverges
def test_qdiff_lhs_is_the_z1_slice_of_the_full_trace(ss, n2):
    """The left side of the charged q-difference equation, read as one
    slice of a product, is the z^1 slice of the full z-graded trace at the
    shifted first point, truncation included; a diverging mode sum raises
    the same exception and message through both routes."""
    N = F(n2, 2)
    x = Param(F(1), 0, -1, zvar=1)
    y = Param(F(1), 0, 1, zvar=1)
    shifted = [Param(ss[0]).qshift(1)] + [Param(s) for s in ss[1:]]
    got = _outcome_and_message(closedform._a_trace_z1, x, y, shifted, N)
    want = _outcome_and_message(
        lambda: modesum.a_generalized_trace(x, y, shifted, N).coeff_z(1, 1))
    assert got == want
    if isinstance(want, Series):
        assert got.trunc2 == want.trunc2 == to2(N)


# -- the per-mode Series loops the integer mode sums replaced ---------------


def reference_geo(w, N):
    """sum_{r in 1/2+Z_+} w^r = w^(1/2)/(1-w) as a series, for w of
    q-valuation >= 0, refusing ratios whose mode sum has no truncation."""
    if w.qval2() == 0:
        if w.e2:
            raise NonTruncatable("mode sum over a pure charge monomial")
        if w.value_coeff == 1:
            raise NonTruncatable("mode sum has a pole at ratio 1")
    return c_term(w, N)


def reference_mode_cumulant(t, u, m, N):
    """sum_{j>=1} j^(m-1) u^j geo(t q^j), one geo series and one product by
    the monomial u^j per mode j."""
    out = Series.zero(N)
    if u.is_zero:
        return out
    uv2 = u.qval2()
    if uv2 < 0:
        raise NonTruncatable("mode sum with a negatively q-valued occupancy ratio")
    t2 = to2(N)
    j = 1
    while True:
        w = t * Param(1, j)
        v2 = w.qval2()
        if v2 < 0:
            raise NonTruncatable("shifted point makes the mode sum diverge")
        if v2 // 2 + j * uv2 > t2:
            return out
        out = out + reference_geo(w, N) * power(u, j, N).scale(j ** (m - 1))
        j += 1


def reference_cumulant_sum(base, points, N, connected):
    """base * the set-partition sum of products of cumulants, base the
    partition function built as a series first."""
    betas = [c_term(t, N) for t in points]
    total = Series.zero(N)
    for part in set_partitions(range(len(points))):
        term = Series.one(N)
        for G in part:
            k = connected(G)
            term = term * (k + betas[G[0]] if len(G) == 1 else k)
        total = total + term
    return base * total


def reference_a_trace(x, y, points, N):
    base = Series.one(N)
    for p in (x, y):
        base = _over_pochhammer(base, p * _QH)

    def connected(G):
        tG = Param(1)
        for k in G:
            tG = tG * points[k]
        down = reference_mode_cumulant(modesum.point_inverse(tG), y, len(G), N)
        return reference_mode_cumulant(tG, x, len(G), N) \
            + down.scale((-1) ** len(G))

    return reference_cumulant_sum(base, points, N, connected)


def reference_neutral_trace(points, N):
    def connected(G):
        out = Series.zero(N)
        for eps in product((1, -1), repeat=len(G)):
            t, sign = Param(1), 1
            for k, e in zip(G, eps):
                t = t * (points[k] if e == 1
                         else modesum.point_inverse(points[k]))
                sign *= e
            out = out + reference_mode_cumulant(t, Param(1), len(G),
                                                N).scale(sign)
        return out

    return reference_cumulant_sum(_over_pochhammer(Series.one(N), _QH),
                                  points, N, connected)


def _point(s, d, e, sign, inverse):
    p = Param(s, d, e, zvar=1, sign=sign)
    return modesum.point_inverse(p) if inverse else p


nonzero_st = st.fractions(-3, 3, max_denominator=9).filter(bool)
# scalar, charged (z^+-1) and q-shifted points, the inverses of shifted
# points, and the refused kinds: negative and half-shifted points
cumulant_point_st = st.builds(
    _point, nonzero_st, st.sampled_from([-1, F(-1, 2), 0, F(1, 2), 1]),
    st.sampled_from([0, 1, -1]), st.sampled_from([1, 1, 1, -1]),
    st.booleans())
occupancy_st = st.one_of(
    st.sampled_from([Param(1), Param(1, 0, 1, zvar=1),
                     Param(1, 0, -1, zvar=1)]),
    nonzero_st.map(lambda c: Param(c, F(1, 2))))


@settings(max_examples=200, deadline=None)
@given(cumulant_point_st, occupancy_st, st.integers(1, 4),
       st.integers(0, 24))
@example(Param(1, -1), Param(1), 2, 8)                  # pole at ratio 1
@example(Param(F(2, 3), -1, 1, zvar=1), Param(1), 1, 8)  # pure charge
@example(Param(F(2, 3), -2), Param(1), 1, 8)           # diverging shift
@example(Param(F(2, 3), F(1, 2)), Param(1), 1, 8)      # half-shifted
@example(Param(F(2, 3), 1, sign=-1), Param(1), 1, 8)   # negative point
@example(Param(F(2, 3)), Param(1, F(-1, 2)), 1, 8)     # negative ratio
@example(Param(F(2, 3), -1), Param(F(3, 5), F(1, 2)), 3, 12)  # scalar step
def test_mode_cumulant_matches_per_mode_products(t, u, m, n2):
    """The integer mode sum equals the per-mode loop, truncation included,
    or both raise with the same exception and message."""
    N = F(n2, 2)
    assert _outcome_and_message(modesum._mode_cumulant, t, u, m, N) \
        == _outcome_and_message(reference_mode_cumulant, t, u, m, N)


@settings(max_examples=30, deadline=None)
@given(st.lists(s_st.map(Param), max_size=3), s_st,
       st.sampled_from([(Param(1, 0, -1, zvar=1), Param(1, 0, 1, zvar=1)),
                        (X, Y)]), st.integers(0, 12))
def test_quotient_by_pochhammers_matches_base_product(pts, s, xy, n2):
    """Dividing the set-partition sum by the Pochhammer symbols equals the
    product by the prebuilt partition function, truncation included, at
    0-3 points with a q-shifted first point; a first point that cancels a
    later one (t_1 t_k^-1 = q) is refused by both."""
    N = F(n2, 2)
    pts = [Param(s, 1)] + pts[1:] if pts else []
    x, y = xy
    assert _outcome_and_message(modesum.a_generalized_trace, x, y, pts, N) \
        == _outcome_and_message(reference_a_trace, x, y, pts, N)
    assert _outcome_and_message(modesum.neutral_c_trace, pts, N) \
        == _outcome_and_message(reference_neutral_trace, pts, N)


def test_set_partitions_count_the_bell_numbers():
    """The reference enumerates each partition of 0-4 items once: 1, 1, 2,
    5 and 15 of them, each a cover of the items by disjoint blocks."""
    for n, bell in enumerate([1, 1, 2, 5, 15]):
        parts = list(set_partitions(range(n)))
        assert len({frozenset(part) for part in parts}) == len(parts) == bell
        for part in parts:
            assert sorted(k for block in part for k in block) == list(range(n))


def test_trace_multiplies_only_partition_blocks(monkeypatch):
    """The only Series products of a_generalized_trace are those of the
    subset recursion over point masks, one per block G with V - G nonempty:
    1 at 2 points, as many at N = 6 as at N = 12.  No product is made per
    mode, per partition or for the partition function."""
    calls = []

    def counting_mul(self, other, _mul=Series.__mul__):
        calls.append(1)
        return _mul(self, other)

    monkeypatch.setattr(Series, "__mul__", counting_mul)
    monkeypatch.setattr(Series, "__rmul__", counting_mul)
    x, y = Param(1, 0, -1, zvar=1), Param(1, 0, 1, zvar=1)
    pts = [Param(F(2, 3), 1), Param(F(3, 5))]
    counts = []
    for N in (6, 12):
        calls.clear()
        modesum.a_generalized_trace(x, y, pts, N)
        counts.append(len(calls))
    assert counts == [1, 1]
