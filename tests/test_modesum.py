"""Per-mode resummation oracle: agreement with direct state enumeration at
scalar points, and behaviour at q-shifted points."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qfock.qseries import Param, NonTruncatable
from qfock import fock, modesum


X = Param(F(2, 5), 0, -1, zvar=1)
Y = Param(F(3, 7), 0, 1, zvar=1)
S_VALUES = (F(2, 3), F(3, 5), F(5, 7))


def pts(*svals):
    return [Param(s) for s in svals]


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
