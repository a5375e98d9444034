"""Acceptance criteria.

Each test below is one acceptance criterion, checked exactly (zero
tolerance) up to the stated q-order; ``pytest -v`` prints one pass/fail
line per criterion.
"""

import json
import time
from fractions import Fraction as F

from qfock import closedform as cf
from qfock import combinat, fock, verify
from qfock.qseries import (
    Param,
    Series,
    beta_scalar,
    first_difference,
    pochhammer_inf,
    series_from_json,
    series_to_json,
    series_equal,
    theta_jet,
)
from reference import pts, qcoeff


S_VALUES = (F(2, 3), F(3, 5), F(5, 7))
X = Param(F(2, 5))
Y = Param(F(3, 7))


def assert_same(a, b, what=""):
    diff = first_difference(a, b)
    assert diff is None, "%s differs at %s: %s vs %s" % (
        what, diff[0], diff[2], diff[3]) if diff else ""


def test_criterion_01_free_field_identity_to_q20():
    t0 = time.monotonic()
    for s, d in ((F(2, 3), F(1, 2)), (F(3, 5), F(1))):
        u = Param(s, d)
        assert_same(verify.ff_product_side(u, 20),
                    verify.ff_sum_side(u, 20), "u=%s q^%s" % (s, d))
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_single_sum_identity_to_q20():
    for k in (0, 1, 3):
        for s in (F(2, 3), F(5, 7)):
            t = Param(s)
            assert_same(verify.sum_over_m_lhs(k, t, 20),
                        verify.sum_over_m_rhs(k, t, 20),
                        "k=%d t=%s" % (k, s))


def test_criterion_03_exponential_identities_to_q20():
    for s in (F(1), F(2, 3)):
        z = Param(s, 1)
        assert_same(verify.exp_left_sum(z, 20), pochhammer_inf(z, 20),
                    "left s=%s" % s)
    a, z = Param(F(2, 3)), Param(F(1), 1)
    rhs = pochhammer_inf(a * z, 20) * pochhammer_inf(z, 20).invert()
    assert_same(verify.exp_right_sum(a, z, 20), rhs, "right")


def test_criterion_04_partition_length_sums_to_q15():
    for l in range(1, 6):
        assert_same(verify.fixed_length_sum_enum(l, 15),
                    verify.fixed_length_sum_closed(l, 15), "part (i) l=%d" % l)
    t = Param(F(2, 3))
    for l in range(1, 6):
        for i in range(1, l + 1):
            assert_same(verify.marked_part_sum_enum(l, i, t, 15),
                        verify.marked_part_sum_closed(l, i, t, 15),
                        "part (ii) l=%d i=%d" % (l, i))


def test_criterion_05_one_point_function_to_q12():
    for s in S_VALUES:
        t = Param(s)
        assert_same(cf.one_point_minus1(t, 12),
                    fock.a_sector_trace(0, [t], 12), "s=%s" % s)
    closed = cf.one_point_minus1(Param(F(2, 3)), 2)
    b = beta_scalar(Param(F(2, 3)))
    assert qcoeff(closed, 0) == b
    assert qcoeff(closed, 1) == b - 1 / b


def test_criterion_06_generalized_one_and_two_point():
    for s in (F(2, 3), F(3, 5)):
        t = Param(s)
        assert_same(cf.generalized_one_point(X, Y, t, 10),
                    fock.a_generalized_trace(X, Y, [t], 10),
                    "1-point t=%s" % s)
        assert_same(verify.partition_ladder_sum(X, t, 10),
                    cf.partition_ladder_closed(X, t, 10),
                    "ladder t=%s" % s)
    t1, t2 = Param(F(2, 3)), Param(F(3, 5))
    assert_same(cf.generalized_two_point(X, Y, t1, t2, 8),
                fock.a_generalized_trace(X, Y, [t1, t2], 8), "2-point")


def test_criterion_07_fermionic_level_one_sectors():
    zvar = Param(F(1), 0, 1, zvar=1)
    for k in (-1, 0, 2):
        for n in (1, 2):
            points = pts(*S_VALUES[:n])
            assert_same(
                cf.level1_sector(k, points, 8),
                fock.f1_charged_trace(zvar, points, 8).coeff_z(1, k),
                "k=%d n=%d" % (k, n))
    lhs = theta_jet(Param(F(1)), 1, 20)[1] \
        * pochhammer_inf(Param(F(1), 1), 20) ** 3
    assert_same(lhs, verify.odd_triple_product(20), "triple product")


def test_criterion_08_neutral_boson_one_point_to_q10():
    for s in S_VALUES:
        t = Param(s)
        assert_same(cf.c_one_point_half(t, 10),
                    fock.neutral_trace("boson_neutral", "C", [t], 10),
                    "s=%s" % s)


def test_criterion_09_q_difference_equations_to_q10():
    for alg in ("a", "c"):
        for n in (1, 2, 3):
            residual = cf.qdiff_residual(alg, pts(*S_VALUES[:n]), 10)
            assert residual.is_zero(), \
                "%s n=%d residual %r" % (alg, n, residual)


def test_criterion_10_graded_dimensions():
    # rank-one charged series vs state counts, to q^20
    for k in (0, 1, 2):
        assert_same(cf.charged_qdim_base(k, 20),
                    fock.a_sector_trace(k, [], 20), "base k=%d" % k)
    g = cf.charged_qdim_base(0, 20)
    assert [qcoeff(g, i) for i in range(4)] == [1, 1, 3, 6]
    # type a, ranks 2 and 3, negative entries allowed, vs extraction
    for l, labels in ((2, [(0, 0), (1, 0), (1, -1)]),
                      (3, [(2, 1, 0), (1, 0, -1)])):
        inst = cf.duality_instance("a", "-l", l)
        for lam in labels:
            assert_same(cf.qdim_closed("a", str(-l), lam, 10),
                        cf.extract_dominant(inst, lam, [], 10),
                        "a rank %d %s" % (l, lam))
    # positive half-integer c level: the two printed forms agree to q^20
    for lam in ((0, 0), (1, 0), (2, 1)):
        assert series_equal(
            cf.qdim_closed("c", "3/2", lam, 20, form="weyl"),
            cf.qdim_closed("c", "3/2", lam, 20, form="product")), \
            "c 3/2 forms %s" % (lam,)
    # remaining c and d families vs oracle extraction, to q^10
    rank1 = (("c", "-l", "-1"), ("d", "-l", "-1"))
    for alg, fam, lev in rank1:
        inst = cf.duality_instance(alg, fam, 1)
        for k in (0, 1, 2):
            assert_same(cf.qdim_closed(alg, lev, (k,), 10),
                        cf.extract_dominant(inst, (k,), [], 10),
                        "%s %s k=%d" % (alg, lev, k))
    rank2 = (("c", "-l", "-2"), ("c", "-l-1/2", "-5/2"),
             ("d", "-l", "-2"), ("d", "-l+1/2", "-3/2"))
    for alg, fam, lev in rank2:
        inst = cf.duality_instance(alg, fam, 2)
        for lam in ((0, 0), (1, 0), (2, 1)):
            assert_same(cf.qdim_closed(alg, lev, lam, 10),
                        cf.extract_dominant(inst, lam, [], 10),
                        "%s %s %s" % (alg, lev, lam))


def test_criterion_11_duality_reduction_engine():
    # assignment mode gates: all six instances, l=2, n in {0,1,2}, 2 weights
    assignment = verify.run_suite("duality-assignment-*")
    assert len(assignment) == 36
    bad = [r.name for r in assignment if r.status != "pass"]
    assert not bad, "assignment-mode failures: %s" % bad
    # literal comparison report for the same grid (informational)
    literal = verify.run_suite("duality-literal-*")
    assert len(literal) == 36
    report = json.loads(verify.report_json(literal))
    assert len(report["checks"]) == 36
    for r in literal:  # n=0: literal coincides with assignment
        if "-n0-" in r.name:
            assert r.status == "pass", r.name
    # the hand-derived constant-term discrepancy
    t = Param(F(2, 3))
    inst = cf.duality_instance("a", "-l", 2)
    b = beta_scalar(t)
    asg = cf.duality_reduce(inst, (0, 0), [t], 2, "assignment")
    lit = cf.duality_reduce(inst, (0, 0), [t], 2, "literal")
    assert qcoeff(asg, 0) == 2 * b
    assert qcoeff(lit, 0) == b * b
    assert qcoeff(cf.extract_dominant(inst, (0, 0), [t], 2), 0) == 2 * b


def test_criterion_12_infrastructure_properties():
    # truncation coherence: results at order N agree with order M < N
    hi = cf.one_point_minus1(Param(F(2, 3)), 10)
    lo = cf.one_point_minus1(Param(F(2, 3)), 6)
    assert series_equal(hi.truncate(6), lo)
    # invert round-trip
    s = fock.a_sector_trace(0, pts(F(2, 3)), 8)
    assert series_equal(s.invert().invert(), s)
    assert series_equal(s * s.invert(), Series.one(8))
    # Weyl group cardinalities 2^l l! and 2^(l-1) l!
    for l in (1, 2, 3):
        assert len(list(combinat.weyl_group("BC", l))) \
            == 2 ** l * __import__("math").factorial(l)
        assert len(list(combinat.weyl_group("D", l))) \
            == 2 ** (l - 1) * __import__("math").factorial(l)
    # determinism: identical reruns give identical structured results
    a = verify.run_suite("sector-*")
    b = verify.run_suite("sector-*")
    assert [(r.name, r.status, r.first_discrepancy) for r in a] \
        == [(r.name, r.status, r.first_discrepancy) for r in b]
    assert all(r.status == "pass" for r in a)
    # JSON round-trip
    zser = fock.f1_charged_trace(Param(F(1), 0, 1, zvar=1), pts(F(2, 3)), 6)
    assert series_equal(series_from_json(series_to_json(zser)), zser)
