"""Verification-suite plumbing: registry shape, check
execution semantics (pass/fail/error), filtering, determinism, exit-status
policy, and the JSON report schema."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qfock import verify
from qfock.qseries import (
    DegenerateParameter,
    NonTruncatable,
    Param,
    Series,
    _over_pochhammer,
    _q,
    pochhammer_n,
    power,
    to2,
)
from reference import HALVES, _outcome_and_message, any_point


def failing_spec():
    return verify.CheckSpec(
        "synthetic-fail", 4, "gate",
        lambda: (Series.one(4), Series.monomial(F(1, 3), 1, 4)))


def error_spec():
    def boom():
        raise DegenerateParameter("unit point")
    return verify.CheckSpec("synthetic-error", 4, "gate", boom)


class TestRegistry:
    def test_names_sorted_and_unique(self):
        names = [s.name for s in verify.registry()]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_modes_valid(self):
        assert {s.mode for s in verify.registry()} == {"gate", "report"}

    def test_literal_comparisons_are_reports(self):
        for s in verify.registry():
            if s.name.startswith("duality-literal-"):
                assert s.mode == "report"
            elif s.name.startswith("duality-assignment-"):
                assert s.mode == "gate"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            verify.CheckSpec("x", 4, "maybe", lambda: None)


class TestRunCheck:
    def test_pass(self):
        spec = verify.CheckSpec(
            "synthetic-pass", 4, "gate",
            lambda: (Series.one(4), Series.one(4)))
        res = verify.run_check(spec)
        assert res.status == "pass"
        assert res.first_discrepancy is None
        assert res.ms >= 0

    def test_fail_reports_first_discrepancy(self):
        res = verify.run_check(failing_spec())
        assert res.status == "fail"
        mono, lhs, rhs = res.first_discrepancy
        assert mono == "q^0"
        assert (lhs, rhs) == (F(1), F(0))

    def test_discrepancy_monomial_undoubles_z_exponents(self):
        spec = verify.CheckSpec(
            "synthetic-z", 4, "gate",
            lambda: (Series.monomial(1, F(1, 2), 4, {1: 1, 2: F(-3, 2)}),
                     Series.zero(4)))
        mono, lhs, rhs = verify.run_check(spec).first_discrepancy
        assert mono == "q^1/2 z1^1 z2^-3/2"
        assert (lhs, rhs) == (F(1), F(0))

    def test_error_carries_exception(self):
        res = verify.run_check(error_spec())
        assert res.status == "error"
        assert "DegenerateParameter" in res.detail

    def test_truncation_shortfall_fails(self):
        spec = verify.CheckSpec(
            "synthetic-short", 10, "gate",
            lambda: (Series.zero(4), Series.zero(10)))
        res = verify.run_check(spec)
        assert res.status == "fail"
        assert res.first_discrepancy is None
        assert res.detail.startswith("truncation shortfall")

    def test_zero_truncation_passes_on_equal_constants(self):
        spec = verify.CheckSpec(
            "synthetic-n0", 0, "gate",
            lambda: (Series.const(F(2), 0), Series.const(F(2), 0)))
        assert verify.run_check(spec).status == "pass"


@pytest.mark.parametrize("start", [0, 1, 2])
@pytest.mark.parametrize("r, rq2", [(F(2, 3), 0), (F(-3, 5), 0), (F(2, 3), 1),
                                    (F(-5, 7), 2), (F(3), 3)])
@pytest.mark.parametrize("N", [0, F(3, 2), 4])
def test_geometric_matches_explicit_sum(start, r, rq2, N):
    """sum_(k>=start) c^k q^(k rq2/2), c = sign(r) r^2, against the
    explicit sum: c^start/(1 - c) for a scalar ratio, the terms up to q^N
    otherwise; == checks the truncation."""
    n2 = to2(N)
    ratio = Param(abs(r), F(rq2, 2), sign=1 if r > 0 else -1)
    c = ratio.value_coeff
    if rq2 == 0:
        want = Series.const(c ** start / (1 - c), N)
    else:
        want = Series(n2, {(k * rq2, ()): c ** k
                           for k in range(start, n2 // rq2 + 1)})
    assert verify._geometric(ratio, start, N) == want


@pytest.mark.parametrize("ratio, exc", [
    (Param(1), ZeroDivisionError), (Param(-1, 0, sign=-1), None),
    (Param(F(2, 3), F(-1, 2)), ValueError)])
def test_geometric_refusals(ratio, exc):
    """A scalar ratio 1 and a ratio of negative q-valuation are refused; a
    scalar ratio -1 resums to the exact rational 1/2."""
    if exc is None:
        assert verify._geometric(ratio, 0, 3) == Series.const(F(1, 2), 3)
    else:
        with pytest.raises(exc):
            verify._geometric(ratio, 0, 3)


def test_ext_oracle_cache_keeps_point_sign():
    verify._ext_oracle("a", "-l", 1, (0,), [Param(F(2, 3))], 2)
    with pytest.raises(NonTruncatable):
        verify._ext_oracle("a", "-l", 1, (0,), [Param(F(2, 3), sign=-1)], 2)


def fraction_fixed_length_sum(l, N):
    """fixed_length_sum_enum as a Fraction loop: the reference."""
    n = int(to2(N)) // 2
    acc = {}
    for lam in verify._partitions_exact_length(l, n):
        w = sum(lam)
        acc[(2 * w, ())] = acc.get((2 * w, ()), F(0)) + 1
    return Series(to2(N), acc)


def fraction_marked_part_sum(l, i, t, N):
    """marked_part_sum_enum as a Fraction loop, one power of t per
    partition: the reference."""
    n = int(to2(N)) // 2
    acc = {}
    for lam in verify._partitions_exact_length(l, n):
        w = sum(lam)
        key = (2 * w, ())
        acc[key] = acc.get(key, F(0)) + t.scalar_pow(lam[i - 1])
    return Series(to2(N), acc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), HALVES)
def test_fixed_length_sum_matches_fraction_loop(l, N):
    assert verify.fixed_length_sum_enum(l, N) \
        == fraction_fixed_length_sum(l, N)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 7), any_point(), HALVES)
def test_marked_part_sum_matches_fraction_loop(l, i, t, N):
    """Equal sums, or the same exception and message: t is refused only
    when a partition is met, and an i outside 1..l reads lam[i - 1] as
    the loop does."""
    assert _outcome_and_message(verify.marked_part_sum_enum, l, i, t, N) \
        == _outcome_and_message(fraction_marked_part_sum, l, i, t, N)


def test_partition_sums_build_no_fraction_per_partition(monkeypatch):
    """The enumeration sides of eq-555 and lemma-222 sum integers read from
    per-part tables: the Fractions they build (reading the points) number
    the same at N = 6, 10 and 14, however many partitions they walk."""
    x, t = Param(F(2, 5)), Param(F(2, 3))
    built = []
    fraction_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    counts = []
    for N in (6, 10, 14):
        monkeypatch.setattr(F, "__new__", counting_new)
        verify.partition_ladder_sum(x, t, N)
        verify.fixed_length_sum_enum(3, N)
        verify.marked_part_sum_enum(3, 2, t, N)
        monkeypatch.undo()
        counts.append(len(built))
        built.clear()
    assert counts[0] == counts[1] == counts[2] <= 8


def per_term_exp_left_sum(z, N):
    """exp_left_sum with each term built from scratch: the reference."""
    out = Series.zero(N)
    m = 0
    while m * (m - 1) + m * z.qval2() <= to2(N):
        num = power(z, m, N).shift(m * (m - 1) // 2)
        out = out + _over_pochhammer(num, _q(), m).scale((-1) ** m)
        m += 1
    return out


def per_term_exp_right_sum(a, z, N):
    """exp_right_sum with (a)_l and 1/(q)_l built for every l: the
    reference."""
    out = Series.zero(N)
    l = 0
    while l * z.qval2() <= to2(N):
        num = power(z, l, N) * pochhammer_n(a, l, N)
        out = out + _over_pochhammer(num, _q(), l)
        l += 1
    return out


EXP_Z = [Param(1, 1), Param(F(2, 3), 1), Param(1, 1, e=1)]


@pytest.mark.parametrize("z", EXP_Z)
def test_exp_sums_match_per_term_sums(z):
    """The q-exponential sums, carried term by term, equal the sums of
    terms built from scratch."""
    for N in (F(k, 2) for k in range(25)):
        assert verify.exp_left_sum(z, N) == per_term_exp_left_sum(z, N)
        for a in (Param(F(2, 3)), Param(F(3, 5)), Param(F(-1, 2)),
                  Param(F(1, 2), sign=-1)):
            assert verify.exp_right_sum(a, z, N) \
                == per_term_exp_right_sum(a, z, N)


def test_z_free_sums_make_one_series_and_no_product(monkeypatch):
    """A z-free qhyper, Prop. 1.1.1 sum or q-exponential sum is one
    _chain_sum that builds one Series, with one gcd, and nothing in it
    makes a Series product; a plain product is recorded."""
    from qfock import qseries
    reduced, per_sum, muls = [0], [], []

    def counting_reduced(*args, _reduced=qseries._reduced):
        reduced[0] += 1
        return _reduced(*args)

    def recording_sum(*args, _chain_sum=qseries._chain_sum):
        before = reduced[0]
        out = _chain_sum(*args)
        per_sum.append(reduced[0] - before)
        return out

    def recording_mul(self, other, _mul=Series.__mul__):
        muls.append(other)
        return _mul(self, other)

    t, z = Param(F(2, 3)), Param(F(2, 3), 1)
    runs = [lambda: qseries.qhyper([Param(0), Param(0)], [_q()], _q(), 20),
            lambda: verify.sum_over_m_lhs(3, t, 20),
            lambda: verify.exp_left_sum(z, 20),
            lambda: verify.exp_right_sum(t, _q(), 20)]
    want = [run() for run in runs]
    monkeypatch.setattr(qseries, "_reduced", counting_reduced)
    for module in (qseries, verify):
        monkeypatch.setattr(module, "_chain_sum", recording_sum)
    monkeypatch.setattr(Series, "__mul__", recording_mul)
    assert [run() for run in runs] == want
    assert (per_sum, muls) == ([1] * 4, [])
    Series.one(10) * Series.one(10)
    assert len(muls) == 1


class TestRunSuite:
    def test_filter_selects_by_glob(self):
        res = verify.run_suite("lemma-222-i-*")
        assert [r.name for r in res] == [
            "lemma-222-i-l%d" % l for l in range(1, 6)]
        assert all(r.status == "pass" for r in res)

    def test_deterministic_rerun(self):
        a = verify.run_suite("exponential-*")
        b = verify.run_suite("exponential-*")
        assert [(r.name, r.status, r.first_discrepancy) for r in a] \
            == [(r.name, r.status, r.first_discrepancy) for r in b]

    def test_passes_at_lower_order_too(self):
        t = Param(F(2, 3))
        full = (verify.sum_over_m_lhs(1, t, 20), verify.sum_over_m_rhs(1, t, 20))
        low = (verify.sum_over_m_lhs(1, t, 7), verify.sum_over_m_rhs(1, t, 7))
        from qfock.qseries import first_difference
        assert first_difference(*full) is None
        assert first_difference(*low) is None


class TestExitStatusPolicy:
    def test_gate_failure_sets_status(self):
        res = [verify.run_check(failing_spec())]
        assert verify.suite_exit_status(res) == 1

    def test_report_failure_never_gates(self):
        spec = failing_spec()
        spec = verify.CheckSpec(spec.name, spec.N, "report", spec.pair)
        assert verify.suite_exit_status([verify.run_check(spec)]) == 0

    def test_error_gates(self):
        assert verify.suite_exit_status([verify.run_check(error_spec())]) == 1


class TestReports:
    def test_json_schema(self):
        results = [verify.run_check(failing_spec())]
        doc = json.loads(verify.report_json(results))
        (chk,) = doc["checks"]
        assert set(chk) == {"name", "status", "first_discrepancy", "ms",
                            "mode", "detail"}
        assert chk["first_discrepancy"] == {
            "monomial": "q^0", "lhs": "1", "rhs": "0"}
        assert (chk["mode"], chk["detail"]) == ("gate", "")

    def test_json_error_detail(self):
        doc = json.loads(verify.report_json([verify.run_check(error_spec())]))
        (chk,) = doc["checks"]
        assert (chk["status"], chk["mode"]) == ("error", "gate")
        assert chk["detail"] == "DegenerateParameter: unit point"

    def test_json_null_discrepancy_on_pass(self):
        res = verify.run_suite("theta-triple-product")
        doc = json.loads(verify.report_json(res))
        assert doc["checks"][0]["status"] == "pass"
        assert doc["checks"][0]["first_discrepancy"] is None

    def test_table_mentions_every_check(self):
        res = verify.run_suite("zzz-*")
        table = verify.report_table(res)
        for r in res:
            assert r.name in table


def test_full_report_matches_golden():
    """Every field of the full suite's JSON report except the timing ms:
    132 gate passes, 12 report passes and 24 expected report failures.
    The golden file is the one pin on the registry's check names, so a
    changed registry is reported by name first."""
    golden = json.loads(
        (Path(__file__).parent / "golden_verify_report.json").read_text())
    doc = json.loads(verify.report_json(verify.run_suite()))
    for chk in doc["checks"]:
        del chk["ms"]
    names = [c["name"] for c in doc["checks"]]
    want = [c["name"] for c in golden["checks"]]
    assert names == want, "registry changed; added: %s; missing: %s" % (
        sorted(set(names) - set(want)), sorted(set(want) - set(names)))
    assert doc == golden
