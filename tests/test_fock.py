"""Fock-space trace oracles: known low-order values and cross-checks."""

import functools
import io
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qfock import cli, closedform as cf, fock, qseries
from qfock.fock import (
    CHARGED,
    LEGAL_OPS,
    a_generalized_trace,
    a_sector_rows,
    a_sector_trace,
    duality_trace,
    duality_trace_direct,
    eigenvalue,
    f1_charged_trace,
    neutral_trace,
)
from qfock.qseries import (
    DegenerateParameter,
    NonTruncatable,
    Param,
    QSeriesError,
    Series,
    beta_scalar,
    pochhammer_inf,
    series_equal,
)
from reference import (
    _outcome_and_message,
    _zvars,
    charge_slice,
    charge_vectors,
    point_st,
    product_duality_trace,
    qcoeff,
    reference_a_generalized_trace,
    reference_a_sector_traces,
    reference_f1_charged_trace,
    reference_neutral_traces,
    reference_trace_table,
    sliced_duality_trace,
)

F = Fraction


@pytest.fixture
def builds(monkeypatch):
    """An empty table memo, and the (key, table) list of the knapsack's
    builds from here on; ``fock._knapsack.__wrapped__`` is the body."""
    monkeypatch.setattr(fock, "_TABLES", {})
    built = []

    @functools.wraps(fock._knapsack)
    def recorded(*key):
        built.append((key, recorded.__wrapped__(*key)))
        return built[-1][1]

    monkeypatch.setattr(fock, "_knapsack", recorded)
    return built

T = Param(F(2, 3))
T2 = Param(F(3, 5))
X = Param(F(2, 5))
Y = Param(F(3, 7))


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
    assert [qcoeff(s, k) for k in range(4)] == [1, 1, 3, 6]


def test_sector_trace_low_orders():
    b = beta_scalar(T)
    s = a_sector_trace(0, [T], 6)
    assert qcoeff(s, 0) == b
    assert qcoeff(s, 1) == b - 1 / b


def test_generalized_trace_n0():
    # 1/((x q^(1/2))_inf (y q^(1/2))_inf)
    N = 10
    got = a_generalized_trace(X, Y, [], N)
    expect = (pochhammer_inf(X * Param(1, F(1, 2)), N) *
              pochhammer_inf(Y * Param(1, F(1, 2)), N)).invert()
    assert series_equal(got, expect)
    assert qcoeff(a_generalized_trace(Param(0), Param(0), [], 8), 0) == 1


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
    assert qcoeff(s, 0) == b
    # single state at energy 1/2: eigenvalue (t^(1/2) - t^(-1/2)) + beta
    assert qcoeff(s, F(1, 2)) == root - 1 / root + b


def test_neutral_antisymmetry():
    s = neutral_trace("boson_neutral", "C", [T], 6)
    sinv = neutral_trace("boson_neutral", "C", [T.inverse()], 6)
    assert series_equal(s, -sinv)


def test_f1_charge_zero_dims():
    z = Param(1, e=1)
    s = f1_charged_trace(z, [], 8).coeff_z(1, 0)
    # charge-0 strict-pair dimensions 1, 1, 2, 3, 5, ... = 1/(q)_inf slice
    assert [qcoeff(s, k) for k in range(5)] == [1, 1, 2, 3, 5]
    # k <-> -k symmetry
    full = f1_charged_trace(z, [], 8)
    assert series_equal(full.coeff_z(1, 2), full.coeff_z(1, -2))


def test_f1_vacuum_eigenvalue():
    z = Param(1, e=1)
    s = f1_charged_trace(z, [T], 6).coeff_z(1, 0)
    assert qcoeff(s, 0) == -beta_scalar(T)


def test_c_equals_a_minus_a_inverse():
    for state in (((), ()), ((2, 1), (1,)), ((3,), (2, 2))):
        assert eigenvalue("boson_pair", state, "C", T) == \
            eigenvalue("boson_pair", state, "A", T) - \
            eigenvalue("boson_pair", state, "A", T.inverse())


# -- the sliced duality trace against the full-product reference ------------


def test_duality_single_factor_reduces():
    zx = Param(1, e=-1)
    zy = Param(1, e=1)
    expect = a_generalized_trace(zx, zy, [T], 6)
    assert series_equal(product_duality_trace(["boson_pair"], "A", [T], 6),
                        expect)
    for m in (-1, 0, 2):
        assert duality_trace(["boson_pair"], "A", [T], 6, {(2 * m,): 1}) \
            == a_sector_trace(m, [T], 6) == expect.coeff_z(1, m)


def test_duality_n0_factorizes():
    got = product_duality_trace(["boson_pair", "boson_pair"], "A", [], 6)
    one = product_duality_trace(["boson_pair"], "A", [], 6)
    prod = one * Series(one.trunc2, {(q2, tuple((2, e) for _, e in zk)): c
                                     for (q2, zk), c in one.terms.items()})
    assert series_equal(got, prod)
    for a, b in ((0, 0), (1, 0), (-1, 2)):
        sliced = duality_trace(["boson_pair", "boson_pair"], "A", [], 6,
                               {(2 * a, 2 * b): 1})
        assert sliced == (a_sector_trace(a, [], 6)
                          * a_sector_trace(b, [], 6)).truncate(6)


def test_duality_vacuum_level_minus2():
    factors = ["boson_pair", "boson_pair"]
    full = product_duality_trace(factors, "A", [T], 4)
    # coefficient of z1^0 z2^0 q^0 is 2*beta
    assert qcoeff(full.coeff_z(1, 0).coeff_z(2, 0), 0) == 2 * beta_scalar(T)
    sliced = duality_trace(factors, "A", [T], 4, {(0, 0): 1})
    assert qcoeff(sliced, 0) == 2 * beta_scalar(T)


@pytest.mark.parametrize("factors,op", [
    (["boson_pair", "boson_pair"], "A"),
    (["boson_pair", "boson_pair"], "C"),
    (["boson_neutral", "fermion_pair"], "C"),
    (["boson_pair", "fermion_neutral"], "D"),
    (["fermion_neutral", "boson_pair", "fermion_pair"], "D"),
    (["boson_pair", "boson_neutral", "boson_pair"], "C"),
])
def test_duality_convolution_vs_direct(factors, op):
    """Every charge slice, and signed sums of several slices, against the
    state enumeration; the neutral factor leads, sits between or trails
    the charged ones."""
    for pts in ([], [T], [T, T2]):
        direct = duality_trace_direct(factors, op, pts, 2)
        assert series_equal(product_duality_trace(factors, op, pts, 2),
                            direct)
        present = charge_vectors(direct, factors)
        for c in present:
            assert duality_trace(factors, op, pts, 2, {c: 1}) \
                == charge_slice(direct, factors, c)
        signs = {c: (-1) ** i * (i % 3 + 1) for i, c in enumerate(present)}
        expect = Series.zero(2)
        for c, sgn in signs.items():
            expect = expect + charge_slice(direct, factors, c).scale(sgn)
        assert duality_trace(factors, op, pts, 2, signs) == expect


@pytest.mark.parametrize("factors,op", [
    (["boson_pair", "boson_pair"], "A"),
    (["fermion_pair", "fermion_pair", "fermion_neutral"], "D"),
    (["boson_pair", "boson_pair", "boson_neutral"], "C"),
])
def test_duality_builds_one_table_per_charged_kind(monkeypatch, factors, op):
    """At rank 2 both charged factors share a kind, so their knapsack table
    is built once (and a neutral factor's once), and the trace still equals
    the state enumeration."""
    calls = []
    build = fock._trace_table

    def counted(kind, *args, **kwargs):
        calls.append(kind)
        return build(kind, *args, **kwargs)

    monkeypatch.setattr(fock, "_trace_table", counted)
    got = duality_trace(factors, op, [T, T2], 2, {(0, 0): 1, (2, -2): -1})
    assert [kind for kind in calls if kind in CHARGED] == [factors[0]]
    assert calls == list(dict.fromkeys(factors))
    direct = duality_trace_direct(factors, op, [T, T2], 2)
    assert got == charge_slice(direct, factors, (0, 0)) \
        - charge_slice(direct, factors, (2, -2))


def test_direct_oracle_reads_each_state_once(monkeypatch):
    """The state enumeration reads ``eigenvalue`` once per state of each
    distinct kind and point, not once per tensor-product state: c -l-1/2
    at rank 2 repeats its boson-pair kind, and the trace still equals the
    product of the knapsack tables."""
    inst = cf.duality_instance("c", "-l-1/2", 2)
    kinds = set(inst.factors)
    assert len(kinds) < len(inst.factors)
    calls = []
    read = fock.eigenvalue

    def counted(*args):
        calls.append(args[0])
        return read(*args)

    monkeypatch.setattr(fock, "eigenvalue", counted)
    got = duality_trace_direct(inst.factors, inst.op_tag, [T, T2], 2)
    assert len(calls) == 2 * sum(len(fock.factor_states(kind, 4))
                                 for kind in kinds)
    monkeypatch.undo()
    assert got == product_duality_trace(inst.factors, inst.op_tag, [T, T2], 2)


@pytest.mark.parametrize("factors,pts,N,refusal", [
    # every factor's operator is checked at the first point
    (("boson_pair", "boson_neutral"), [T, Param(1)], 1, QSeriesError),
    (("boson_pair", "boson_neutral"), [Param(1), T], 1, DegenerateParameter),
    (("boson_pair", "fermion_pair"), [T, Param(1)], F(1, 2),
     DegenerateParameter),
    # the central terms cancel at t and no state has energy: every
    # coefficient is 0 before the pole is read
    (("boson_pair", "fermion_pair"), [T, Param(1)], 0, None),
])
def test_direct_oracle_refuses_in_state_order(factors, pts, N, refusal):
    """The state enumeration refuses what a state-by-state loop meets
    first: the points in order, and at each point the factors in order."""
    if refusal is None:
        assert duality_trace_direct(factors, "A", pts, N) == Series.zero(N)
    else:
        with pytest.raises(refusal):
            duality_trace_direct(factors, "A", pts, N)


def test_f1_refuses_a_q_shifted_charge_weight(builds):
    """A z with a power of q moves states across q^N, so a table kept to
    E <= N cannot give the truncated trace: it is refused before any
    table is built, and z = 0 still answers at N = 0."""
    for z in (Param(1, 1, 1), Param(F(2, 3), 1, F(1, 2)), Param(1, F(1, 2))):
        with pytest.raises(NonTruncatable):
            f1_charged_trace(z, [T], 3)
    assert builds == [] and fock._TABLES == {}
    assert f1_charged_trace(Param(0), [T], 0) \
        == Series.const(-beta_scalar(T), 0)


def test_duality_charge_vector_length_checked():
    with pytest.raises(QSeriesError):
        duality_trace(["boson_pair", "boson_neutral"], "C", [T], 2,
                      {(0, 0): 1})


def test_shifted_points_rejected():
    with pytest.raises(NonTruncatable):
        a_sector_trace(0, [Param(F(2, 3), 1)], 4)


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("trace", [
    lambda pts: a_sector_rows(pts, 6, {0, 1}),
    lambda pts: neutral_trace("boson_neutral", "C", pts, 3),
    lambda pts: f1_charged_trace(Param(1, e=1), pts, 3),
    lambda pts: a_generalized_trace(X, Y, pts, 3),
    lambda pts: duality_trace(("boson_pair", "fermion_neutral"), "D", pts, 3,
                              {(0,): 1}),
], ids=["a_sector_traces", "neutral_trace", "f1_charged_trace",
        "a_generalized_trace", "duality_trace"])
def test_unit_point_refused(trace, s):
    """t = 1, from t^(1/2) = 1 or -1, is the pole of beta: every trace
    refuses it, also behind a regular point."""
    with pytest.raises(DegenerateParameter,
                       match=r"^beta has a pole at t = 1$"):
        trace([T, Param(s)])


def test_sector_traces_build_no_fraction_per_point(monkeypatch):
    """The knapsack's per-point constants are integers: a_sector_rows
    builds as many Fractions at 0, 1, 3 and 6 points."""
    new = Fraction.__new__
    count = [0]

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    built = []
    for n in (0, 1, 3, 6):
        count[0] = 0
        monkeypatch.setattr(Fraction, "__new__", counting)
        a_sector_rows(SIX[:n], 6, {0, 1})
        monkeypatch.undo()
        built.append(count[0])
    assert built == built[:1] * 4, built


KINDS = ("boson_pair", "fermion_pair", "boson_neutral", "fermion_neutral")


@settings(max_examples=60, deadline=None)
@given(st.lists(point_st, max_size=3), st.integers(0, 6), st.data())
def test_sector_table_matches_one_trace_per_subset(pts, n2, data):
    """Every (charge, mask) entry of the one-pass table against its own
    a_sector_trace call at that subset of the points: one row per point
    mask."""
    N = F(n2, 2)
    charges = data.draw(st.sets(st.integers(-3, 3), max_size=3))
    table = a_sector_rows(pts, n2, charges)
    assert set(table) == charges
    for m in charges:
        assert len(table[m]) == 1 << len(pts)
        for T_, got in enumerate(table[m]):
            sub = [p for j, p in enumerate(pts) if T_ >> j & 1]
            assert fock.row_series(n2, got) == a_sector_trace(m, sub, N)


@settings(max_examples=60, deadline=None)
@given(st.lists(point_st, max_size=3), st.integers(0, 6),
       st.lists(st.sampled_from(KINDS), min_size=1, max_size=2),
       st.sampled_from("ACD"))
def test_traces_match_direct_enumeration(pts, n2, factors, op):
    """Every factorized trace against the state-by-state tensor-product
    enumeration, at random rational points."""
    N = F(n2, 2)
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
        direct = duality_trace_direct(factors, op, pts, N)
        assert product_duality_trace(factors, op, pts, N) == direct
        present = charge_vectors(direct, factors)
        for c in present:
            assert duality_trace(factors, op, pts, N, {c: 1}) \
                == charge_slice(direct, factors, c)
        # a charge vector no state reaches, when there are charged factors,
        # and a signed pair
        absent = tuple(2 * n2 + 2 for _ in _zvars(factors))
        if absent:
            assert duality_trace(factors, op, pts, N, {absent: 1}) \
                == Series.zero(N)
        c0 = present[0] if present else absent
        c1 = present[-1] if len(present) > 1 else absent
        if c0 != c1:
            assert duality_trace(factors, op, pts, N, {c0: 3, c1: -1}) \
                == charge_slice(direct, factors, c0).scale(3) \
                - charge_slice(direct, factors, c1)
    else:
        with pytest.raises(QSeriesError):
            duality_trace(factors, op, pts, N, {})
        if pts:
            with pytest.raises(QSeriesError):
                duality_trace_direct(factors, op, pts, N)


XZ = Param(F(2, 5), 0, -1)
YZ = Param(F(3, 7), 0, 1)
# a negative, q-shifted ratio with a half-integer charge power
YQZ = Param(F(3, 7), F(1, 2), F(1, 2), sign=-1)
RATIOS = (X, Y, XZ, YZ, YQZ, Param(0))
ZS = (Param(1, e=1), Param(F(2, 3)), Param(F(2, 3), 1, F(1, 2)), Param(0))


# t and 1/t at three points, as closedform's signed c/d slices read them
SIX = [Param(s) for s in (F(2, 3), F(3, 5), F(5, 7), F(3, 2), F(5, 3),
                          F(7, 5))]


@st.composite
def trace_table_requests(draw):
    """(points, n2, charges, kind, op, z, x, y): 0-3 random points or the
    six of a signed c/d slice, N from -1/2 (no state) to 8, charges a state
    reaches and charges none does, a factor kind and operator, an f1 charge
    weight and a pair of ratios."""
    pts = draw(st.one_of(st.lists(point_st, max_size=3), st.just(SIX)))
    n2 = draw(st.integers(-1, 16))
    charges = draw(st.sets(st.integers(-n2 - 2, n2 + 2), max_size=4))
    kind = draw(st.sampled_from(KINDS))
    op = draw(st.sampled_from(sorted(LEGAL_OPS[kind])))
    z = draw(st.sampled_from(ZS))
    x, y = draw(st.sampled_from(RATIOS)), draw(st.sampled_from(RATIOS))
    return pts, n2, charges, kind, op, z, x, y


@settings(max_examples=100, deadline=None)
@given(trace_table_requests())
# a negative t^(1/2) and one above 1, on the C operator of a fermion pair
@example(([Param(F(-2, 3)), Param(F(5, 3))], 9, {-1, 0, 2},
          "fermion_pair", "C", ZS[0], XZ, YZ))
@example((SIX, 7, {0, 1, -2}, "boson_pair", "D", ZS[2], X, YQZ))
# no state fits, and the ratios still divide a start row of none
@example(([T], -1, {0}, "boson_pair", "A", ZS[1], X, YQZ))
# both ratios carry a coefficient, one with d > 0, at an odd N2: each part
# divides exactly by its side's coefficient denominator in any part order
@example(([T, Param(F(5, 3))], 11, {0, 1}, "boson_pair", "A", ZS[0],
          Param(F(2, 5), F(1, 2)), Y))
def test_trace_table_matches_side_table_pair_pass(req):
    """Every trace the one knapsack serves against the pair pass over
    side tables of enumerated partitions, with truncation and the set of
    returned charges included, or the same refusal.  The knapsack's own
    rows at every point mask equal the reference's: dens, rising q2 and no
    zero numerator included."""
    pts, n2, charges, kind, op, z, x, y = req
    N = F(n2, 2)
    assert {m: [fock.row_series(n2, row) for row in rows] for m, rows
            in a_sector_rows(pts, n2, charges).items()} \
        == reference_a_sector_traces(pts, n2, charges)
    doubled = {2 * m for m in charges}
    wanted = doubled if kind in CHARGED else None
    got = fock._trace_table(kind, op, pts, n2, wanted)
    assert got == reference_trace_table(kind, op, pts, n2, wanted)
    assert set(got[1]) <= doubled | {0}
    for kind in ("boson_neutral", "fermion_neutral"):
        assert [fock.row_series(n2, row)
                for row in fock._neutral_rows(kind, pts, n2)] \
            == reference_neutral_traces(kind, pts, n2)
    assert _outcome_and_message(f1_charged_trace, z, pts, N) \
        == _outcome_and_message(reference_f1_charged_trace, z, pts, N)
    assert _outcome_and_message(a_generalized_trace, x, y, pts, N) \
        == _outcome_and_message(reference_a_generalized_trace, x, y, pts, N)


def test_generalized_trace_refuses_divergent_and_two_variable_ratios():
    """x = c q^d with d < 0 makes the trace diverge (a part of size 1 adds
    no energy), and the table keeps one charge variable."""
    with pytest.raises(NonTruncatable):
        a_generalized_trace(Param(F(2, 5), F(-1, 2)), Y, [T], 4)
    with pytest.raises(QSeriesError):
        a_generalized_trace(XZ, Param(F(3, 7), 0, 1, zvar=2), [T], 4)


@pytest.mark.parametrize("kind,op", [(kind, op) for kind in KINDS
                                     for op in sorted(LEGAL_OPS[kind])])
@settings(max_examples=25, deadline=None)
@given(st.lists(point_st, max_size=3), st.integers(-1, 12),
       st.sets(st.integers(-26, 26), max_size=6))
@example([T, T2], 6, set(range(-12, 13)))
@example([T, T2], 6, {0})
@example([T], 7, set())
@example([T2], 5, {-6, -1, 3, 26})  # odd buckets and one past every state
def test_factor_table_holds_only_the_charges_asked_for(kind, op, pts, n2,
                                                       wanted):
    """The knapsack pruned to `wanted` equals the unpruned table cut to
    it, for every kind and operator and 0-3 points: dens, every row's
    (q2, numerator) pairs and the set of buckets, with negative buckets,
    buckets no state reaches and the empty set among the wanted ones."""
    dens, table = fock._trace_table(kind, op, pts, n2)
    # one part on either side of a pair reaches charges -1, 0 and 1
    if kind in CHARGED and n2 >= 1:
        assert len(table) >= 3
    else:
        assert len(table) == (n2 >= 0)
    assert fock._trace_table(kind, op, pts, n2, wanted) \
        == (dens, {b: rows for b, rows in table.items() if b in wanted})


def test_sector_trace_enumerates_no_partition(monkeypatch):
    """The knapsack is built over parts, not from the partition
    enumerator, so a 3-point trace at N = 36 stays cheap."""
    def refuse(*args):
        raise AssertionError("mod_partitions called")

    monkeypatch.setattr(fock, "mod_partitions", refuse)
    pts = [T, T2, Param(F(5, 7))]
    s = a_sector_trace(1, pts, 36)
    assert s.trunc2 == 72
    assert s.truncate(3) == a_sector_trace(1, pts, 3)


def test_partition_tables_cache_is_bounded():
    """A long session that asks for many budgets keeps only a few tables."""
    bound = fock.mod_partitions.cache_info().maxsize
    assert bound is not None and 2 <= bound <= 8
    for budget2 in range(bound + 3):
        fock.mod_partitions(budget2, True)
    assert fock.mod_partitions.cache_info().currsize <= bound


def test_memoized_tables_are_read_as_they_are(builds):
    """Every reader of the knapsack, run twice, leaves each table the memo
    handed out equal to a fresh build by the uncached body: no caller
    writes to a shared table."""
    pts2 = [T, T2]

    def read_every_way():
        for key in sorted(cf._FAMILIES):
            inst = cf.duality_instance(*key, 2)
            cf.extract_dominant(inst, (1, 0), pts2, 3)
            for mode in ("assignment", "literal"):
                cf.duality_reduce(inst, (1, 0), pts2, 3, mode=mode)
        a_sector_trace(1, pts2, 4)
        cf.c_sector_minus1(1, pts2, 4)
        cf.d_sector_minus1(1, pts2, 4)
        neutral_trace("boson_neutral", "C", pts2, 4)
        neutral_trace("fermion_neutral", "D", pts2, 4)
        f1_charged_trace(Param(1, e=1), pts2, 4)
        a_generalized_trace(Param(1, e=-1), Param(1, e=1), pts2, 4)

    read_every_way()
    first = len(builds)
    read_every_way()
    assert len(builds) == first  # the second round reads only the memo
    for key, table in builds:
        assert table == fock._knapsack.__wrapped__(*key), key


def test_memo_keys_c_and_d_as_one_rule(builds):
    """On the boson pair C and D are one rule, A(t) - A(t^(-1)): after C,
    D at the same points is served from the memo; A is a table of its
    own."""
    pts = [Param(F(4, 11)), Param(F(5, 13))]
    for ops, n in (("CD", 1), ("AC", 2)):
        fock._TABLES.clear()
        builds.clear()
        for op in ops:
            a_sector_rows(pts, 6, [1], op)
        assert len(builds) == n


def test_memo_stores_no_refusal(builds):
    """A point at t = 1 is refused on every call, not only the first."""
    for _ in range(3):
        with pytest.raises(DegenerateParameter):
            a_sector_rows([T, Param(1)], 4, [0])
    assert fock._TABLES == {}


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("kind,op", [("boson_pair", "A"), ("boson_pair", "C"),
                                     ("fermion_pair", "A"),
                                     ("fermion_pair", "D")])
def test_held_table_serves_every_subset_of_its_buckets(builds, kind, op, n):
    """A table built for a bucket set serves every non-empty subset with
    no new build, each equal to a fresh build at exactly that subset."""
    pts, held = [T, T2][:n], {-4, -2, 0, 2, 4, 6}
    roots = tuple((p.s.numerator, p.s.denominator) for p in pts)
    rule = "A" if op == "A" else "C"
    fock._trace_table(kind, op, pts, 6, held)
    for size in range(1, len(held) + 1):
        for subset in itertools.combinations(sorted(held), size):
            assert fock._trace_table(kind, op, pts, 6, set(subset)) \
                == fock._knapsack.__wrapped__(kind, rule, roots, 6, None,
                                              None, frozenset(subset))
    assert [key[-1] for key, _ in builds] == [frozenset(held)]


def test_memo_builds_the_union_of_held_and_asked_buckets(builds):
    """A request outside the held buckets builds the table for their
    union, which replaces the entry; a request for all buckets builds
    the whole table, which then serves any request."""
    pts = [T]
    a_sector_rows(pts, 6, [0, 1])
    a_sector_rows(pts, 6, [-1])
    a_sector_rows(pts, 6, [1, -1, 0])
    assert [key[-1] for key, _ in builds] == [frozenset({0, 2}),
                                              frozenset({0, 2, -2})]
    a_sector_trace(2, pts, 3)
    assert [key[-1] for key, _ in builds[2:]] == [frozenset({0, 2, -2, 4})]
    dens, table = fock._trace_table("boson_pair", "A", pts, 6)
    assert [key[-1] for key, _ in builds[3:]] == [None]
    assert fock._trace_table("boson_pair", "A", pts, 6, {-4, 8}) \
        == (dens, {b: table[b] for b in (-4, 8) if b in table})
    assert len(builds) == 4
    assert list(fock._TABLES.values())[-1] == (None, (dens, table))


@pytest.mark.parametrize("first", ["oracle", "assignment"])
def test_c_negl_modes_share_one_table_in_either_order(builds, first):
    """The c -l oracle reads the pair's C table at signed charges and the
    closed side at |k|: run in either order the two modes print the same
    bytes and leave one memo entry, the pair's, which holds both sets."""
    argv = ["corr", "--algebra", "c", "--level=-2", "--lambda", "1,0",
            "--points", "2/3", "3/5", "--N", "3", "--mode"]
    printed = []
    for mode in (first, ({"oracle", "assignment"} - {first}).pop()):
        out = io.StringIO()
        assert cli.main(argv + [mode], out=out) == 0
        printed.append(out.getvalue())
    assert printed[0] == printed[1] != ""
    ((key, (built, _)),) = fock._TABLES.items()
    assert key[:2] == ("boson_pair", "C")
    assert min(built) < 0 and set(map(abs, built)) <= built
    assert len(builds) <= 2


def test_memo_holds_at_most_128_tables(builds):
    """The memo keeps the 128 most recently read tables: the 129th key
    drops the least recently read one, and a read keeps a table."""
    def read(k):
        neutral_trace("boson_neutral", "C", [Param(F(1, k + 2))], 0)

    for k in range(128):
        read(k)
    read(0)
    for k in range(128, 140):
        read(k)
        assert len(fock._TABLES) == 128
    assert len(builds) == 140
    read(0)
    assert len(builds) == 140
    read(1)
    assert len(builds) == 141


# -- the charge-prefix trie against the sliced product ----------------------


@st.composite
def duality_requests(draw):
    """(factors, op, points, N, charges): 1-4 factors of kinds legal for
    the operator, neutral ones anywhere, 0-3 points, and a signed charge map
    (signs -2..2, zero included) whose vectors share prefixes and hold odd
    doubled charges and charges no state reaches."""
    op = draw(st.sampled_from("ACD"))
    kinds = sorted(kind for kind in KINDS if op in LEGAL_OPS[kind])
    factors = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    points = draw(st.lists(point_st, max_size=3))
    n2 = draw(st.integers(0, 4))
    r = sum(kind in CHARGED for kind in factors)
    entry = st.sampled_from([0, 0, 2, -2, 4, 1, -3, 2 * n2 + 2])
    vectors = draw(st.lists(st.tuples(*[entry] * r), min_size=1, max_size=6))
    # the same prefixes again with other last entries
    if r:
        vectors += [v[:-1] + (e,) for v, e in zip(
            vectors, draw(st.lists(entry, max_size=len(vectors))))]
    signs = draw(st.lists(st.integers(-2, 2), min_size=len(vectors),
                          max_size=len(vectors)))
    return factors, op, points, F(n2, 2), dict(zip(vectors, signs))


@settings(max_examples=120, deadline=None)
@given(duality_requests())
# a reciprocal pair of points: their eigenvalues share one denominator
@example((["boson_pair", "fermion_pair"], "C", [T, T.inverse()], F(3, 2),
          {(0, 0): 1, (2, -2): -1, (-2, 2): 2}))
# N = 0 and N = 1/2: one q-layer, then the first part
@example((["fermion_pair", "boson_neutral", "boson_pair"], "C", [T, T2],
          F(0), {(0, 0): 1, (2, 0): 3}))
@example((["boson_pair", "boson_pair"], "A", [T], F(1, 2),
          {(0, 0): 1, (2, -2): -2, (-2, 0): 1}))
# a neutral factor between charged ones
@example((["fermion_pair", "fermion_neutral", "fermion_pair"], "D",
          [T, T2, Param(F(5, 7))], F(2), {(0, 0): 2, (2, -2): -1, (2, 0): 1}))
# every vector unreachable: an odd doubled charge, or one past the budget
@example((["boson_pair", "boson_pair"], "A", [T], F(1),
          {(1, 0): 1, (0, 8): -1}))
def test_duality_trie_matches_map_by_map_sum(req):
    """The trie over charge prefixes against the signed charge slices of
    one multi-variable product per map from the points to the factors: the
    same series, truncation and all, or the same refusal."""
    assert _outcome_and_message(duality_trace, *req) \
        == _outcome_and_message(sliced_duality_trace, *req)


def test_duality_trace_builds_one_series(monkeypatch):
    """The trie runs on integer rows: one canonical series is built per
    call, at the root, or the zero series when no vector is reached."""
    pts = [T, T2, Param(F(5, 7))]
    requests = [
        (["boson_pair"] * 4, "D", pts, 3, {(0, 2, 0, -2): 1, (2, 0, 0, -2): -1,
                                           (0, 0, 0, 0): 1}),
        (["boson_neutral", "fermion_pair", "fermion_pair"], "C", pts, 2,
         {(0, 0): 1, (2, -2): -1}),
        (["boson_pair", "boson_pair"], "A", [T], 1, {(1, 0): 1}),
        (["fermion_neutral"], "D", [], 2, {(): 1}),
    ]
    want = [sliced_duality_trace(*req) for req in requests]
    built = []
    reduced = qseries._reduced
    monkeypatch.setattr(qseries, "_reduced",
                        lambda *args: built.append(args) or reduced(*args))
    for req, expect in zip(requests, want):
        del built[:]
        assert duality_trace(*req) == expect
        assert len(built) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(point_st, max_size=3), st.integers(-1, 12))
@example([T, T2, Param(F(-9, 2))], 12)
def test_subset_denominators_are_one_product_per_point(pts, n2):
    """The trie sums bare numerators because every factor table at mask T
    lies over dens[0] prod_(j in T) dens[1 << j] / dens[0], with the same
    per-point factor for every (kind, operator) and for t beside 1/t."""
    pts = pts + [p.inverse() for p in pts[:1]]
    n = len(pts)
    per_point = set()
    for kind in KINDS:
        for op in sorted(LEGAL_OPS[kind]):
            dens, _ = fock._trace_table(kind, op, pts, n2,
                                        {0, 2} if kind in CHARGED else None)
            assert all(d % dens[0] == 0 for d in dens)
            ratios = tuple(dens[1 << j] // dens[0] for j in range(n))
            assert dens == [dens[0] * math.prod(
                r for j, r in enumerate(ratios) if T_ >> j & 1)
                for T_ in range(1 << n)]
            per_point.add(ratios)
    assert len(per_point) == 1
    (ratios,) = per_point
    if pts:
        assert ratios[0] == ratios[-1]
