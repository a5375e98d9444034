"""Partitions (enumerated by fock.mod_partitions), Weyl groups, and the Weyl
denominator identities, with the signed character numerators and
alternating Weyl z-sums they relate."""

import itertools
from fractions import Fraction

import pytest

from qfock.combinat import (
    WeylElement,
    k_vector,
    rho_vector,
    weyl_group,
)
from qfock.fock import mod_partitions
from qfock.qseries import (
    CapExceeded,
    Param,
    QSeriesError,
    Series,
    pochhammer_n,
    series_equal,
)
from reference import weyl_zsum

F = Fraction


def char_numerator(kind, lam, l):
    """Determinant numerator of a classical character as a z-polynomial.

    kind 'gl':    |z_j^(lam_i+l-i)|
    kind 'sp':    |z_j^(a_i) - z_j^(-a_i)|, a_i = lam_i+l-i+1
    kind 'osp_b': |z_j^(a_i) - z_j^(-a_i)|, a_i = lam_i+l-i+1/2
    kind 'o_even':|z_j^(a_i) + z_j^(-a_i)|, a_i = lam_i+l-i
    (raw determinant; the dominant-monomial coefficient carries the 2/c_lambda
    normalization for 'o_even').
    """
    lam = tuple(lam) + (0,) * (l - len(lam))
    exps = [Fraction(lam[i] + l - 1 - i) for i in range(l)]
    if kind == "sp":
        exps = [a + 1 for a in exps]
    elif kind == "osp_b":
        exps = [a + Fraction(1, 2) for a in exps]
    plus_sign = {"gl": None, "sp": -1, "osp_b": -1, "o_even": 1}[kind]
    acc = Series.zero(0)
    for perm in itertools.permutations(range(l)):
        sgn = WeylElement(perm, (1,) * l, "A").sign
        # product over columns j of entry(i=perm[j], j)
        term = Series.const(sgn, 0)
        for j in range(l):
            a = exps[perm[j]]
            entry = Series.monomial(1, 0, 0, {j + 1: a})
            if plus_sign is not None:
                entry = entry + Series.monomial(plus_sign, 0, 0, {j + 1: -a})
            term = term * entry
        acc = acc + term
    return acc


def partitions_of(weight, strict=False):
    """The partitions of exactly `weight`, read off mod_partitions, whose
    doubled modified weight 2|lam| - len is at most 2 * weight."""
    return [parts for w2, parts in mod_partitions(2 * weight, strict)
            if sum(parts) == weight]


def test_partition_counts():
    # p(n) and the number of partitions of n into distinct parts
    assert [len(partitions_of(n)) for n in range(11)] == \
        [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions_of(n, strict=True)) for n in range(11)] == \
        [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
    assert {p for p in partitions_of(4) if len(p) <= 2} == \
        {(4,), (3, 1), (2, 2)}
    assert len([p for p in partitions_of(4) if len(p) == 2]) == 2
    assert set(partitions_of(5, strict=True)) == {(5,), (4, 1), (3, 2)}
    assert partitions_of(0) == [()]
    for strict in (False, True):
        table = mod_partitions(12, strict)
        assert len(set(p for _, p in table)) == len(table)
        for w2, parts in table:
            assert w2 == 2 * sum(parts) - len(parts) <= 12
            assert list(parts) == sorted(parts, reverse=True)
            assert not strict or len(set(parts)) == len(parts)


def test_length_generating_function():
    # Lemma-style check: sum over length-l partitions of q^|lambda| = q^l/(q)_l
    N = 15
    for l in range(1, 6):
        lhs = Series.zero(N)
        for _, lam in mod_partitions(2 * N - l):
            if len(lam) == l:
                lhs = lhs + Series.monomial(1, sum(lam), N)
        rhs = Series.monomial(1, l, N) * pochhammer_n(Param(1, 1), l, N).invert()
        assert series_equal(lhs, rhs)


def test_weyl_cardinalities_and_signs():
    a = list(weyl_group("A", 3))
    assert len(a) == 6 and sum(s for _, s in a) == 0
    assert len(list(weyl_group("BC", 2))) == 8
    assert len(list(weyl_group("D", 3))) == 24
    for l in (1, 2, 3):
        assert len(list(weyl_group("BC", l))) == 2 ** l * _fact(l)
        assert len(list(weyl_group("D", l))) == 2 ** max(l - 1, 0) * _fact(l)
    with pytest.raises(CapExceeded):
        list(weyl_group("BC", 7))


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_weyl_d_even_flips_and_closure():
    els = [w for w, _ in weyl_group("D", 3)]
    assert all(w.signs.count(-1) % 2 == 0 for w in els)


def test_k_vector():
    rho = rho_vector("A", 2)  # (1, 0)
    ident = WeylElement((0, 1), (1, 1), "A")
    swap = WeylElement((1, 0), (1, 1), "A")
    assert k_vector([0, 0], ident, rho) == [0, 0]
    assert k_vector([0, 0], swap, rho) == [1, -1]
    flip = WeylElement((0,), (-1,), "BC")
    assert k_vector([2], flip, rho_vector("B", 1)) == [3]
    assert k_vector([5, -2], ident, rho) == [5, -2]
    # rho_i - rho_j a half-integer: no integral k-vector
    with pytest.raises(QSeriesError, match="non-integral k-vector entry 1/2"):
        k_vector([0, 0], swap, [F(1, 2), 0])


def test_weyl_denominator_type_d():
    # (1/2)|z_j^(l-i)+z_j^(-(l-i))| = sum over W(D_l) of sign * z^(sigma rho)
    for l in (2, 3):
        det = char_numerator("o_even", [0] * l, l)
        lhs = det.scale(F(1, 2))
        rhs = weyl_zsum("D", rho_vector("A", l))
        assert series_equal(lhs, rhs)


def test_weyl_denominator_types_b_c():
    for l in (1, 2, 3):
        det_b = char_numerator("osp_b", [0] * l, l)
        assert series_equal(det_b, weyl_zsum("BC", rho_vector("B", l)))
        det_c = char_numerator("sp", [0] * l, l)
        assert series_equal(det_c, weyl_zsum("BC", rho_vector("C", l)))


def test_char_numerator_examples():
    assert char_numerator("gl", [3], 1).terms == {(0, ((1, 6),)): F(1)}
    s = char_numerator("sp", [2], 1)
    assert s.terms == {(0, ((1, 6),)): F(1), (0, ((1, -6),)): F(-1)}
    s = char_numerator("o_even", [0], 1)
    assert s.terms == {(0, ()): F(2)}
    s = char_numerator("o_even", [2], 1)
    assert s.terms == {(0, ((1, 4),)): F(1), (0, ((1, -4),)): F(1)}


def test_char_numerator_alternating():
    s = char_numerator("gl", [2, 1, 0], 3)
    swapped = Series(0, {(q2, tuple(sorted(
        ((2 if v == 1 else 1 if v == 2 else v), e) for v, e in zk))): c
        for (q2, zk), c in s.terms.items()})
    assert series_equal(swapped, -s)


def test_dominant_coefficient_o_even():
    # coefficient of prod z_i^(lam_i+l-i) is 2/c_lambda
    l = 2
    for lam, expect in (((0, 0), 2), ((1, 0), 2), ((2, 1), 1)):
        s = char_numerator("o_even", lam, l)
        key = (0, tuple(sorted((i + 1, 2 * (lam[i] + l - 1 - i))
                               for i in range(l) if lam[i] + l - 1 - i)))
        assert s.terms.get(key, 0) == expect

