"""Trace oracles by per-mode resummation, valid for q-shifted points.

The brute-force oracles in :mod:`qfock.fock` enumerate basis states and fail
when an operator point carries a q-shift (the state-by-state eigenvalues then
contain arbitrarily negative q-powers).  Here the trace is instead organized
mode by mode: each oscillator mode r in 1/2 + Z_+ contributes a geometric
occupancy sum, operator insertions attach occupation-number moments to the
modes they hit, and the sum over modes is performed in closed (geometric)
form.  As long as every point carries at most a single q-shift the resummed
geometric ratios have nonnegative q-valuation and the result is an honest
truncated series.

Derivation sketch (charged pair of bosons; the neutral case is analogous).
A state is an occupation table {n_r} for the raising side and {m_r} for the
lowering side, with weight prod_r (x q^r)^{n_r} (y q^r)^{m_r} and operator
eigenvalue for the point t_k equal to

    sum_r (n_r t_k^r - m_r t_k^{-r})  +  beta(t_k).

Expanding the product of eigenvalues over a chosen subset S of points, the
points of S are distributed among modes; points sharing a mode form a block.
For a block with a points on the raising side and b on the lowering side the
mode-r factor divided by the bare occupancy sum is

    (sum_j c^(a)_j (x q^r)^j) * (sum_j c^(b)_j (y q^r)^j),
    c^(a)_j = j^a - (j-1)^a  (j >= 1),  c^(0) = [1, 0, 0, ...],

using sum_n n^a u^n = (1-u)^{-1} sum_j c^(a)_j u^j.  Distinct blocks occupy
distinct modes; the distinctness constraint is removed by Moebius inversion
over merges of blocks, with weight (-1)^(|M|-1) (|M|-1)! for each merged
group M, whose blocks then share a single mode summed in geometric form:

    sum_{r in 1/2+Z_+} W^r = W^(1/2) / (1 - W).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import List, Sequence, Tuple

from .combinat import set_partitions
from .qseries import (HalfInt, NonTruncatable, Param, Series,
                      c_term, pochhammer_inf, power, to2, _zmul)

_QH = Param(Fraction(1), Fraction(1, 2), label="q^(1/2)")


def point_inverse(p: Param) -> Param:
    """The point p^(-1), allowing q-shifted p (unlike Param.inverse)."""
    if p.is_zero:
        raise NonTruncatable("inverse of the zero point")
    return Param(1 / p.s, HalfInt(twice=-p.d2), HalfInt(twice=-p.e2),
                 p.zvar, p.sign)


@lru_cache(maxsize=None)
def _moment_array(a: int, jmax: int) -> Tuple[int, ...]:
    """Coefficients c^(a)_j, j = 0..jmax, of sum_n n^a u^n = sum c_j u^j/(1-u)."""
    if a == 0:
        return (1,) + (0,) * jmax
    return (0,) + tuple(j ** a - (j - 1) ** a for j in range(1, jmax + 1))


def _convolve(a: Sequence, b: Sequence, jmax: int) -> List:
    out = [0] * (jmax + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > jmax:
                break
            out[i + j] += ai * bj
    return out


def _geo(w: Param, N) -> Series:
    """sum_{r in 1/2+Z_+} w^r = w^(1/2)/(1-w) as a truncated series."""
    v2 = w.qval2()
    if v2 < 0:
        raise NonTruncatable("mode sum with negatively q-valued ratio")
    if v2 == 0:
        if w.e2:
            raise NonTruncatable("mode sum over a pure charge monomial")
        if w.value_coeff == 1:
            raise NonTruncatable("mode sum has a pole at ratio 1")
        return Series.const(w.scalar_pow(Fraction(1, 2)) / (1 - w.value_coeff), N)
    return power(w, Fraction(1, 2), N) * (Series.one(N) - power(w, 1, N)).invert()


def _group_sum_charged(group_blocks, splits, points, x: Param, y: Param, N) -> Series:
    """Sum over the shared mode for one merged group with fixed side-splits.

    group_blocks: list of blocks (tuples of point indices); splits: matching
    list of frozensets giving each block's raising-side members.
    """
    t2 = to2(N)
    jmax = t2 + 2 * len(group_blocks) + 2
    ax = [Fraction(1)] + [Fraction(0)] * jmax
    ay = list(ax)
    tprod = Param(Fraction(1))
    sign = 1
    for block, up in zip(group_blocks, splits):
        a = len(up)
        b = len(block) - a
        ax = _convolve(ax, _moment_array(a, jmax), jmax)
        ay = _convolve(ay, _moment_array(b, jmax), jmax)
        for k in block:
            if k in up:
                tprod = tprod * points[k]
            else:
                tprod = tprod * point_inverse(points[k])
                sign = -sign
    out = Series.zero(N)
    xv2 = 0 if x.is_zero else x.qval2()
    yv2 = 0 if y.is_zero else y.qval2()
    for ja in range(jmax + 1):
        if not ax[ja]:
            continue
        if x.is_zero and ja:
            break
        for jb in range(jmax + 1):
            if not ay[jb]:
                continue
            if y.is_zero and jb:
                break
            w = (tprod * _QH.qshift(HalfInt(twice=2 * (ja + jb) - 1))
                 if ja + jb else tprod)
            v2 = w.qval2()
            if v2 < 0:
                raise NonTruncatable("shifted point makes the mode sum diverge")
            if v2 // 2 + ja * xv2 + jb * yv2 > t2:
                continue
            cx, qx2, zx = x.pow_monomial(ja)
            cy, qy2, zy = y.pow_monomial(jb)
            coeff = sign * ax[ja] * ay[jb] * cx * cy
            if not coeff:
                continue
            term = _geo(w, N).shift(HalfInt(twice=qx2 + qy2))
            term = Series(term.trunc2,
                          {(q2, _zmul(_zmul(zk, zx), zy)): c * coeff
                           for (q2, zk), c in term.terms.items()})
            out = out + term
    return out


def a_generalized_trace(x: Param, y: Param, points: Sequence[Param], N) -> Series:
    """tr q^{L_0} x^A y^B A(t_1)...A(t_n) over a charged boson pair.

    Agrees with fock.a_generalized_trace for scalar points and additionally
    accepts points with a single q-shift (e.g. q*t).
    """
    n = len(points)
    zfac = Series.one(N)
    for p in (x, y):
        if not p.is_zero:
            zfac = zfac * pochhammer_inf(p * _QH, N)
    base = zfac.invert()
    total = Series.zero(N)
    for mask in range(1 << n):
        s_idx = [k for k in range(n) if mask >> k & 1]
        pref = base
        for k in range(n):
            if not (mask >> k & 1):
                pref = pref * c_term(points[k], N)
        contrib = Series.zero(N)
        for part in set_partitions(s_idx):
            for split_choice in product(*[_subsets(b) for b in part]):
                # Moebius over merges of the blocks of this partition
                for merge in set_partitions(range(len(part))):
                    mprod = Series.one(N)
                    weight = 1
                    for group in merge:
                        g_blocks = [part[i] for i in group]
                        g_splits = [split_choice[i] for i in group]
                        weight *= (-1) ** (len(group) - 1) * _fact(len(group) - 1)
                        mprod = mprod * _group_sum_charged(
                            g_blocks, g_splits, points, x, y, N)
                    contrib = contrib + mprod.scale(weight)
        total = total + pref * contrib
    return total


def _subsets(block):
    items = list(block)
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def _fact(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def neutral_c_trace(points: Sequence[Param], N) -> Series:
    """tr q^{L_0} C(t_1)...C(t_n) over the neutral boson (level -1/2).

    The operator eigenvalue on occupation table {n_r} is
    sum_r n_r (t^r - t^{-r}) + beta(t); the (t^r - t^{-r}) factors expand
    over sign vectors eps in {+-1}^block.
    """
    n = len(points)
    base = pochhammer_inf(_QH, N).invert()
    total = Series.zero(N)
    for mask in range(1 << n):
        s_idx = [k for k in range(n) if mask >> k & 1]
        pref = base
        for k in range(n):
            if not (mask >> k & 1):
                pref = pref * c_term(points[k], N)
        contrib = Series.zero(N)
        for part in set_partitions(s_idx):
            for eps in product((1, -1), repeat=len(s_idx)):
                eps_of = dict(zip(s_idx, eps))
                acc = Series.zero(N)
                for merge in set_partitions(range(len(part))):
                    mprod = Series.one(N)
                    weight = 1
                    for group in merge:
                        weight *= (-1) ** (len(group) - 1) * _fact(len(group) - 1)
                        mprod = mprod * _group_sum_neutral(
                            [part[i] for i in group], eps_of, points, N)
                    acc = acc + mprod.scale(weight)
                contrib = contrib + acc
        total = total + pref * contrib
    return total


def _group_sum_neutral(group_blocks, eps_of, points, N) -> Series:
    t2 = to2(N)
    jmax = t2 + 2 * len(group_blocks) + 2
    arr = [Fraction(1)] + [Fraction(0)] * jmax
    tprod = Param(Fraction(1))
    sign = 1
    for block in group_blocks:
        arr = _convolve(arr, _moment_array(len(block), jmax), jmax)
        for k in block:
            if eps_of[k] == 1:
                tprod = tprod * points[k]
            else:
                tprod = tprod * point_inverse(points[k])
                sign = -sign
    out = Series.zero(N)
    for j in range(1, jmax + 1):
        if not arr[j]:
            continue
        w = tprod * _QH.qshift(HalfInt(twice=2 * j - 1))
        v2 = w.qval2()
        if v2 < 0:
            raise NonTruncatable("shifted point makes the mode sum diverge")
        if v2 // 2 > t2:
            continue
        out = out + _geo(w, N).scale(sign * arr[j])
    return out
