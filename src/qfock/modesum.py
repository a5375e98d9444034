"""Trace oracles by per-mode resummation, valid for q-shifted points.

The brute-force oracles in :mod:`qfock.fock` enumerate basis states and fail
when an operator point carries a q-shift (the state-by-state eigenvalues then
contain arbitrarily negative q-powers).  Here the trace is instead organized
mode by mode: each oscillator mode r in 1/2 + Z_+ contributes a geometric
occupancy sum, and the sum over modes is performed in closed (geometric)
form.  As long as every point carries at most a single q-shift the resummed
geometric ratios have nonnegative q-valuation and the result is an honest
truncated series.

Cumulant expansion (charged pair of bosons).  A state is an occupation table
{n_r} for the raising side and {m_r} for the lowering side, with weight
prod_r (x q^r)^{n_r} (y q^r)^{m_r} and operator eigenvalue for the point t_k

    X_k = sum_r n_r t_k^r - sum_r m_r t_k^{-r} + beta(t_k).

Divided by the partition function, the trace is the moment E[X_1 ... X_n] of
independent geometric occupations, and the moment-cumulant formula writes it
as a sum over set partitions M of the points of prod_{G in M} K(G), K(G) the
joint cumulant of the X_k, k in G.  An occupation of ratio u has cumulants

    kappa_m(u) = sum_{j>=1} j^(m-1) u^j      (log E e^{sn} = sum_j u^j (e^{js}-1)/j),

the cross-cumulants of distinct modes vanish, and the constant beta(t_k)
enters only the first cumulant.  With t_G = prod_{k in G} t_k and the mode
sum geo(W) = sum_{r in 1/2+Z_+} W^r = W^(1/2)/(1 - W):

    K(G) = sum_{j>=1} j^(|G|-1) [x^j geo(t_G q^j) + (-1)^|G| y^j geo(t_G^-1 q^j)]
           (+ beta(t_k) when G = {k}).

The neutral boson has one table with ratio q^r and eigenvalue
sum_r n_r (t_k^r - t_k^{-r}) + beta(t_k); the differences expand over sign
vectors eps in {+-1}^G, t_eps = prod_{k in G} t_k^eps_k:

    K(G) = sum_eps (prod eps) sum_{j>=1} j^(|G|-1) geo(t_eps q^j).

The j-th term of a cumulant has doubled q-valuation (v + 2j)//2 + j val2(u),
v the doubled valuation of t_G (or t_G^-1, t_eps), so it grows with j and the
j sum stops at the first term beyond the truncation.  A ratio t q^j of
negative valuation (two q-shifted points, or a point shifted by q^2 seen from
the lowering side) makes the mode sum diverge and raises NonTruncatable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Callable, Sequence, Tuple

from .combinat import set_partitions
from .qseries import (NonTruncatable, Param, Series, _QH, _over_pochhammer,
                      _q, c_term, power, to2)

_ONE = Param(Fraction(1))


def point_inverse(p: Param) -> Param:
    """The point p^(-1), allowing q-shifted p (unlike Param.inverse)."""
    if p.is_zero:
        raise NonTruncatable("inverse of the zero point")
    return Param(1 / p.s, Fraction(-p.d2, 2), Fraction(-p.e2, 2),
                 p.zvar, p.sign)


def _geo(w: Param, N) -> Series:
    """sum_{r in 1/2+Z_+} w^r = w^(1/2)/(1-w) = beta(w) as a truncated
    series, refusing ratios whose mode sum has no truncation."""
    v2 = w.qval2()
    if v2 < 0:
        raise NonTruncatable("mode sum with negatively q-valued ratio")
    if v2 == 0:
        if w.e2:
            raise NonTruncatable("mode sum over a pure charge monomial")
        if w.value_coeff == 1:
            raise NonTruncatable("mode sum has a pole at ratio 1")
    return c_term(w, N)


def _mode_cumulant(t: Param, u: Param, m: int, N) -> Series:
    """sum_{j>=1} j^(m-1) u^j geo(t q^j): the m-th cumulant of
    sum_r n_r t^r, n_r geometric with ratio u q^r, summed over the modes r."""
    out = Series.zero(N)
    if u.is_zero:
        return out
    uv2 = u.qval2()
    if uv2 < 0:
        raise NonTruncatable("mode sum with a negatively q-valued occupancy ratio")
    t2 = to2(N)
    j = 1
    while True:
        w = t * _q(j)
        v2 = w.qval2()
        if v2 < 0:
            raise NonTruncatable("shifted point makes the mode sum diverge")
        if v2 // 2 + j * uv2 > t2:
            return out
        out = out + _geo(w, N) * power(u, j, N).scale(j ** (m - 1))
        j += 1


def _cumulant_sum(base: Series, points: Sequence[Param], N,
                  connected: Callable[[Tuple[int, ...]], Series]) -> Series:
    """base * sum over set partitions M of the points of prod_{G in M} K(G),
    K(G) = connected(G), plus beta(t_k) on the singleton {k}."""
    betas = [c_term(t, N) for t in points]
    cumulants = {}
    total = Series.zero(N)
    for part in set_partitions(range(len(points))):
        term = Series.one(N)
        for G in part:
            if G not in cumulants:
                k = connected(G)
                cumulants[G] = k + betas[G[0]] if len(G) == 1 else k
            term = term * cumulants[G]
        total = total + term
    return base * total


def a_generalized_trace(x: Param, y: Param, points: Sequence[Param], N) -> Series:
    """tr q^{L_0} x^A y^B A(t_1)...A(t_n) over a charged boson pair.

    Agrees with fock.a_generalized_trace for scalar points and additionally
    accepts points with a single q-shift (e.g. q*t).
    """
    base = Series.one(N)
    for p in (x, y):
        base = _over_pochhammer(base, p * _QH)

    def connected(G):
        tG = prod((points[k] for k in G), start=_ONE)
        down = _mode_cumulant(point_inverse(tG), y, len(G), N)
        return _mode_cumulant(tG, x, len(G), N) + down.scale((-1) ** len(G))

    return _cumulant_sum(base, points, N, connected)


def neutral_c_trace(points: Sequence[Param], N) -> Series:
    """tr q^{L_0} C(t_1)...C(t_n) over the neutral boson (level -1/2).

    The operator eigenvalue on occupation table {n_r} is
    sum_r n_r (t^r - t^{-r}) + beta(t); the (t^r - t^{-r}) factors expand
    over sign vectors eps in {+-1}^G.
    """
    def connected(G):
        out = Series.zero(N)
        for eps in product((1, -1), repeat=len(G)):
            t = prod((points[k] if e == 1 else point_inverse(points[k])
                      for k, e in zip(G, eps)), start=_ONE)
            out = out + _mode_cumulant(t, _ONE, len(G), N).scale(prod(eps))
        return out

    return _cumulant_sum(_over_pochhammer(Series.one(N), _QH), points, N,
                         connected)
