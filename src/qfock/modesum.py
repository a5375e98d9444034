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

Each cumulant is one integer sum: its terms j^(|G|-1) u^j (t q^j)^r are
monomials, added as numerators over one denominator, with no Series product
per mode.  A set partition of the points V is a block G holding V's least
point and a set partition of V - G, so _cumulant_sum builds the
set-partition sum as the moment M[V] = sum_G K(G) M[V - G], M[empty] = 1,
with no partition enumerated.  The partition function is
1/((x q^(1/2))_inf (y q^(1/2))_inf), or 1/(q^(1/2))_inf for the neutral
boson.  The set-partition sum (a_cumulant_sum for the charged pair) is
returned undivided, and each trace divides it by those Pochhammer symbols,
one pass per factor (on integer charge codes for the charged pair); a caller
that needs one charge of the charged trace (closedform.qdiff_residual) reads
it from the sum times closedform.pair_vacuum instead.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Callable, Sequence, Tuple

from .qseries import (NonTruncatable, Param, Series, _QH, _over_pochhammer,
                      _pochhammer_chain, _q, _zmul, c_term, point_inverse, to2)

_ONE = Param(Fraction(1))


def _mode_cumulant(t: Param, u: Param, m: int, N) -> Series:
    """sum_{j>=1} j^(m-1) u^j geo(t q^j): the m-th cumulant of
    sum_r n_r t^r, n_r geometric with ratio u q^r, summed over the modes r.

    One integer sum over the terms (j, r), r = r2/2 for odd r2: with
    t = (a/b)^2 q^d z^e and u = sign (a_u/b_u)^2 q^d_u z^e_u, the term
    j^(m-1) u^j (t q^j)^r is j^(m-1) (sign a_u^2)^j b_u^(2(J-j)) a^r2 b^(R-r2)
    over b_u^(2J) b^R, J the last j and R the largest r2 summed.  The first
    step w = t q makes every refusal, since later steps only raise the
    q-valuation of w.  Where w is a scalar (t = (a/b)^2 q^(-1)) its r sum
    has no q-power to stop it and is the closed form ab/(b^2 - a^2), so
    the denominator takes |b^2 - a^2| as well.
    """
    if u.is_zero:
        return Series.zero(N)
    uv2 = u.qval2()
    if uv2 < 0:
        raise NonTruncatable("mode sum with a negatively q-valued occupancy ratio")
    t2 = to2(N)
    w = t * _q(1)
    v2 = w.qval2()
    if v2 < 0:
        raise NonTruncatable("shifted point makes the mode sum diverge")
    if v2 // 2 + uv2 > t2:
        return Series.zero(N)
    if v2 == 0:
        if w.e2:
            raise NonTruncatable("mode sum over a pure charge monomial")
        if w.value_coeff == 1:
            raise NonTruncatable("mode sum has a pole at ratio 1")
    w.pow_monomial(Fraction(1, 2))  # refuses a negative or half-shifted t
    terms = []  # (j, r2, key) of each term below the truncation
    j = 2 if v2 == 0 else 1
    while True:
        step = t.d2 + 2 * j  # doubled q-valuation of t q^j
        q2 = j * uv2 + step // 2
        if q2 > t2:
            break
        uz = ((u.zvar, u.e2 * j),) if u.e2 else ()
        r2 = 1
        while q2 <= t2:
            tz = ((t.zvar, t.e2 * r2 // 2),) if t.e2 else ()
            terms.append((j, r2, (q2, _zmul(uz, tz))))
            r2 += 2
            q2 += step
        j += 1
    J, R = j - 1, max((r2 for _, r2, _ in terms), default=0)
    a, b = t.s.numerator, t.s.denominator
    au, bu = u.sign * u.s.numerator ** 2, u.s.denominator ** 2
    g = b * b - a * a if v2 == 0 else 1
    sg, g = (1, g) if g > 0 else (-1, -g)
    row = [j ** (m - 1) * au ** j * bu ** (J - j) * g for j in range(J + 1)]
    col = {r2: a ** r2 * b ** (R - r2) for r2 in range(1, R + 1, 2)}
    nums = {}
    if v2 == 0:  # the scalar step j = 1: u geo(w) = u ab/(b^2 - a^2)
        key = (uv2, ((u.zvar, u.e2),) if u.e2 else ())
        nums[key] = sg * au * bu ** (J - 1) * a * b ** (R + 1)
    for j, r2, key in terms:
        nums[key] = nums.get(key, 0) + row[j] * col[r2]
    return Series.from_numerators(t2, bu ** J * b ** R * g, nums)


def _cumulant_sum(points: Sequence[Param], N,
                  connected: Callable[[Tuple[int, ...]], Series]) -> Series:
    """The sum over set partitions M of the points of prod_{G in M} K(G),
    K(G) = connected(G) plus beta(t_k) on the singleton {k}: a trace times
    its partition function's inverse.  Built as the moments M[V] (see the
    module docstring) at the full mask and the masks without point 0: each
    K(G) once, and one product per (V, G) with G != V."""
    n, full = len(points), (1 << len(points)) - 1
    betas = [c_term(t, N) for t in points]
    K = {}
    for G in range(1, full + 1):
        block = tuple(k for k in range(n) if G >> k & 1)
        K[G] = connected(block)
        if len(block) == 1:
            K[G] = K[G] + betas[block[0]]
    moments = {0: Series.one(N)}
    for V in range(1, full + 1):
        if V & 1 and V != full:
            continue
        low = V & -V
        rest, total = V ^ low, Series.zero(N)
        for S in range(rest + 1):
            if S & rest == S:
                total = total + (K[low | S] * moments[rest ^ S]
                                 if S != rest else K[V])
        moments[V] = total
    return moments[full]


def a_cumulant_sum(x: Param, y: Param, points: Sequence[Param], N) -> Series:
    """The set-partition sum of a_generalized_trace: that trace times
    (x q^(1/2))_inf (y q^(1/2))_inf."""
    def connected(G):
        tG = prod((points[k] for k in G), start=_ONE)
        down = _mode_cumulant(point_inverse(tG), y, len(G), N)
        return _mode_cumulant(tG, x, len(G), N) + down.scale((-1) ** len(G))

    return _cumulant_sum(points, N, connected)


def a_generalized_trace(x: Param, y: Param, points: Sequence[Param], N) -> Series:
    """tr q^{L_0} x^A y^B A(t_1)...A(t_n) over a charged boson pair.

    Agrees with fock.a_generalized_trace for scalar points and additionally
    accepts points with a single q-shift (e.g. q*t).
    """
    total = a_cumulant_sum(x, y, points, N)
    return _pochhammer_chain(total, (), [(x * _QH, None), (y * _QH, None)])


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

    return _over_pochhammer(_cumulant_sum(points, N, connected), _QH)
