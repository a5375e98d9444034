"""Closed-form evaluations of correlation traces and graded dimensions.

This module implements the explicit formulas that the enumeration oracles in
:mod:`qfock.fock` and :mod:`qfock.modesum` are checked against:

* the level ``-1`` one-point function and its generalized (charge-weighted)
  one- and two-point companions, built from basic hypergeometric series;
* the level ``+1`` charged-sector function expressed through theta-jet
  determinants (``f_bo``), whose sum over the n! orderings of the points is
  read as one sum over chains of point subsets, memoized by point multiset;
* the neutral half-level one-point function;
* graded-dimension formulas for all nine module families;
* the Weyl-group reduction of negative/fractional-level n-point functions to
  level ``+-1`` building blocks, in both the product ("literal") and the
  point-distribution ("assignment") reading;
* the residual of the first-point q-shift difference equations.

Every closed-form Weyl sum (the q-dimensions and both readings of the
duality reduction) is one fold, ``_alternant``, on integer rows of blocks
built before it runs (fock.Rows: boson-pair blocks from the Fock table,
fermion-pair blocks from ``_f_bo_all``'s Rows); it builds one series.
"""

from fractions import Fraction
from itertools import (accumulate, combinations, permutations,
                       product as iter_product)
from math import gcd, lcm, prod
from operator import add, mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import combinat, fock, modesum
from .qseries import (
    CapExceeded,
    DegenerateParameter,
    IllegalPower,
    Param,
    QSeriesError,
    Series,
    _QH,
    _chain,
    _chain_codes,
    _chain_list,
    _factor,
    _inverse_list,
    _one_point_nest,
    _over_pochhammer,
    _pochhammer_chain,
    _pochhammer_factors,
    _product_slices,
    _q,
    _q_factor,
    _qinf_inv,
    _times_pochhammer,
    _theta_sums,
    _zmul,
    beta_scalar,
    c_term,
    pochhammer_inf,
    qhyper,
    to2,
)

F = Fraction

_ZERO = Param(F(0))


def pair_vacuum(x: Param, y: Param, N, s: Optional[Series] = None) -> Series:
    """s/((x q^(1/2))_inf (y q^(1/2))_inf): for s = 1 the pair trace."""
    return _pochhammer_chain(Series.one(N) if s is None else s, (),
                             [(x * _QH, None), (y * _QH, None)])


# -- level -1 one-point function --------------------------------------------


def one_point_minus1(t: Param, N) -> Series:
    """Closed form of the charge-0, level -1 one-point function.

    central * beta(t), central = 2Phi1(0, 0; q; q, q), plus, for each of t
    and 1/t with opposite signs, t^(1/2) times the sum over i >= 1 of
    q^(i-1)/(q)_(i-1)^2 * (3Phi2(0, 0, q; tq^i, q^i; q, q) - 1).

    Term n >= 1 of that 3Phi2 is q^n/((tq^i)_n (q^i)_n).  With m = i+n-1,
    (q)_(i-1) (q^i)_n = (q)_m and (tq^i)_n = (tq)_m/(tq)_(i-1), so the
    double sum is sum_(m>=1) q^m S_m/((q)_m (tq)_m) with
    S_m = sum_(j<m) (tq)_j/(q)_j: one integer-list Horner nest
    X <- q (S_m + X)/((1 - q^m)(1 - tq^m)), m = floor(N), ..., 1, each S_m
    kept to q^(N-m) (qseries._one_point_nest), for each of t and 1/t.
    """
    if t.is_zero:
        raise DegenerateParameter("one-point function at the zero parameter")
    out = qhyper([_ZERO, _ZERO], [_q()], _q(), N)
    c_term(t, N)  # refuses t = 1 and a negative, charged or half-shifted t
    points = ((t, 1), (t.inverse(), -1))  # refuses a q-shifted t
    out = out.scale(beta_scalar(t))
    for tt, sgn in points:
        out = out + _one_point_nest(_factor(tt), to2(N)).scale(
            sgn * tt.scalar_pow(F(1, 2)))
    return out


# -- generalized one-point function ------------------------------------------


def partition_ladder_closed(x: Param, t: Param, N) -> Series:
    """The ladder sum that verify.partition_ladder_sum enumerates, closed:
    x (tq)^(1/2) (xtq^(3/2))_inf / ((1-xq^(1/2)) (tq)_inf (xq^(1/2))_inf)
    * 2Phi2(xq^(1/2), xq^(1/2); xq^(3/2), xtq^(3/2); tq^2)."""
    q32, tq = _q(F(3, 2)), t * _q()
    (cx, qx, zx), (ct, qt, zt) = x.pow_monomial(1), tq.pow_monomial(F(1, 2))
    phi = qhyper([x * _QH, x * _QH], [x * q32, x * t * q32], t * _q(2), N)
    # times x (tq)^(1/2), one monomial, at the truncation of their product
    phi = _chain_codes(phi, (), (), (*(cx * ct).as_integer_ratio(), qx + qt,
                                     _zmul(zx, zt)), to2(N) + min(qx, qt))
    return _pochhammer_chain(phi, [(x * t * q32, None)],
                             [(x * _QH, 1), (tq, None), (x * _QH, None)])


def omega(x: Param, y: Param, t: Param, N) -> Series:
    """The closed ladder sum divided by the extra (y q^(1/2))_inf factor."""
    return _over_pochhammer(partition_ladder_closed(x, t, N), y * _QH)


def generalized_one_point(x: Param, y: Param, t: Param, N) -> Series:
    """Closed form of the charge-weighted level -1 one-point trace:
    beta(t)/((xq^(1/2))_inf (yq^(1/2))_inf) + omega(x,y,t) - omega(y,x,1/t)."""
    central = pair_vacuum(x, y, N, c_term(t, N))
    return central + omega(x, y, t, N) - omega(y, x, t.inverse(), N)


# -- generalized two-point function ------------------------------------------


def gamma_bar(x: Param, t1: Param, t2: Param, N) -> Series:
    """The double-ladder closed sum:
    x^2 q t1 t2 (xq^(3/2)t1)_inf / ((1-xq^(1/2))^2 (xq^(1/2))_inf (qt1)_inf)
    * sum_s (xq^(1/2))_s^3 (-q^3 t1 t2)^s q^(s(s-1)/2)
            / ((xq^(3/2)t1)_s (q)_s (xq^(3/2))_s^2)
      * 3Phi2(1/t2, xq^(s+1/2), xq^(s+1/2);
              xq^(s+3/2), xq^(s+3/2)t1; q^2 t1 t2)."""
    n2 = to2(N)
    q32 = _q(F(3, 2))
    pref_scalar = x.scalar_pow(2) * t1.scalar_pow(1) * t2.scalar_pow(1)
    t2i = t2.inverse()
    arg = t1 * t2 * _q(2)
    acc = Series.zero(N)
    s = 0
    while 6 * s + s * (s - 1) <= n2:
        a = x * _q(s + F(1, 2))
        d = x * _q(s + F(3, 2))
        e = x * t1 * _q(s + F(3, 2))
        # structural type-II property: d*e/(a*b*c) equals the argument
        _assert_same_monomial(d * e, t2i * a * a * arg)
        phi = qhyper([t2i, a, a], [d, e], arg, N).scale(
            ((-1) ** s) * (t1.scalar_pow(s) * t2.scalar_pow(s)))
        term = _chain(phi, _pochhammer_factors(x * _QH, s, n2) * 3,
                      [f for b in (x * t1 * q32, _q(), x * q32, x * q32)
                       for f in _pochhammer_factors(b, s, n2)])
        acc = acc + term.shift(3 * s + s * (s - 1) // 2).truncate(N)
        s += 1
    return _pochhammer_chain(acc.scale(pref_scalar).shift(1),
                             [(x * t1 * q32, None)],
                             [(x * _QH, 1), (x * _QH, 1), (x * _QH, None),
                              (t1 * _q(), None)]).truncate(N)


def _assert_same_monomial(p: Param, r: Param) -> None:
    if (p.s, p.d2, p.e2, p.sign) != (r.s, r.d2, r.e2, r.sign):
        raise QSeriesError("inner 3Phi2 is not balanced as expected")


def gamma_sym(x: Param, y: Param, t1: Param, t2: Param, N) -> Series:
    """(t1 t2)^(-1/2)/(yq^(1/2))_inf * (gamma_bar(x,t1,t2)+gamma_bar(x,t2,t1))."""
    c, _, _ = (t1 * t2).pow_monomial(F(-1, 2))  # refuses before gamma_bar
    return _over_pochhammer((gamma_bar(x, t1, t2, N)
                             + gamma_bar(x, t2, t1, N)).scale(c), y * _QH)


def generalized_two_point(x: Param, y: Param, t1: Param, t2: Param, N) -> Series:
    """Closed form of the charge-weighted level -1 two-point trace
    (eight terms in gamma_sym and omega)."""
    t12 = t1 * t2
    if t12.d2 == 0 and t12.e2 == 0 and t12.sign == 1 and t12.value_coeff == 1:
        raise DegenerateParameter("two-point closed form needs t1*t2 != 1")
    t1i, t2i = t1.inverse(), t2.inverse()
    pxy = _times_pochhammer(pochhammer_inf(x * _QH, N), y * _QH)
    out = gamma_sym(x, y, t1, t2, N) + gamma_sym(y, x, t1i, t2i, N)
    out = out + omega(x, y, t1 * t2, N) + omega(y, x, t1i * t2i, N)
    # the x-side ladders L(t_j) and y-side ladders M(t_j), each built once;
    # c_term refuses t_j with its own message, then beta(t_j) is a scalar
    L2, M2, _ = omega(x, y, t2, N), omega(y, x, t2i, N), c_term(t1, N)
    out = out + (L2 - M2).scale(beta_scalar(t1))
    L1, M1, _ = omega(x, y, t1, N), omega(y, x, t1i, N), c_term(t2, N)
    out = out + (L1 - M1).scale(beta_scalar(t2))
    # cross products pair an x-side ladder at t_j with a y-side ladder at the
    # other inverted point: L(t1)M(t2) + L(t2)M(t1)
    out = out - pxy * (L1 * M2 + L2 * M1)
    return out + pair_vacuum(x, y, N).scale(beta_scalar(t1) * beta_scalar(t2))


# -- level +1 sector functions via theta-jet determinants --------------------


F_BO_CAP = 4


def f_bo(points: Sequence[Param], N) -> Series:
    """Bloch-Okounkov's permutation sum of theta-jet determinants,

    1/(q)_inf * sum_{sigma in S_n}
        det( Theta^(j-i+1)(P_(n-j)) / (j-i+1)! )_{i,j=1..n}
        / (Theta(P_1) ... Theta(P_n)),

    where P_m is the product of the first m sigma-ordered points (P_0 = 1)
    and entries with j - i + 1 < 0 vanish; evaluated by _f_bo_all as one
    sum over chains of point subsets, not over the n! orderings.
    """
    return fock.row_series(to2(N), _f_bo_all([points], N)[0])


def _convolve(xs: list, ys: list, top: int) -> list:
    """xs * ys as integer lists by powers of q, to q^top (len(ys) > top)."""
    out = [0] * (top + 1)
    for i, x in enumerate(xs[:top + 1]):
        if x:
            out[i:] = map(add, out[i:], [x * y for y in ys[:top + 1 - i]])
    return out


def _f_bo_all(point_lists: Sequence[Sequence[Param]], N) -> List[fock.Row]:
    """[f_bo(points, N) for points in point_lists] as fock.Rows to q^N,
    from one table over point subsets shared by the batch: the eps-signed
    subsets of one duality reduction are subsets of one another.

    Dividing column j < n of the Hessenberg matrix by its subdiagonal entry
    Theta(P_(n-j)) leaves a unit subdiagonal and entries h(B, k) =
    S_k(prod B)/S_0(prod B) ((q)_inf^(-3) cancels), B the first n - j
    sigma-ordered points, h(empty, k) = S_k(1).  Expanded from its trailing
    corner, the determinant is a sum over the chains empty = B_0 < ... <
    B_r = all points of prod_i (-1)^(k_i - 1) h(B_(i-1), k_i),
    k_i = |B_i| - |B_(i-1)|, shared by k_1! ... k_r! orderings sigma.  With
    _theta_sums' S_k = R_k / (D 2^k k!), the sum over sigma, over
    D(prod all) (q)_inf, is X[all points] for X[empty] = 1/(q)_inf and
    X[C] R_0(prod C) = sum_(B < C) (-1)^(k-1) R_k(prod B) X[B] / 2^k,
    k = |C| - |B|.  Each X is one integer list over one denominator, with
    one gcd: a list product per (multiset, k), a sum over the lcm, and a
    product by 1/R_0 (qseries._inverse_list) per multiset.  R_k(P) starts
    at q^(-d^2/2) and X[C] at q^(d^2/2), for P = (a/b)^2 q^d the product,
    so lists of q^0 .. q^floor(N) are exact.  X and the terms are memoized
    for the batch by the sorted ids of the sets' point keys, not by
    product (sets with one product can differ).

    Refusals come list by list, each before the list's first product: a
    list over F_BO_CAP points, then for each ordering sigma in turn the sums
    at P_1, ..., P_(n-1) (a point theta refuses) and then 1/S_0 at P_1,
    ..., P_n (a partial product at a zero of Theta, 1 or q^(+-1)).
    """
    N2, top = to2(N), max(to2(N) // 2, 0)
    qinf_inv = _chain_list([1] + [0] * top, (),
                           [(1, 1, d, ()) for d in range(1, top + 1)])[0]
    order = max(map(len, point_lists), default=0)
    one = Param(F(1))
    # a point or partial product is read by an int id of its scalar key,
    # a subset by the sorted ids of its points
    ids, sums, inverses = {}, {}, {}

    def ident(p: Param) -> int:
        return ids.setdefault((p.s, p.d2, p.e2, p.zvar, p.sign), len(ids))

    def sums_at(i: int, p: Param) -> Tuple[int, int, List[list]]:
        if i not in sums:
            sums[i] = _theta_sums(p, order, N)
        return sums[i]

    def inverse(i: int, p: Param) -> Tuple[list, int]:
        if i not in inverses:
            if p.d2 in (-2, 0, 2) and not p.e2 and p.sign == 1 \
                    and p.s in (1, -1):
                raise DegenerateParameter(
                    "theta vanishes at a partial product equal to 1 or "
                    "q^(+-1)")
            inverses[i] = _inverse_list(sums_at(i, p)[2][0][:top + 1])
        return inverses[i]

    # a subset's sorted point ids -> (its product's id, the product)
    known = {(): (ident(one), one)}
    out, X, terms = [], {(): (1, qinf_inv)}, {}
    for points in point_lists:
        n = len(points)
        if n > F_BO_CAP:
            raise CapExceeded("f_bo limited to %d points" % F_BO_CAP)
        sets = [()]
        for p in points:
            i = ident(p)
            for s in list(sets):
                grown = tuple(sorted(s + (i,)))
                if grown not in known:
                    r = known[s][1] * p
                    known[grown] = (ident(r), r)
                sets.append(grown)
        at = [known[s] for s in sets]
        for sigma in permutations([1 << j for j in range(n)]):
            prefix = list(accumulate(sigma))  # the masks of P_1, ..., P_n
            for m in prefix[:-1]:
                sums_at(*at[m])
            for m in prefix:
                inverse(*at[m])
        for C in range(1, 1 << n):  # every proper subset B of C comes first
            if sets[C] in X:
                continue
            parts, B = [], C
            while B:
                B = (B - 1) & C
                k = C.bit_count() - B.bit_count()
                if (sets[B], k) not in terms:
                    den, xs = X[sets[B]]
                    terms[sets[B], k] = den, _convolve(
                        sums_at(*at[B])[2][k], xs, top)
                den, T = terms[sets[B], k]
                parts.append(((-1) ** (k - 1), den << k, T))
            w = lcm(*[den for _, den, _ in parts])
            fs = [s * (w // den) for s, den, _ in parts]
            G, g = inverse(*at[C])
            row = _convolve([sum(map(mul, fs, col)) for col in zip(
                *[T for _, _, T in parts])], G, top)
            r = gcd(w * g, *row)
            X[sets[C]] = w * g // r, [c // r for c in row]
        den, row = X[sets[-1]]
        D = sums_at(*at[-1])[1] if n else 1
        r, v2 = gcd(den, D), (at[-1][1].d2 // 2) ** 2  # a reduced row
        out.append((den // r, [(v2 + 2 * i, D // r * c)
                               for i, c in enumerate(row)
                               if c and v2 + 2 * i <= N2]))
    return out


def level1_sector(k: int, points: Sequence[Param], N) -> Series:
    """q^(k^2/2) (t1...tn)^k * f_bo(points): the charge-k level +1 trace."""
    (den, pairs), = _f_bo_all([points], N)
    c = prod(points, start=Param(F(1))).scalar_pow(k)
    return fock.row_series(to2(N) + k * k, (den * c.denominator, [
        (q2 + k * k, c.numerator * x) for q2, x in pairs]))


# -- neutral half-level one-point function -----------------------------------


def c_one_point_half(t: Param, N) -> Series:
    """Closed form of the neutral level -1/2 one-point function:
    beta(t)/(q^(1/2))_inf plus, for t and 1/t with signs -/+,
    1/((q^(1/2))_inf (1-q^(-1/2))) * t^(1/2)(tq^(3/2))_inf/(tq)_inf
    * 2Phi2(q^(1/2), q^(1/2); q^(3/2), tq^(3/2); q^2 t), each one chain on
    its 2Phi2, using 1/(1-q^(-1/2)) = -q^(1/2)/(1-q^(1/2))."""
    if t.is_zero:
        raise DegenerateParameter("one-point function at the zero parameter")
    out = _over_pochhammer(c_term(t, N), _QH)
    q32 = _q(F(3, 2))
    for tt, sgn in ((t, -1), (t.inverse(), 1)):
        phi = qhyper([_QH, _QH], [q32, tt * q32], tt * _q(2), N)
        out = out + _pochhammer_chain(
            phi.shift(F(1, 2)).scale(-sgn * tt.scalar_pow(F(1, 2))),
            [(tt * q32, None)], [(tt * _q(), None), (_QH, None), (_QH, 1)])
    return out


# -- level -1 sector functions for the difference-operator algebras ----------


def _eps_signed(points: Sequence[Param], U: int):
    """(eps_1...eps_n, M, eps-inverted points of mask U in position order)
    for every eps in {+-1}^U; M takes bit j for t_j, bit n + j for 1/t_j."""
    n = len(points)
    out = [(1, 0, ())]
    for j, p in enumerate(points):
        if U >> j & 1:
            pi = p.inverse()
            out = [row for s, M, pts in out
                   for row in ((s, M | 1 << j, pts + (p,)),
                               (-s, M | 1 << n + j, pts + (pi,)))]
    return out


def _signed_sum(terms) -> fock.Row:
    """The Row sum of c * row over the (c, row) in `terms`, c an int or a
    Fraction, over the lcm of the denominators: no gcd and no series."""
    den = lcm(*[c.denominator * d for c, (d, _) in terms])
    acc: Dict[int, int] = {}
    for c, (d, pairs) in terms:
        f = c.numerator * (den // (c.denominator * d))
        for q2, x in pairs:
            acc[q2] = acc.get(q2, 0) + f * x
    return den, sorted((q2, x) for q2, x in acc.items() if x)


def c_sector_minus1(m: int, points: Sequence[Param], N) -> Series:
    """Charge-|m| slice of the signed difference expansion: sum over
    eps in {+-1}^n of eps_1...eps_n times the charge-|m| trace at the
    eps-inverted points, that is the charge-|m| trace of prod_j C(t_j)."""
    m, N2 = abs(m), to2(N)
    return fock.row_series(N2, fock.a_sector_rows(points, N2, [m], "C")[m][-1])


def d_sector_minus1(m: int, points: Sequence[Param], N) -> Series:
    """Difference of the signed slices at |m| and |m+2| (the level -1
    building block of the type-D reductions).  The slice generating
    function is even in the charge, so negative m extends by
    d(-1) = 0 and d(-k-2) = -d(k)."""
    a, b, N2 = abs(m), abs(m + 2), to2(N)
    rows = fock.a_sector_rows(points, N2, [a, b], "D")
    return fock.row_series(N2, _signed_sum([(1, rows[a][-1]),
                                            (-1, rows[b][-1])]))


# -- graded dimensions -------------------------------------------------------


def _charged_qdim_sum(k: int, n2: int) -> fock.Row:
    """sum_{m>=0} (-1)^m q^(m(m+1)/2 + |k|(m+1/2)) to the doubled order n2,
    as a Row over 1."""
    k, pairs, m = abs(k), [], 0
    while (e2 := m * (m + 1) + k * (2 * m + 1)) <= n2:
        pairs.append((e2, (-1) ** m))
        m += 1
    return 1, pairs


def charged_qdim_base(k: int, N) -> Series:
    """1/(q)_inf^2 * sum_{m>=0} (-1)^m q^(m(m+1)/2 + |k|(m+1/2))."""
    n2 = to2(N)
    return fock.row_series(n2, _charged_qdim_sum(k, n2)) * _qinf_inv(n2, 2)


def _normalize_label(lam, l: int, allow_negative: bool):
    lam = tuple(int(v) for v in lam)
    if len(lam) > l:
        raise IllegalPower("label longer than the rank %d" % l)
    if not allow_negative and any(v < 0 for v in lam):
        raise IllegalPower("label entries must be nonnegative here")
    if allow_negative and len(lam) != l:
        raise IllegalPower("depth-%d labels must list all %d entries" % (l, l))
    lam = lam + (0,) * (l - len(lam))
    if any(lam[i] < lam[i + 1] for i in range(l - 1)):
        raise IllegalPower("label entries must be non-increasing")
    return lam


def _add_product(acc: dict, key, den: int, xs, ys, sign: int,
                 N2: int) -> None:
    """acc[key] += sign * xs * ys / den, truncated at q^N, for rows xs and
    ys of (q2, numerator) pairs: acc maps keys to [den, dense numerator
    list by q2].  acc[key] is rescaled to the lcm of the two denominators
    only when they differ."""
    got = acc.get(key)
    if got is None:
        out = [0] * (N2 + 1)
        acc[key] = [den, out]
    elif got[0] == den:
        out = got[1]
    else:
        d = lcm(got[0], den)
        out = [v * (d // got[0]) for v in got[1]]
        acc[key] = [d, out]
        sign *= d // den
    for x2, a in xs:
        a, lim = sign * a, N2 - x2
        for y2, b in ys:
            if y2 > lim:
                break
            out[x2 + y2] += a * b


def _alternant(inst: "DualityInstance", rows, blocks, N, n: int = 0,
               tail=None) -> Series:
    """sum_w sgn(w) sum_(S_1, ..., S_l) prod_i blocks[k_i(w)][S_i], with
    k(w) = lam + rho - w rho over the Weyl group of ``inst``, and the S_i
    disjoint point masks that together hold all n points; with ``tail``, a
    list by point mask, they may leave a mask R and the term is multiplied
    by tail[R].  ``blocks`` maps every weight k the rows read to a list by
    point mask.  At n = 0 this is the plain alternant
    sum_w sgn(w) prod_i blocks[k_i(w)][0].

    Every entry, of ``blocks`` and of ``tail``, is a fock.Row to q^N,
    built before the fold runs and read as it is.

    Expanded row by row like a determinant: row i takes a free column j
    and, outside type A, a sign s, then a subset S of the points not yet
    used, reads blocks[lam_i + rho_i - s rho_j][S] and is signed by s and
    the parity of the used columns above j; ``rows`` is
    _row_shifts(inst, lam), built once per caller.  A state is (used
    columns, for type D the parity of the s = -1 taken, used point mask P)
    and holds one integer row by q-exponent over one denominator.  Type D
    keeps the even states, and without a tail the last row takes every
    point left, so the work is about l 2^l 3^n row convolutions, each
    stopping at q^N, not |W| l (factors)^n.

    Boson-pair entries at mask S lie over scale prod_(j in S) dens_j
    (fock.a_sector_rows), so every term of a state with mask P lies over
    one denominator and no merge (_add_product) rescales; fermion-pair
    entries, over the lcm of their f_bo rows' denominators, may.  One
    series is built, at the end.
    """
    l = inst.l
    N2 = to2(N)
    full = (1 << n) - 1
    states = {(0, 0, 0): [1, [1] + [0] * N2]}  # the empty product, 1
    for i, shifts in enumerate(rows):
        last = i == l - 1
        nxt: Dict[tuple, list] = {}
        for (used, odd, P), (den, row) in states.items():
            xs = [(q2, c) for q2, c in enumerate(row) if c]
            if not xs:
                continue
            free = full ^ P
            for j, s, k in shifts:
                flip = inst.weyl == "D" and s < 0
                if used >> j & 1 or last and odd ^ flip:
                    continue
                sign = -1 if (bin(used >> j).count("1") + (s < 0)) % 2 else 1
                entries, S = blocks[k], free
                while True:  # every S within the free points, or all of them
                    eden, ys = entries[S]
                    if ys:
                        _add_product(nxt, (used | 1 << j, odd ^ flip, P | S),
                                     den * eden, xs, ys, sign, N2)
                    if not S or last and tail is None:
                        break
                    S = (S - 1) & free
        states = nxt
    out: dict = {}
    for (_, _, P), (den, row) in states.items():  # every column used, even
        xs = [(q2, c) for q2, c in enumerate(row) if c]
        tden, ys = (1, [(0, 1)]) if tail is None else tail[full ^ P]
        _add_product(out, None, den * tden, xs, ys, 1, N2)
    den, row = out.get(None, (1, []))
    return Series.from_numerators(N2, den, {(q2, ()): c
                                            for q2, c in enumerate(row)})


def _row_shifts(inst: "DualityInstance", lam):
    """Row by row, the (column j, sign s, k = lam_i + rho_i - s rho_j) that
    ``_alternant`` reads its entries at, from rho in doubled ints (rho_i and
    rho_j are both integers or both half-integers).  A rank over
    combinat.WEYL_CAP is refused here, before any entry is built."""
    if inst.l > combinat.WEYL_CAP:
        raise CapExceeded("Weyl rank %d exceeds cap %d"
                          % (inst.l, combinat.WEYL_CAP))
    rho2 = [to2(r) for r in inst.rho]
    signs = (1,) if inst.weyl == "A" else (1, -1)
    return [[(j, s, lam[i] + (rho2[i] - s * rho2[j]) // 2)
             for j in range(inst.l) for s in signs] for i in range(inst.l)]


def _row_charges(rows) -> set:
    """The distinct weights k that the rows of _row_shifts read."""
    return {k for row in rows for _, _, k in row}


def qdim_closed(algebra: str, level, label, N, form: str = "weyl") -> Series:
    """Graded dimension of the module with the given algebra, level (integer
    or half-integer, as Fraction or string) and highest-weight label, from
    the displayed Weyl-sum formulas of the family ``module_instance`` finds.

    For algebra 'c' at positive half-integer level, ``form`` selects the
    Weyl-sum ("weyl") or hook-style product ("product") expression; every
    other family has the Weyl sum only.

    Each term of the Weyl sum is a product of l level +-1 bases,
    (q)_inf^(-1) q^(k^2/2) per fermion pair or (q)_inf^(-2)
    _charged_qdim_sum(k) per boson pair: the alternant folds the numerators
    and the power of (q)_inf is taken once.  For type d the sign flips act
    on charge slices even in k and generate the slice differences of the
    rank-one type-d function (at l=1 the sum is
    charged_qdim_base(k) - charged_qdim_base(k+2)).
    """
    inst = module_instance(algebra, level)
    fermion, l = inst.factors[0] == "fermion_pair", inst.l
    if form != "weyl" and not fermion:
        raise IllegalPower("form %r exists only for type c at positive "
                           "half-integer levels" % form)
    lam = _normalize_label(label, l, inst.allow_negative_label)
    if form == "weyl":
        rows, n2 = _row_shifts(inst, lam), to2(N)
        # q^(k^2/2): one numerator 1 at the doubled exponent k^2 <= 2N
        wsum = _alternant(inst, rows, {
            k: [(1, [(k * k, 1)] if k * k <= n2 else []) if fermion
                else _charged_qdim_sum(k, n2)]
            for k in _row_charges(rows)}, N)
    elif form == "product":
        # prod_i (1 - q^(lam_i + l - i - 1/2)) prod_(i<j) (1 - q^(lam_i - lam_j
        # + j - i)) (1 - q^(lam_i + lam_j + 2l - i - j - 1)), doubled exponents
        d2s = [2 * (lam[i] + l - i) - 1 for i in range(l)]
        for i in range(l):
            for j in range(i + 1, l):
                d2s += (2 * (lam[i] - lam[j] + j - i),
                        2 * (lam[i] + lam[j] + 2 * l - i - j - 1))
        wsum = _chain(Series.monomial(1, F(sum(v * v for v in lam), 2), N),
                      [_q_factor(d2) for d2 in d2s])
    else:
        raise IllegalPower("unknown form %r" % form)
    wsum = wsum * _qinf_inv(to2(N), l if fermion else 2 * l)
    if inst.neutral_factor is None:
        return wsum
    # times the neutral factor's graded dimension: 1/(q^(1/2))_inf for the
    # boson, (-q^(1/2))_inf for the fermion
    if inst.factors[inst.neutral_factor] == "boson_neutral":
        return _over_pochhammer(wsum, _QH)
    return _times_pochhammer(wsum, Param(F(1), F(1, 2), sign=-1))


# -- duality reduction -------------------------------------------------------


class DualityInstance(NamedTuple):
    """One commuting-pair setup: a tensor product of Fock factors carrying a
    finite-dimensional group action, with the Weyl data used to reduce its
    labeled traces to level +-1 blocks."""

    algebra: str            # 'a', 'c' or 'd'
    level: F                # total central charge of the factors
    l: int                  # rank of the finite-dimensional side
    factors: Tuple[str, ...]
    op_tag: str
    weyl: str               # 'A', 'BC' or 'D'
    rho_kind: str           # 'A', 'B' or 'C'

    @property
    def neutral_factor(self) -> Optional[int]:
        for i, k in enumerate(self.factors):
            if k not in fock.CHARGED:
                return i
        return None

    @property
    def rho(self):
        return combinat.rho_vector(self.rho_kind, self.l)

    @property
    def allow_negative_label(self) -> bool:
        return self.algebra == "a"


# (algebra, level pattern) -> (charged pair kind, operator, Weyl type,
# rho kind, neutral kind or None).  The family at rank l has l pairs and the
# neutral factor, and its level is the sum of their central charges.
_FAMILIES = {
    ("a", "-l"): ("boson_pair", "A", "A", "A", None),
    ("c", "l-1/2"): ("fermion_pair", "C", "BC", "B", "boson_neutral"),
    ("c", "-l"): ("boson_pair", "C", "D", "A", None),
    ("c", "-l-1/2"): ("boson_pair", "C", "BC", "B", "boson_neutral"),
    ("d", "-l"): ("boson_pair", "D", "BC", "C", None),
    ("d", "-l+1/2"): ("boson_pair", "D", "BC", "B", "fermion_neutral"),
}


def duality_instance(algebra: str, family: str, l: int) -> DualityInstance:
    """Build one of the six supported commuting-pair instances.  ``family``
    names the level pattern: '-l', 'l-1/2', '-l-1/2' or '-l+1/2'."""
    key = (algebra, family)
    if key not in _FAMILIES:
        raise IllegalPower("unknown duality family %r" % (key,))
    if l < 1:
        raise IllegalPower("rank must be at least 1")
    kind, op_tag, weyl, rho_kind, neutral = _FAMILIES[key]
    factors = (kind,) * l + ((neutral,) if neutral else ())
    level = sum((fock.CENTRAL_CHARGE[k] for k in factors), F(0))
    return DualityInstance(algebra=algebra, level=level, l=l,
                           factors=factors, op_tag=op_tag, weyl=weyl,
                           rho_kind=rho_kind)


def module_instance(algebra: str, level) -> DualityInstance:
    """The instance realizing the module of ``algebra`` at ``level``: the
    family whose rank l = (level - c_neutral) / c_pair, from the central
    charges of its neutral factor and charged pair, is an integer >= 1.  The
    families of one algebra differ in the sign or parity of their levels, so
    at most one qualifies; with none, the level is refused."""
    level = F(level)
    for (alg, family), (kind, _, _, _, neutral) in _FAMILIES.items():
        if alg != algebra:
            continue
        c_neutral = fock.CENTRAL_CHARGE[neutral] if neutral else 0
        l = (level - c_neutral) / fock.CENTRAL_CHARGE[kind]
        if l.denominator == 1 and l >= 1:
            return duality_instance(algebra, family, int(l))
    raise IllegalPower("level %s is not realized for algebra %r"
                       % (level, algebra))


def _charged_blocks(inst: DualityInstance, charges, points: Sequence[Param],
                    N) -> Dict[int, List[fock.Row]]:
    """{k: [level +-1 block at shifted weight k, read at the points of
    mask U, for every point mask U]} for k in `charges`, each a fock.Row
    for ``_alternant``.

    A boson pair reads one Fock table, fock.a_sector_rows under its own
    operator at the n points: the A rule for type a, and for types c and d
    the C rule, whose rows are the eps-signed sums of A-operator traces at
    the eps-inverted points.  The block at U lies over
    prod_(j in U) dens_j, with no gcd taken.  A fermion pair reads one
    f_bo Row per eps-signed subset, from one batch, and its block is
    q^(k^2/2) sum_M s (prod of M's t)^k times the Row at M (see
    level1_sector), one _signed_sum."""
    if inst.factors[0] == "fermion_pair":
        signed = [_eps_signed(points, U) for U in range(1 << len(points))]
        subsets = {M: pts for row in signed for _, M, pts in row}
        bases = dict(zip(subsets, _f_bo_all(list(subsets.values()), N)))
        vals = [p.value_coeff for p in points]
        vals += [1 / v for v in vals]  # bit j of M: t_j, bit n + j: 1/t_j
        tprods = {M: prod((v for j, v in enumerate(vals) if M >> j & 1),
                          start=F(1)) for M in subsets}
        out = {k: [] for k in charges}
        for k, row in iter_product(charges, signed):
            den, pairs = _signed_sum([(s * tprods[M] ** k, bases[M])
                                      for s, M, _ in row])
            out[k].append((den, [(q2 + k * k, x) for q2, x in pairs
                                 if q2 + k * k <= to2(N)]))
        return out
    # types c and d read the slice at |k|: the C rule's slices are even in
    # the charge (see qdim_closed), which the oracle does not assume
    at = {k: abs(k) if inst.op_tag != "A" else k for k in charges}
    table = fock.a_sector_rows(points, to2(N), set(at.values()), inst.op_tag)
    return {k: table[m] for k, m in at.items()}


def duality_reduce(inst: DualityInstance, label, points: Sequence[Param],
                   N, mode: str = "assignment") -> Series:
    """Weyl-group reduction of the labeled trace to level +-1 blocks.

    ``mode='literal'`` renders the printed product formula: each factor's
    block is evaluated at the full point list (with the neutral prefactor,
    where present, also at the full list).  ``mode='assignment'`` distributes
    the n commuting operators over the factors: the sum over the ways to
    split the points into one subset per factor, each factor's block read at
    its own subset (a factor receiving no point contributes its graded
    dimension/plain trace).  ``_alternant`` folds that split into its rows,
    one point mask per state, so no map from points to factors is
    enumerated.
    """
    if mode not in ("literal", "assignment"):
        raise IllegalPower("unknown mode %r" % mode)
    lam = _normalize_label(label, inst.l, inst.allow_negative_label)
    # the oracle's refusals, so every mode of a request refuses alike
    fock.check_duality(inst.factors, inst.op_tag, points)
    n = len(points)
    full = (1 << n) - 1
    neutral = inst.neutral_factor
    # every block the alternant reads, built before it runs
    rows = _row_shifts(inst, lam)
    blocks = _charged_blocks(inst, _row_charges(rows), points, N)
    tail = None if neutral is None else fock._neutral_rows(
        inst.factors[neutral], points, to2(N))
    if mode == "literal":  # the full-mask blocks and tail, folded point-free
        blocks = {k: [rs[full]] for k, rs in blocks.items()}
        tail = None if tail is None else [tail[full]]
        n = 0
    return _alternant(inst, rows, blocks, N, n, tail)


def _weyl_shifts(wtype: str, rho, lam) -> Dict[tuple, int]:
    """{doubled lam + rho - w rho: sum of sgn(w)} over the Weyl group, with
    the keys whose signs cancel left out."""
    shifts: Dict[tuple, int] = {}
    for elem, sgn in combinat.weyl_group(wtype, len(rho)):
        key = tuple(2 * k for k in combinat.k_vector(lam, elem, rho))
        shifts[key] = shifts.get(key, 0) + sgn
    return {key: sgn for key, sgn in shifts.items() if sgn}


def extract_dominant(inst: DualityInstance, label,
                     points: Sequence[Param], N) -> Series:
    """The labeled trace sum_w sgn(w) [z^(lam+rho-w rho)] of the
    multi-factor oracle, read one factor at a time by
    ``fock.duality_trace`` (``weyl_extract`` reads the same sum from a
    product of z-carrying series)."""
    lam = _normalize_label(label, inst.l, inst.allow_negative_label)
    # the oracle's refusals come before the Weyl group is enumerated
    fock.check_duality(inst.factors, inst.op_tag, points)
    return fock.duality_trace(inst.factors, inst.op_tag, points, N,
                              _weyl_shifts(inst.weyl, inst.rho, lam))


def weyl_extract(a: Series, b: Series, wtype: str, rho, lam) -> Series:
    """sum_w sgn(w) [z^(lam+rho-w rho)](a * b): the coefficient of
    prod_i z_i^((lam+rho)_i) in a * b times the alternating Weyl z-sum
    sum_w sgn(w) z^(w rho), read by _product_slices, so no other slice of
    a * b is built.  Variables beyond z_l stay in the result, and its
    truncation is the product's; with a = Series.one(N) it reads one
    series b, to min(b.trunc2, 2N + b.min2)."""
    return _product_slices(a, b, len(rho), _weyl_shifts(wtype, rho, lam))


# -- first-point q-shift difference equations --------------------------------


def _a_trace_z1(x: Param, y: Param, points: Sequence[Param], N) -> Series:
    """The z_1^1 slice of modesum.a_generalized_trace(x, y, points, N): the
    slice of its set-partition sum times pair_vacuum(x, y, N), which pairs
    only the charges that sum to 1.  The truncation is the trace's while
    the sum has no negative q-power, as at the points of qdiff_residual."""
    return _product_slices(modesum.a_cumulant_sum(x, y, points, N),
                           pair_vacuum(x, y, N), 1, {(2,): 1})


def qdiff_residual(algebra: str, points: Sequence[Param], N) -> Series:
    """Residual (left minus right side) of the q-shift difference equation
    for the first point.

    For the charged algebra ('a') the left side is the charge +1 slice of the
    mode-resummed generalized trace at the shifted first point (_a_trace_z1,
    which builds no other charge of the trace), and the right
    side is sum_{s>=0} (-1)^s over merges of the first point with s of the
    others, of the charge-0 function at the merged point list.

    For the neutral algebra ('c') the left side is the half-level trace at
    the shifted first point and the right side carries an extra sign-vector
    sum: (-1)^(s + #negative) over merges by t_1 * prod t_i^(+-1).
    """
    n = len(points)
    if n < 1:
        raise IllegalPower("the difference equation needs at least one point")
    shifted = [points[0].qshift(1)] + list(points[1:])
    rhs = Series.zero(N)
    if algebra == "a":
        x = Param(F(1), 0, -1, zvar=1)
        y = Param(F(1), 0, 1, zvar=1)
        lhs = _a_trace_z1(x, y, shifted, N)
        for s in range(n):
            for comb in combinations(range(1, n), s):
                merged = prod((points[i] for i in comb), start=points[0])
                rest = [points[i] for i in range(1, n) if i not in comb]
                rhs = rhs + fock.a_sector_trace(
                    0, [merged] + rest, N).scale((-1) ** s)
        return lhs - rhs
    if algebra == "c":
        lhs = modesum.neutral_c_trace(shifted, N)
        for s in range(n):
            for comb in combinations(range(1, n), s):
                rest = [points[i] for i in range(1, n) if i not in comb]
                for eps in iter_product((1, -1), repeat=s):
                    merged = prod((points[i] if e == 1 else points[i].inverse()
                                   for i, e in zip(comb, eps)),
                                  start=points[0])
                    rhs = rhs + fock.neutral_trace(
                        "boson_neutral", "C", [merged] + rest,
                        N).scale((-1) ** (s + eps.count(-1)))
        return lhs - rhs
    raise IllegalPower("unknown algebra %r" % algebra)
