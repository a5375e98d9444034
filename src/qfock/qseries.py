"""Exact truncated Laurent series in q^(1/2) with charge variables.

Coefficients are exact rationals, with no floating point anywhere.  All
exponents -- both of q and of the charge variables z_i -- are stored as
*doubled* integers so half-integer powers never leave exact arithmetic.
Exponents and truncation orders enter and leave as ints or Fractions in
(1/2)Z; to2 is the one converter to doubled ints and refuses anything else.

A Series knows its truncation order: terms with q-exponent <= truncation are
exact, everything above is unknown.  Evaluation points are Param objects of
the form sign * s^2 * q^d * z^e, so t^r is an exact rational monomial for any
r in (1/2)Z.

A Series is integer numerators over one denominator, in the canonical form
the Series docstring gives.  The kernels add and multiply Python ints only,
with one gcd per result; a Fraction is built when a coefficient is read out
(the terms property, first_difference).  They are _product_slices (every
product and z-slice read), Series.invert (its z-free recurrence is
_inverse_list, which closedform's f_bo shares), _chain (products and
quotients by factors (1 - a), and so the Pochhammer symbols), _chain_sum (a
q-series summed term by term from its term ratio) and _one_point_nest;
where they meet many pairs of z-keys they join integer charge codes
(_zcode), and every charged quotient (Series.invert's, _chain's) is one
loop, _over_codes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, gcd, lcm
from operator import add, mul, sub
from typing import List, Mapping, Optional, Sequence, Tuple, Union


class QSeriesError(Exception):
    pass


class NotInvertible(QSeriesError):
    pass


class IllegalPower(QSeriesError):
    pass


class DegenerateParameter(QSeriesError):
    pass


class NonTruncatable(QSeriesError):
    pass


class CapExceeded(QSeriesError):
    pass


HalfLike = Union[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def to2(x: HalfLike) -> int:
    """Doubled-integer value of an element of (1/2)Z: the one gate where
    half-integers (ints or Fractions) become doubled ints."""
    if isinstance(x, int):
        return 2 * x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return 2 * x.numerator
    if x.denominator == 2:
        return x.numerator
    raise IllegalPower("not a half-integer: %r" % (x,))


def _half(n2: int) -> HalfLike:
    """n2 / 2, an int when n2 is even: to2's inverse, which builds no
    Fraction for an integer."""
    return n2 // 2 if n2 % 2 == 0 else Fraction(n2, 2)


def half_str(n2: int) -> str:
    return str(n2 // 2) if n2 % 2 == 0 else "%d/2" % n2


def _monomial_str(q2: int, zk) -> str:
    """The monomial q^(q2/2) z^zk as "q^a z1^b", exponents undoubled."""
    return "q^" + half_str(q2) + "".join(" z%d^%s" % (v, half_str(e2))
                                         for v, e2 in zk)


def parse_half(s) -> int:
    """Parse a half-integer given as int, "k", "a/2" or "p/q" with q|2."""
    if isinstance(s, int):
        return 2 * s
    try:
        f = Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise IllegalPower("not a rational number: %r" % (s,))
    return to2(f)


# z-exponent keys: sorted tuple of (variable index, doubled exponent != 0)
ZKey = Tuple[Tuple[int, int], ...]


def zkey(mapping: Mapping[int, HalfLike] = ()) -> ZKey:
    items = []
    for v, e in dict(mapping).items():
        e2 = to2(e)
        if e2:
            items.append((v, e2))
    return tuple(sorted(items))


def _zmul(a: ZKey, b: ZKey) -> ZKey:
    if not a:
        return b
    if not b:
        return a
    if len(a) == len(b) == 1 and a[0][0] == b[0][0]:
        # one variable on each side, the same one: add the exponents
        e2 = a[0][1] + b[0][1]
        return ((a[0][0], e2),) if e2 else ()
    acc = dict(a)
    for v, e2 in b:
        n = acc.get(v, 0) + e2
        if n:
            acc[v] = n
        else:
            del acc[v]
    return tuple(sorted(acc.items()))


def _zcode(zk: ZKey, fields) -> int:
    """The charge code of a z-key: its doubled exponents as balanced digits
    in base 2b + 1, one digit per (variable, b) of fields, the first least
    significant.  Only the exponents are packed, never a coefficient.
    While every exponent met lies in [-b, b], _zdecode reads the key back, and
    the sum of two codes is the code of the product of their keys."""
    exps = dict(zk)
    c, m = 0, 1
    for var, b in fields:
        c += exps.get(var, 0) * m
        m *= 2 * b + 1
    return c


def _reach(zkeys) -> dict:
    """{charge variable: largest |doubled exponent| on it} over zkeys, the
    half-widths of the fields that hold them."""
    reach = {}
    for zk in zkeys:
        for var, e2 in zk:
            if abs(e2) > reach.get(var, 0):
                reach[var] = abs(e2)
    return reach


def _zdecode(c: int, fields) -> ZKey:
    """The z-key whose _zcode over fields is c."""
    zk = []
    for var, b in fields:
        w = 2 * b + 1
        e2 = (c + b) % w - b
        if e2:
            zk.append((var, e2))
        c = (c - e2) // w
    return tuple(zk)


Key = Tuple[int, ZKey]  # (doubled q-exponent, z-exponent key)


def _reduced(trunc2: int, den: int, nums: dict) -> "Series":
    """The series nums[key] / den.  den > 0 and nums holds no zero and no
    key above trunc2; one gcd brings it to the canonical form."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    s = object.__new__(Series)
    s.trunc2, s.den, s.nums = trunc2, den, nums
    return s


def _over_codes(layers: dict, lo: int, hi: int, terms, B: int,
                K: int) -> dict:
    """B^K layers / (1 - sum A/B q^(d2/2) z^c) to q^(hi/2), for the terms
    (d2 > 0, [(c, A), ...]), c a charge code (_zcode): layers and the result
    are {q2: {charge code: int}} from q^(lo/2), the quotient built in rising
    q2 by out[q2] = B^K layers[q2] + sum A (out[q2 - d2] // B), codes
    shifted by c; the division is exact while no q2 lies more than K steps
    above lo.  A layer of layers is read once and may be changed."""
    BK, out = B ** K, {}
    for q2 in range(lo, hi + 1):
        cur = layers.get(q2) or {}
        if BK != 1:
            cur = {c: n * BK for c, n in cur.items()}
        for d2, row in terms:
            prev = out.get(q2 - d2)
            if prev:
                for c, A in row:
                    for pc, n in prev.items():
                        k = pc + c
                        cur[k] = cur.get(k, 0) + (
                            A * n if B == 1 else A * (n // B))
        if cur:
            out[q2] = cur
    return out


def _inverse_list(M: list) -> Tuple[list, int]:
    """(G, g) with G / g = 1 / sum_i M[i] x^i to x^(len(M) - 1), M[0] != 0
    (or NotInvertible): with M[0] = +-r L, r the gcd of M, u_e = M[e]/M[0]
    = U_e/L and G_n = L^n g_n = -sum_(0<e<=n) U_e L^(e-1) G_(n-e), in ints."""
    if not M or not M[0]:
        raise NotInvertible("cannot invert the zero series")
    ln, top, r = M[0], len(M) - 1, gcd(*M)
    L, sgn = abs(ln) // r, (r if ln > 0 else -r)
    # V[top - e] = L^(e - 1) U_e: G_n = -sum_(j<n) G_j V[top - n + j]
    V = [m // sgn * L ** (e - 1) if m else 0
         for e, m in enumerate(M[1:], 1)][::-1]
    G = [1]
    for n in range(1, top + 1):
        G.append(-sum(map(mul, G, V[top - n:])))
    s = 1 if ln > 0 else -1  # g_n = G_n L^(top - n) / L^top
    return [s * gn * L ** (top - n) for n, gn in enumerate(G)], \
        abs(ln) * L ** top


def _from_codes(t2: int, den: int, layers: dict, fields) -> "Series":
    """The series layers[q2][code] / den, each charge code decoded once by
    _zdecode over fields."""
    zkeys = {c: _zdecode(c, fields)
             for c in {c for layer in layers.values() for c in layer}}
    return _reduced(t2, den, {(q2, zkeys[c]): n for q2, layer in layers.items()
                              for c, n in layer.items() if n})


class Series:
    """Sparse truncated Laurent series in q^(1/2) and charge variables z_i.

    The coefficient of the key (q2, zkey) is nums[key] / den, with integer
    numerators nums: {(q2, zkey): int} over one denominator den > 0.  The
    form is canonical: gcd(den, every numerator) = 1, no numerator is zero
    and no key lies above trunc2, the doubled inclusive truncation order.
    So equal series have equal fields.
    """

    __slots__ = ("trunc2", "den", "nums")

    def __init__(self, trunc2: int, terms: Optional[Mapping] = None):
        """The series with coefficients terms: {(q2, zkey): int or
        Fraction}; zero coefficients and keys above trunc2 are dropped."""
        kept = {k: c for k, c in (terms or {}).items() if c and k[0] <= trunc2}
        # the lcm of reduced denominators leaves no common factor
        self.den = den = lcm(*[c.denominator for c in kept.values()])
        self.nums = {k: c.numerator * (den // c.denominator)
                     for k, c in kept.items()}
        self.trunc2 = trunc2

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_numerators(trunc2: int, den: int, nums: Mapping) -> "Series":
        """The series nums[key] / den from integer numerators over den > 0;
        zero numerators and keys above trunc2 are dropped."""
        return _reduced(trunc2, den, {k: n for k, n in nums.items()
                                      if n and k[0] <= trunc2})

    @staticmethod
    def zero(N: HalfLike) -> "Series":
        return _reduced(to2(N), 1, {})

    @staticmethod
    def const(c, N: HalfLike) -> "Series":
        return Series.monomial(c, 0, N)

    @staticmethod
    def one(N: HalfLike) -> "Series":
        return Series.const(1, N)

    @staticmethod
    def monomial(c, qexp: HalfLike, N: HalfLike, z: Mapping[int, HalfLike] = ()) -> "Series":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return Series.from_numerators(to2(N), c.denominator, {
            (to2(qexp), zkey(z) if z else ()): c.numerator})

    # -- basic observers ----------------------------------------------------

    @property
    def terms(self) -> dict:
        """{(q2, zkey): Fraction}, a new dict built for readers."""
        den = self.den
        return {k: Fraction(n, den) for k, n in self.nums.items()}

    @property
    def truncation(self) -> Fraction:
        return Fraction(self.trunc2, 2)

    def min2(self) -> Optional[int]:
        # keys lead with q2, so the least key holds the least q-exponent
        return min(self.nums)[0] if self.nums else None

    def is_zero(self) -> bool:
        return not self.nums

    def coeff_z(self, var: int, m: HalfLike) -> "Series":
        """The z_var^m slice; q-series free of z_var."""
        m2 = to2(m)
        out = {}
        for (q2, zk), n in self.nums.items():
            d = dict(zk)
            if d.pop(var, 0) == m2:
                out[(q2, tuple(sorted(d.items())))] = n
        return _reduced(self.trunc2, self.den, out)

    # -- ring operations ----------------------------------------------------

    def _coerced(self, other) -> Optional["Series"]:
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.from_numerators(self.trunc2, other.denominator,
                                          {(0, ()): other.numerator})
        return None

    def _plus(self, o: "Series", sign: int) -> "Series":
        """self + sign * o over the lcm of the two denominators."""
        t2 = min(self.trunc2, o.trunc2)
        da, db = self.den, o.den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        out = {k: n * fa for k, n in self.nums.items() if k[0] <= t2}
        for k, n in o.nums.items():
            if k[0] <= t2:
                n = out.get(k, 0) + n * fb
                if n:
                    out[k] = n
                else:
                    del out[k]
        return _reduced(t2, da * fa, out)

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.trunc2, self.den,
                        {k: -n for k, n in self.nums.items()})

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Series":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return _reduced(self.trunc2, 1, {})
        cn = c.numerator
        return _reduced(self.trunc2, self.den * c.denominator,
                        {k: n * cn for k, n in self.nums.items()})

    def shift(self, qexp: HalfLike) -> "Series":
        """Multiply by q^qexp, adjusting the truncation."""
        q2 = to2(qexp)
        return _reduced(self.trunc2 + q2, self.den, {
            (a2 + q2, zk): n for (a2, zk), n in self.nums.items()})

    def __mul__(self, other):
        if isinstance(other, Series):
            return _product_slices(self, other, 0, {(): 1})
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Series":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        result = Series.from_numerators(self.trunc2, 1, {(0, ()): 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def invert(self) -> "Series":
        """Multiplicative inverse; the lowest q-layer must be one monomial.

        With self = lead * (1 + u), val(u) > 0, the q-layers of
        g = 1/(1 + u) follow g_0 = 1, g_n = -sum_(0<e<=n) u_e g_(n-e), in
        integers over powers of L, the lead's numerator over the gcd:
        without charge variables one list by step, the gcd of u's exponents
        (_inverse_list), with them code layers (_over_codes, 1/lead over
        1 + u); one gcd at the end.  The list stays apart: on code layers
        the z-free inverses made the series-kernel checks about 11% slower
        (17.6 against 15.9 ms in process).
        """
        v2 = self.min2()
        if v2 is None:
            raise NotInvertible("cannot invert the zero series")
        lead = [(k, n) for k, n in self.nums.items() if k[0] == v2]
        if len(lead) != 1:
            raise NotInvertible("lowest q-layer has %d monomials" % len(lead))
        (_, lzk), ln = lead[0]
        u = {}  # doubled q-exponent (> 0) -> {self's zkey: numerator over L}
        for (a2, az), n in self.nums.items():
            if a2 != v2:
                u.setdefault(a2 - v2, {})[az] = n
        step = gcd(*u) or 1  # every reachable exponent is a multiple of step
        top, t2 = (self.trunc2 - v2) // step, self.trunc2 - 2 * v2
        reach = _reach({zk for _, zk in self.nums})
        if not reach:
            M = [ln] + [0] * top
            for e, ul in u.items():
                M[e // step] = ul[()]
            G, g = _inverse_list(M)
            return _reduced(t2, g, {(n * step - v2, ()): self.den * x
                                    for n, x in enumerate(G) if x})
        # u_e = U_e / L in lowest terms, L > 0
        r = gcd(ln, *[n for ul in u.values() for n in ul.values()])
        L = abs(ln) // r
        sgn = r if ln > 0 else -r
        f = self.den if ln > 0 else -self.den  # 1/lead = self.den / ln
        # a key of u (self's over the lead's) has |e2| <= 2 reach, g_n sums
        # at most top of them, and the result's are g's over the lead's
        fields = [(var, (2 * top + 1) * e)
                  for var, e in sorted(reach.items())]
        lc = _zcode(lzk, fields)
        terms = [(e, [(_zcode(uz, fields) - lc, -(un // sgn))
                      for uz, un in ul.items()])
                 for e, ul in sorted(u.items())]
        return _from_codes(t2, abs(ln) * L ** top, _over_codes(
            {-v2: {-lc: f}}, -v2, t2, terms, L, top), fields)

    def truncate(self, N: HalfLike) -> "Series":
        t2 = to2(N)
        if t2 >= self.trunc2:
            return self
        return _reduced(t2, self.den,
                        {k: n for k, n in self.nums.items() if k[0] <= t2})

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return (self.trunc2 == o.trunc2 and self.den == o.den
                and self.nums == o.nums)

    def __hash__(self):
        return hash((self.trunc2, self.den, frozenset(self.nums.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        bits = []
        for (q2, zk), c in self.sorted_terms()[:8]:
            mono = []
            if q2:
                mono.append("q^%s" % half_str(q2))
            for v, e2 in zk:
                mono.append("z%d^%s" % (v, half_str(e2)))
            bits.append("%s%s" % (c, ("*" + "*".join(mono)) if mono else ""))
        if len(self.nums) > 8:
            bits.append("...")
        return "Series[%s; O(q^%s)]" % (" + ".join(bits) or "0", half_str(self.trunc2))


def first_difference(a: Series, b: Series):
    """First differing monomial up to the common truncation, or None.

    Returns (q2, zkey, coeff_a, coeff_b) ordered by (q-exponent, z-key).
    """
    an, ad, bn, bd = a.nums, a.den, b.nums, b.den
    if ad == bd and an == bn:
        return None
    t2 = min(a.trunc2, b.trunc2)
    diff = [k for k in an.keys() | bn.keys()
            if k[0] <= t2 and an.get(k, 0) * bd != bn.get(k, 0) * ad]
    if not diff:
        return None
    k = min(diff)
    return (k[0], k[1], Fraction(an.get(k, 0), ad), Fraction(bn.get(k, 0), bd))


def _product_slices(a: Series, b: Series, l: int,
                    weights: Mapping[tuple, int]) -> Series:
    """sum_h weights[h] [z_1^h_1 ... z_l^h_l](a * b), h the doubled
    exponents on z_1..z_l: a weighted sum of z-slices of the product, with
    the variables beyond z_l kept and the truncation of a * b.  l = 0 with
    weights {(): 1} is the product itself.

    A term's head is its exponents on z_1..z_l; its rest is keyed by one
    int, the q-exponent plus W times the _zcode of the variables beyond z_l,
    each field as wide as both operands' reach together, so a term pair is
    one int addition that never wraps.  b's terms are grouped by head in
    rising q; each head of a meets the groups that complete a weighted h,
    merged into one row with the weights, and runs along it up to the
    truncation, so no other slice of the product is built."""
    amin, bmin = a.min2(), b.min2()
    if amin is None or bmin is None:
        # zero operand: its O(q^(trunc+)) tail still meets the other factor
        if amin is None and bmin is None:
            t2 = min(a.trunc2, b.trunc2)
        elif amin is None:
            t2 = a.trunc2 + bmin
        else:
            t2 = b.trunc2 + amin
        return _reduced(t2, 1, {})
    t2 = min(a.trunc2 + bmin, b.trunc2 + amin)
    lo = amin + bmin
    za = {zk for _, zk in a.nums}
    zb = {zk for _, zk in b.nums}
    fields = ()
    if za == zb == {()}:
        part = {(): ((0,) * l, 0)}  # zkey -> (head, W times its rest's code)
    else:
        # one field per variable beyond z_l, so a code keeps the rest only
        ra, rb = _reach(za), _reach(zb)
        fields = sorted((var, ra.get(var, 0) + rb.get(var, 0))
                        for var in ra.keys() | rb.keys()
                        if not 1 <= var <= l)
        W = t2 - lo + 1
        part = {}
        for zk in za | zb:
            head = [0] * l
            for v, e2 in zk:
                if 1 <= v <= l:
                    head[v - 1] = e2
            part[zk] = tuple(head), W * _zcode(zk, fields)
    if not l or len(zb) == 1:  # one head: b is one row
        rows = {part[next(iter(zb))][0]: sorted(
            [(b2, b2 + part[bz][1], bn) for (b2, bz), bn in b.nums.items()])}
    else:
        rows = {}  # b's head -> [(q2, key, numerator)], rising in q2
        for (b2, bz), bn in sorted(b.nums.items()):
            h, kb = part[bz]
            rows.setdefault(h, []).append((b2, b2 + kb, bn))
    met = {}  # a's head -> the weighted b-terms it meets, rising in q2
    match = {}  # a's zkey -> (its key, met[its head])
    for az in za:
        h, ka = part[az]
        if h not in met:
            ms = []  # (weight, b's row at head hw - h) for each weighted hw
            for hw, w in weights.items():
                row = rows.get(tuple(map(sub, hw, h)))
                if row:
                    ms.append((w, row))
            met[h] = ms[0][1] if len(ms) == 1 and ms[0][0] == 1 else sorted(
                [(b2, kb, w * bn) for w, row in ms for b2, kb, bn in row])
        match[az] = ka, met[h]
    out = {}
    for (a2, az), an in a.nums.items():
        ka, row = match[az]
        ka += a2
        lim = t2 - a2
        for b2, kb, bn in row:
            if b2 > lim:
                break
            k = ka + kb
            out[k] = out.get(k, 0) + an * bn
    den = a.den * b.den
    if not fields:
        return _reduced(t2, den, {(k, ()): n for k, n in out.items() if n})
    # charge code -> the rest it encodes; an operand's z-key free of
    # z_1..z_l is its own rest
    rests = {c // W: zk for zk, (h, c) in part.items() if not any(h)}
    nums = {}
    for k, n in out.items():
        if n:
            c, k = divmod(k - lo, W)
            r = rests.get(c)
            if r is None:
                r = rests[c] = _zdecode(c, fields)
            nums[(lo + k, r)] = n
    return _reduced(t2, den, nums)


def series_equal(a: Series, b: Series) -> bool:
    return first_difference(a, b) is None


class Param:
    """Evaluation point sign * s^2 * q^d * z_var^e.

    s is a Fraction; the carried prefactor is s^2 so that every half-integer
    power of the point stays rational (t^(1/2) = s q^(d/2) ...).  s = 0 marks
    the zero parameter (legal only where a vanishing hypergeometric parameter
    makes sense).  sign = -1 supports points like -q^(1/2); such a point only
    admits integer powers.
    """

    __slots__ = ("s", "d2", "e2", "zvar", "sign")

    def __init__(self, s, d: HalfLike = 0, e: HalfLike = 0, zvar: int = 1,
                 sign: int = 1):
        self.s = s if isinstance(s, Fraction) else Fraction(s)
        self.d2 = to2(d)
        self.e2 = to2(e)
        self.zvar = zvar
        if sign not in (1, -1):
            raise QSeriesError("sign must be +1 or -1")
        self.sign = sign
        if self.s == 0 and (self.d2 or self.e2):
            raise QSeriesError("zero parameter cannot carry q or z exponents")

    @property
    def is_zero(self) -> bool:
        return self.s == 0

    @property
    def value_coeff(self) -> Fraction:
        return self.sign * self.s * self.s

    def qval2(self) -> int:
        """Doubled q-valuation (ignoring z); zero param is +infinity-like."""
        if self.is_zero:
            raise QSeriesError("zero parameter has no q-valuation")
        return self.d2

    def pow_monomial(self, r: HalfLike) -> Tuple[Fraction, int, ZKey]:
        """(coefficient, doubled q-exponent, zkey) of self**r, r in (1/2)Z."""
        r2 = to2(r)
        if self.is_zero:
            if r2 < 0:
                raise IllegalPower("zero parameter to a negative power")
            return (ONE if r2 == 0 else ZERO, 0, ())
        if (self.d2 * r2) % 2 or (self.e2 * r2) % 2:
            raise IllegalPower("power %s of %r leaves the exact monomial ring"
                               % (half_str(r2), self))
        if self.sign == -1 and r2 % 2:
            raise IllegalPower("half-integer power of a negative parameter")
        c = self.s ** r2  # s^(2r)
        if self.sign == -1 and (r2 // 2) % 2:
            c = -c
        ze2 = (self.e2 * r2) // 2
        return (c, (self.d2 * r2) // 2, ((self.zvar, ze2),) if ze2 else ())

    def scalar_pow(self, r: HalfLike) -> Fraction:
        """self**r as a plain rational; requires d = 0 and e = 0."""
        if self.d2 or self.e2:
            raise IllegalPower("parameter is not a scalar")
        c, _, _ = self.pow_monomial(r)
        return c

    def inverse(self) -> "Param":
        if self.is_zero:
            raise IllegalPower("zero parameter has no inverse")
        if self.d2:
            raise IllegalPower("inverse of a q-shifted parameter is not a Param")
        return point_inverse(self)

    def __mul__(self, other: "Param") -> "Param":
        if not isinstance(other, Param):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Param(0)
        if self.e2 and other.e2 and self.zvar != other.zvar:
            raise QSeriesError("product would carry two charge variables")
        zv = self.zvar if self.e2 else other.zvar
        # s^2 composes multiplicatively; |s| choice is irrelevant since only
        # even powers of s are ever exposed.
        return Param(self.s * other.s, Fraction(self.d2 + other.d2, 2),
                     Fraction(self.e2 + other.e2, 2), zv,
                     self.sign * other.sign)

    def qshift(self, d: HalfLike = 1) -> "Param":
        """The point q^d * self."""
        n2 = self.d2 + to2(d)
        if n2 < 0:
            raise IllegalPower("negative q-shift")
        return Param(self.s, _half(n2), _half(self.e2), self.zvar, self.sign)

    def __repr__(self):
        bits = ["%s" % self.value_coeff]
        if self.d2:
            bits.append("q^%s" % half_str(self.d2))
        if self.e2:
            bits.append("z%d^%s" % (self.zvar, half_str(self.e2)))
        return "Param(%s)" % "*".join(bits)


def point_inverse(p: Param) -> Param:
    """The point p^(-1), allowing q-shifted p (unlike Param.inverse)."""
    if p.is_zero:
        raise NonTruncatable("inverse of the zero point")
    return Param(1 / p.s, Fraction(-p.d2, 2), Fraction(-p.e2, 2),
                 p.zvar, p.sign)


def _q(d: HalfLike = 1) -> Param:
    """The point q^d."""
    return Param(1, d)


_QH = _q(Fraction(1, 2))


def power(p: Param, r: HalfLike, N: HalfLike) -> Series:
    """The single-monomial series p**r at truncation N."""
    c, q2, zk = p.pow_monomial(r)
    if not c:
        return Series.zero(N)
    return Series(to2(N), {(q2, zk): c})


def _factor(p: Param, i: int = 0) -> tuple:
    """The chain factor (A, B, d2, ze) of 1 - p q^i: for s = a/b the point
    p q^i is A/B q^(d2/2) z^ze with A = sign a^2, B = b^2 and ze its z-key.
    Like p.qshift(i), it refuses a negative q-exponent."""
    d2 = p.d2 + 2 * i
    if d2 < 0:
        raise IllegalPower("negative q-shift")
    return (p.sign * p.s.numerator ** 2, p.s.denominator ** 2, d2,
            ((p.zvar, p.e2),) if p.e2 else ())


def _q_factor(d2: int) -> tuple:
    """The chain factor of 1 - q^(d2/2)."""
    return (1, 1, d2, ())


def _chain_list(L: list, ups: Sequence[tuple],
                downs: Sequence[tuple]) -> Tuple[list, int]:
    """(M, m) with M / m = L prod_(f in ups) (1 - f) / prod_(f in downs)
    (1 - f), exact to the length of the integer list L (index = q-exponent),
    one pass per factor that reaches it: a product by 1 - A/B q^d is
    L[i] = B L[i] - A L[i - d] (the old L on the right), m taking B, and a
    quotient L[i] = B^K L[i] + A (L[i - d] // B) in rising i, m taking B^K,
    K the longest chain; the division is exact.  An up may have d = 0."""
    top, m = len(L) - 1, 1
    for A, B, d2, _ in ups:
        if d2 > top:
            continue
        if B == 1:
            L = L[:d2] + [x - A * y for x, y in zip(L[d2:], L)]
        else:
            L = [B * x for x in L[:d2]] + [B * x - A * y
                                           for x, y in zip(L[d2:], L)]
            m *= B
    for A, B, d2, _ in downs:
        if d2 > top:
            continue
        if B != 1:
            BK = B ** (top // d2)
            L = [n * BK for n in L]
            m *= BK
        for i in range(d2, top + 1):
            n = L[i - d2]
            if n:
                L[i] += A * n if B == 1 else A * (n // B)
    return L, m


def _chain(s: Series, ups: Sequence[tuple] = (),
           downs: Sequence[tuple] = ()) -> Series:
    """s prod_(f in ups) (1 - f) / prod_(f in downs) (1 - f), exact to s's
    truncation, for chain factors f = (A, B, d2, ze) (_factor) with d2 > 0
    (or 0 among ups); those whose step passes it are skipped.  Without a
    charge variable s is one integer list through _chain_list, built once
    with one gcd; a charged chain is one _chain_codes."""
    if not s.nums:
        return s
    t2, v2 = s.trunc2, s.min2()
    top = t2 - v2
    ups = [f for f in ups if f[2] <= top]
    downs = [f for f in downs if f[2] <= top]
    if not (ups or downs):
        return s
    if any(zk for _, zk in s.nums) or any(f[3] for f in ups + downs):
        return _chain_codes(s, ups, downs, (1, 1, 0, ()), t2)
    L = [0] * (top + 1)
    for (q2, _), n in s.nums.items():
        L[q2 - v2] = n
    L, m = _chain_list(L, ups, downs)
    return _reduced(t2, s.den * m, {(v2 + i, ()): n
                                    for i, n in enumerate(L) if n})


def _chain_sum(s: Series, steps: Sequence[tuple]) -> Series:
    """sum_(n = 0..len(steps)) term_n, a q-series summed term by term
    (qhyper, verify's Prop. 1.1.1 and q-exponential sums): term_0 = s, and
    step n, ((A, B, d2, ze), ups, downs), makes term_n = term_(n-1)
    A/B q^(d2/2) z^ze prod_(f in ups) (1 - f) / prod_(f in downs) (1 - f),
    for B > 0 and the chain factors of _chain (an up factor may have d = 0).
    With P_n the sum of the first n d2, of either sign, term n is exact to
    s's truncation + P_n and the sum to s's truncation + min(0, P_1, ...);
    no term is carried further than the later terms need.  Without a charge
    variable the term and the sum are two integer lists over one
    denominator, what scales the term's (A/B, _chain_list) scales the sum's,
    and the Series is built once, with one gcd; with charges each term is
    one _chain_codes."""
    P = list(accumulate((mono[2] for mono, _, _ in steps), initial=0))
    lows = list(accumulate(reversed(P), min))[::-1]  # lows[n] = min(P[n:])
    T, v2 = s.trunc2 + lows[0], s.min2()
    if v2 is None:
        return _reduced(T, 1, {})
    if any(zk for _, zk in s.nums) or any(
            f[3] for mono, ups, downs in steps for f in (mono, *ups, *downs)):
        out = term = s
        for n, (mono, ups, downs) in enumerate(steps, 1):
            term = _chain_codes(term, ups, downs, mono, T + P[n] - lows[n])
            if not term.nums:
                break
            out = out + term
        return out.truncate(_half(T))
    lo = v2 + lows[0]
    L = [0] * (s.trunc2 - v2 + 1)  # term n, from q^((v2 + P_n)/2)
    for (q2, _), x in s.nums.items():
        L[q2 - v2] = x
    S = ([0] * (v2 - lo) + L)[:T - lo + 1]  # the sum, from q^(lo/2)
    den = s.den
    for n, ((A, B, d2, _), ups, downs) in enumerate(steps, 1):
        top = T - lows[n] - v2
        if top < 0:
            break
        L = [A * x for x in L[:top + 1]]
        L, m = _chain_list(L, ups, downs)
        m *= B
        if m != 1:
            S = [m * x for x in S]
            den *= m
        i = v2 + P[n] - lo  # map stops at S's end, at q^(T/2)
        S[i:i + len(L)] = map(add, S[i:i + len(L)], L)
        if not any(L):
            break
    return _reduced(T, den, {(lo + i, ()): x for i, x in enumerate(S) if x})


def _one_point_nest(f: tuple, t2: int) -> Series:
    """sum_(m >= 1) q^m S_m/((q)_m (tq)_m), S_m = sum_(j < m) (tq)_j/(q)_j,
    exact to q^(t2/2), for the chain factor f = (A, B, 0, ()) of a scalar
    t = A/B (closedform.one_point_minus1): each S_m kept to q^(N - m), then
    X <- q (S_m + X)/((1 - q^m)(1 - tq^m)) for m = floor(N), ..., 1.  The
    q^k coefficient has t-degree <= k, so a list holds it times B^k: by
    _chain_list, 1 - tq^d acts as 1 - A B^(d-1) q^d, 1 - q^d as 1 - B^d q^d
    and q as B q, with no division; one Series over B^floor(N), one gcd."""
    A, B = f[:2]
    top = t2 // 2
    R, S, sums = [1] + [0] * (top - 1), [0] * top, []
    for m in range(1, top + 1):
        R = R[:top - m + 1]  # r_(m-1) to q^(N - m)
        if m > 1:
            R = _chain_list(R, [(A * B ** (m - 2), 1, m - 1, ())],
                            [(B ** (m - 1), 1, m - 1, ())])[0]
        S = list(map(add, S, R))  # S_m; map stops at R's end
        sums.append(S)
    X = [0]
    for m in range(top, 0, -1):
        X = _chain_list([0] + [B * (s + x) for s, x in zip(sums[m - 1], X)],
                        (), [(B ** m, 1, m, ()),
                             (A * B ** (m - 1), 1, m, ())])[0]
    return _reduced(t2, B ** max(top, 0), {
        (2 * i, ()): x * B ** (top - i) for i, x in enumerate(X) if x})


def _over_one_minus(s: Series, p: Param) -> Series:
    """s / (1 - p): for d > 0 the one-factor _chain and for a scalar p
    (d = 0, no charge) other than 1 the scale by 1/(1 - p), both exact to
    s's truncation.  A charged p at d = 0, or p = 1, has no inverse.  For
    d < 0 it is s / (1 - p) = -s p^-1 / (1 - p^-1), one _chain_codes to
    the truncation of the product of s with the inverse of 1 - p."""
    if p.d2 > 0:
        return _chain(s, (), (_factor(p),))
    if p.d2 < 0:
        A, B, d2, ze = _factor(point_inverse(p))
        t2 = s.trunc2 - p.d2
        if s.nums:
            t2 = min(t2, max(s.trunc2, 0) - 2 * p.d2 + s.min2())
        return _chain_codes(s, (), [(A, B, d2, ze)], (-A, B, d2, ze), t2)
    if p.e2:
        raise NotInvertible("lowest q-layer has 2 monomials")
    A, B = p.sign * p.s.numerator ** 2, p.s.denominator ** 2
    if A == B:
        raise NotInvertible("cannot invert the zero series")
    g = B - A  # s / (1 - A/B) = s B / (B - A)
    if g < 0:
        B, g = -B, -g
    return _reduced(s.trunc2, s.den * g, {k: n * B for k, n in s.nums.items()})


def _chain_codes(s: Series, ups: Sequence[tuple], downs: Sequence[tuple],
                 mono: tuple, t2: int) -> Series:
    """s A/B q^(d2/2) z^ze prod_(f in ups) (1 - f) / prod_(f in downs)
    (1 - f) for mono = (A, B, d2, ze) and the chain factors of _chain, exact
    to t2: _chain_list's product passes and an _over_codes per quotient on
    q-layers keyed by charge codes (_zcode), s encoded once and the result
    decoded once.  A field's half-width is s's reach plus |e2| per up factor
    and the monomial and K |e2| per down factor on its variable, K that
    factor's longest chain, so no code wraps."""
    A, B, m2, mz = mono
    kept = [(q2 + m2, zk, n) for (q2, zk), n in s.nums.items()
            if A and q2 + m2 <= t2]
    if not kept:
        return _reduced(t2, 1, {})
    v2 = min(q2 for q2, _, _ in kept)
    Ks = [1] * (len(ups) + 1) + [(t2 - v2) // f[2] for f in downs]
    reach = _reach({zk for _, zk, _ in kept})  # variable -> half-width
    for (_, _, _, ze), K in zip((mono, *ups, *downs), Ks):
        for var, e2 in ze:
            reach[var] = reach.get(var, 0) + K * abs(e2)
    fields = sorted(reach.items())
    cm, layers = _zcode(mz, fields), {}
    for q2, zk, n in kept:
        layers.setdefault(q2, {})[_zcode(zk, fields) + cm] = A * n
    den = s.den * B
    for A, B, d2, ze in ups:  # L[i] = B L[i] - A L[i - d], i falling
        ce = _zcode(ze, fields)
        for q2 in range(t2, v2 - 1, -1):
            cur, prev = layers.get(q2), layers.get(q2 - d2)
            if prev and not d2:
                prev = dict(prev)
            if cur and B != 1:
                for c in cur:
                    cur[c] *= B
            if prev:
                if cur is None:
                    cur = layers[q2] = {}
                for c, n in prev.items():
                    c += ce
                    cur[c] = cur.get(c, 0) - A * n
        den *= B
    for (A, B, d2, ze), K in zip(downs, Ks[len(ups) + 1:]):
        layers = _over_codes(layers, v2, t2, [(d2, [(_zcode(ze, fields), A)])],
                             B, K)
        den *= B ** K
    return _from_codes(t2, den, layers, fields)


def _pochhammer_factors(a: Param, n: Optional[int], t2: int) -> List[tuple]:
    """The chain factors of 1 - a q^i, i < n (every i >= 0 when n is None),
    up to the first that is 1 + O(q^(>t2)): the one stop rule of (a)_n,
    (a)_inf and the divisions by them.  a's integers are read once."""
    if a.is_zero:
        return []
    if n is None and a.e2 and a.d2 == 0:
        raise NonTruncatable("(a)_inf with a pure charge monomial never truncates")
    top = (t2 - a.d2) // 2 + 1  # the i with a.d2 + 2 i <= t2
    if n is not None:
        top = min(top, n)
    if top <= 0:
        return []
    A, B, d2, ze = _factor(a)
    return [(A, B, d2 + 2 * i, ze) for i in range(top)]


def _pochhammer_chain(s: Series, ups: Sequence[tuple] = (),
                      downs: Sequence[tuple] = ()) -> Series:
    """s prod_((a, n) in ups) (a)_n / prod_((b, n) in downs) (b)_n, exact
    to s's truncation (n = None for (a)_inf): one _chain over the symbols'
    factors.  A factor at d = 0 of a scalar point is a number, applied at
    its turn: s times it, or _over_one_minus, so a vanishing quotient raises
    even for s = 0; a charged one is an up factor of the chain."""
    times, over = [], []  # the chain factors of ups, of downs
    for up, symbols, factors in ((True, ups, times), (False, downs, over)):
        for a, n in symbols:
            rel = s.trunc2 - (s.min2() or 0)
            fs = _pochhammer_factors(a, n, rel if up else max(rel, 0))
            if fs and not fs[0][2] and not (up and a.e2):
                s = s * (1 - a.value_coeff) if up else _over_one_minus(s, a)
                fs = fs[1:]
            factors.extend(fs)
    return _chain(s, times, over)


def _over_pochhammer(s: Series, a: Param, n: Optional[int] = None) -> Series:
    """s / (a)_n, or s / (a)_inf when n is None, by _pochhammer_chain."""
    return _pochhammer_chain(s, (), [(a, n)])


def _times_pochhammer(s: Series, a: Param, n: Optional[int] = None) -> Series:
    """s (a)_n, or s (a)_inf when n is None, by _pochhammer_chain."""
    return _pochhammer_chain(s, [(a, n)])


def c_term(t: Param, N: HalfLike) -> Series:
    """beta(t) = 1/(t^(-1/2) - t^(1/2)) = t^(1/2)/(1 - t)."""
    if t.is_zero:
        raise DegenerateParameter("beta at the zero parameter")
    if t.d2 == 0 and t.e2 == 0 and t.value_coeff == 1:
        raise DegenerateParameter("beta has a pole at t = 1")
    return _over_one_minus(power(t, Fraction(1, 2), N), t)


def beta_scalar(t: Param) -> Fraction:
    """beta(t) as a rational, for a scalar point (d = 0, e = 0)."""
    if t.d2 or t.e2:
        raise IllegalPower("beta_scalar needs a scalar point")
    if t.sign == -1:
        raise IllegalPower("beta of a negative parameter")
    v = t.value_coeff
    if v == 1:
        raise DegenerateParameter("beta has a pole at t = 1")
    return t.s / (1 - v)


def pochhammer_n(a: Param, n: int, N: HalfLike) -> Series:
    """(a)_n = (1-a)(1-aq)...(1-aq^(n-1))."""
    return _times_pochhammer(Series.one(N), a, n)


def pochhammer_inf(a: Param, N: HalfLike) -> Series:
    """(a)_inf = prod_{i>=0} (1 - a q^i), truncated at q^N.

    Requires q-valuation of a to be >= 0 (guaranteed by Param).  A d = 0
    argument contributes a scalar factor (1 - s^2) at i = 0 and truncatable
    factors afterwards; s^2 = 1 there gives the exact value 0.
    """
    return _times_pochhammer(Series.one(N), a)


@lru_cache(maxsize=64)
def _qinf_inv(t2: int, m: int) -> Series:
    """(q)_inf^(-m) to the doubled truncation t2, built once per (t2, m).
    Every caller gets the same Series, so none may change its terms."""
    if m == 1:
        return _over_pochhammer(Series.one(_half(t2)), _q())
    return _qinf_inv(t2, 1) ** m


def qhyper(upper: Sequence[Param], lower: Sequence[Param], arg: Param,
           N: HalfLike) -> Series:
    """Basic hypergeometric series rPhis(upper; lower; q, arg).

    Term n: prod (a)_n / (prod (b)_n (q)_n) * ((-1)^n q^(n(n-1)/2))^(1+s-r)
    * arg^n.  Truncation relies on the guaranteed valuation
    n*val(arg) + max(0, 1+s-r)*n(n-1)/2 growing past N.  An upper
    parameter equal to q cancels the (q)_n, so neither is applied.  The
    sum is one _chain_sum from 1, taken as far above N as its lowest term
    lies below q^0, each parameter read once into a chain factor.
    """
    r, s = len(upper), len(lower)
    extra = 1 + s - r
    t2 = to2(N)
    if arg.is_zero:
        return Series.one(N)
    v2 = arg.qval2()
    if extra < 0 or (extra == 0 and v2 <= 0):
        raise NonTruncatable("term valuations of this rPhis do not diverge")
    cancel = next((i for i, a in enumerate(upper)  # an upper q
                   if a.d2 == 2 and not a.e2 and a.value_coeff == 1), None)
    upper = [a for i, a in enumerate(upper) if i != cancel and not a.is_zero]
    c, _, ze = arg.pow_monomial(1)
    c *= (-1) ** extra
    steps = []
    if v2 <= t2:
        # term 1's factors, refused in the order its loop met them
        ups = [_factor(a) for a in upper]
        downs, c1 = [], c
        for b in lower:
            if b.is_zero:
                raise DegenerateParameter("zero lower parameter")
            downs.append(_factor(b))
            if b.d2:
                continue
            if b.e2:  # 1 - b is two monomials at q^0
                raise NotInvertible("lowest q-layer has 2 monomials")
            if b.value_coeff == 1:
                raise DegenerateParameter("lower Pochhammer vanishes at the leading layer")
            c1 /= 1 - b.value_coeff  # term 1's factor at d = 0
        if cancel is None:
            downs.append(_q_factor(2))  # 1 - q^n
        n = 1
        while n * v2 + extra * n * (n - 1) <= t2:
            step = 2 * n - 2  # term n's factors: term 1's, q^(n - 1) higher
            cn = c1 if n == 1 else c
            mono = (cn.numerator, cn.denominator, v2 + extra * step, ze)
            steps.append((mono, [(A, B, d2 + step, z) for A, B, d2, z in ups],
                          [(A, B, d2 + step, z)
                           for A, B, d2, z in downs if d2 + step]))
            n += 1
    low = min(n * v2 + extra * n * (n - 1) for n in range(len(steps) + 1))
    return _chain_sum(Series.one(_half(t2 - low)), steps)


# -- theta function and jets ------------------------------------------------


def _theta_sums(t: Param, k: int, N: HalfLike) -> Tuple[int, int, List[list]]:
    """The triple-product sums S_0..S_k at t to order N + |d|/2, for
    t = (a/b)^2 q^d: Theta(t) = (q)_inf^(-3) S_0(t) by the Jacobi triple
    product, and (t d/dt)^j Theta / j! = (q)_inf^(-3) S_j(t) with
    S_j(t) = sum_(n in Z) (-1)^(n+1) q^(n(n-1)/2) t^(n-1/2) (n-1/2)^j / j!.
    In integers, (v2, D, [R_0, ..., R_k]) with S_j = sum_i R_j[i]
    q^((v2 + 2i)/2) / (D 2^j j!), D = |a|^E b^E, v2 = -d^2 the least key
    (at n = -d) and R_j[i] the sum of (-1)^(n+1) sgn(a) |a|^(E+e) b^(E-e)
    e^j over the n at q^((v2 + 2i)/2), e = 2n - 1, E the largest |e|.
    """
    if t.e2:
        raise IllegalPower("theta of a charge-carrying point")
    if t.sign == -1:
        raise IllegalPower("theta of a negative point")
    if t.d2 % 2:
        t.pow_monomial(Fraction(1, 2))  # refuses a half-integer q-shift d
    d = t.d2 // 2
    # the sums start at q^(-|d|/2), which a product with them costs in
    # truncation, so work |d|/2 higher than asked
    t2 = to2(N) + abs(d)
    if abs(t.d2) > 2 and 2 - abs(t.d2) <= t2:
        raise IllegalPower("theta needs qval(%s) >= 0"
                           % ("qt" if t.d2 < 0 else "q/t"))
    # the q-exponent n(n-1) + d(2n-1) (doubled) is symmetric about
    # n = 1/2 - d, so terms come in pairs n = 1-d+m, -d-m with m >= 0
    ns, m = [], 0
    while (n := -d - m) * (n - 1) + d * (2 * n - 1) <= t2:
        ns += (1 - d + m, n)
        m += 1
    a, b = t.s.numerator, t.s.denominator
    if ns and not a:
        raise IllegalPower("zero parameter to a negative power")
    E = max((abs(2 * n - 1) for n in ns), default=0)
    sa, a = (1, a) if a > 0 else (-1, -a)
    v2 = -d * d
    rows = [[0] * ((t2 - v2) // 2 + 1) for _ in range(k + 1)]
    for n in ns:
        e = 2 * n - 1
        c = a ** (E + e) * b ** (E - e)
        c = sa * c if n % 2 else -sa * c
        i = (n * (n - 1) + d * e - v2) // 2
        for R in rows:
            R[i] += c
            c *= e
    return v2, a ** E * b ** E, rows


def theta_jet(t: Param, k: int, N: HalfLike) -> List[Series]:
    """Jet of Theta(t) = (t^(1/2)-t^(-1/2)) (q)_inf^(-2) (qt)_inf (qt^(-1))_inf
    under t -> t e^eps, to eps-order k: entry j is (t d/dt)^j Theta / j!,
    the sum S_j of _theta_sums times (q)_inf^(-3), truncated to N."""
    v2, D, rows = _theta_sums(t, k, N)
    t2 = to2(N) + abs(t.d2) // 2
    return [(Series.from_numerators(t2, D * 2 ** j * factorial(j), {
        (v2 + 2 * i, ()): c for i, c in enumerate(R)}) * _qinf_inv(t2, 3))
        .truncate(N) for j, R in enumerate(rows)]


def theta(t: Param, N: HalfLike) -> Series:
    return theta_jet(t, 0, N)[0]


# -- serialization ----------------------------------------------------------


def series_to_json(s: Series) -> dict:
    terms = []
    for (q2, zk), c in s.sorted_terms():
        entry = {"q": half_str(q2), "z": {str(v): _zjson(e2) for v, e2 in zk},
                 "c": str(c)}
        if not entry["z"]:
            del entry["z"]
        terms.append(entry)
    return {"truncation": half_str(s.trunc2), "terms": terms}


def _zjson(e2: int):
    return e2 // 2 if e2 % 2 == 0 else "%d/2" % e2


def series_from_json(obj: dict) -> Series:
    t2 = parse_half(obj["truncation"])
    terms = {}
    for entry in obj["terms"]:
        q2 = parse_half(entry["q"])
        zk = tuple(sorted((int(v), parse_half(e))
                          for v, e in entry.get("z", {}).items()))
        terms[(q2, zk)] = Fraction(entry["c"])
    return Series(t2, terms)
