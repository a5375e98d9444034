"""Exact truncated Laurent series in q^(1/2) with charge variables.

Coefficients are arbitrary-precision rationals (fractions.Fraction).  All
exponents -- both of q and of the charge variables z_i -- are stored as
*doubled* integers so half-integer powers never leave exact arithmetic.
Exponents and truncation orders enter and leave as ints or Fractions in
(1/2)Z; to2 is the one converter to doubled ints and refuses anything else.

A Series knows its truncation order: terms with q-exponent <= truncation are
exact, everything above is unknown.  Evaluation points are Param objects of
the form sign * s^2 * q^d * z^e, so t^r is an exact rational monomial for any
r in (1/2)Z.

Products and inverses add integers, not Fractions: each operand is read as
Python-int numerators over the lcm of its denominators (_int_form), the
products of a series product are summed per key over one denominator, and
each q-layer of an inverse is kept as numerators over its own denominator,
reduced by one gcd per layer.  A Fraction is built once per stored
coefficient, when the result is read out; terms stays a
{(q2, zkey): Fraction} dict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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
    acc = dict(a)
    for v, e2 in b:
        n = acc.get(v, 0) + e2
        if n:
            acc[v] = n
        else:
            del acc[v]
    return tuple(sorted(acc.items()))


Key = Tuple[int, ZKey]  # (doubled q-exponent, z-exponent key)


def _int_form(terms: Mapping) -> Tuple[int, List[tuple]]:
    """(D, [(key, n)]) with D the lcm of the denominators and each
    coefficient equal to n/D."""
    d = lcm(*{c.denominator for c in terms.values()})
    return d, [(k, c.numerator * (d // c.denominator)) for k, c in terms.items()]


class Series:
    """Sparse truncated Laurent series in q^(1/2) and charge variables z_i.

    terms: {(q2, zkey): Fraction}; every stored q2 <= trunc2 and no stored
    coefficient is zero.  trunc2 is the doubled inclusive truncation order.
    """

    __slots__ = ("trunc2", "terms")

    def __init__(self, trunc2: int, terms: Optional[dict] = None, clean: bool = True):
        self.trunc2 = trunc2
        if terms is None:
            self.terms = {}
        elif clean:
            self.terms = {k: c for k, c in terms.items() if c and k[0] <= trunc2}
        else:
            self.terms = terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(N: HalfLike) -> "Series":
        return Series(to2(N), {}, clean=False)

    @staticmethod
    def const(c, N: HalfLike) -> "Series":
        c = Fraction(c)
        t2 = to2(N)
        return Series(t2, {(0, ()): c} if c and t2 >= 0 else {}, clean=False)

    @staticmethod
    def one(N: HalfLike) -> "Series":
        return Series.const(1, N)

    @staticmethod
    def monomial(c, qexp: HalfLike, N: HalfLike, z: Mapping[int, HalfLike] = ()) -> "Series":
        c = Fraction(c)
        q2 = to2(qexp)
        t2 = to2(N)
        if not c or q2 > t2:
            return Series(t2, {}, clean=False)
        return Series(t2, {(q2, zkey(z)): c}, clean=False)

    # -- basic observers ----------------------------------------------------

    @property
    def truncation(self) -> Fraction:
        return Fraction(self.trunc2, 2)

    def min2(self) -> Optional[int]:
        return min((k[0] for k in self.terms), default=None)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff_z(self, var: int, m: HalfLike) -> "Series":
        """The z_var^m slice; q-series free of z_var."""
        m2 = to2(m)
        out = {}
        for (q2, zk), c in self.terms.items():
            d = dict(zk)
            if d.pop(var, 0) == m2:
                out[(q2, tuple(sorted(d.items())))] = c
        return Series(self.trunc2, out, clean=False)

    # -- ring operations ----------------------------------------------------

    def _coerced(self, other) -> Optional["Series"]:
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.const(other, Fraction(self.trunc2, 2))
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        t2 = min(self.trunc2, o.trunc2)
        out = dict(self.terms)
        for k, c in o.terms.items():
            n = out.get(k, ZERO) + c
            if n:
                out[k] = n
            else:
                out.pop(k, None)
        return Series(t2, out)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.trunc2, {k: -c for k, c in self.terms.items()}, clean=False)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Series":
        c = Fraction(c)
        if not c:
            return Series(self.trunc2, {}, clean=False)
        return Series(self.trunc2, {k: c * v for k, v in self.terms.items()}, clean=False)

    def shift(self, qexp: HalfLike, z: Mapping[int, HalfLike] = ()) -> "Series":
        """Multiply by the monomial q^qexp * z^..., adjusting the truncation."""
        q2 = to2(qexp)
        zk = zkey(z)
        out = {(a2 + q2, _zmul(k, zk)): c for (a2, k), c in self.terms.items()}
        return Series(self.trunc2 + q2, out, clean=False)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        amin, bmin = self.min2(), other.min2()
        if amin is None or bmin is None:
            # zero operand: its O(q^(trunc+)) tail still meets the other factor
            if amin is None and bmin is None:
                t2 = min(self.trunc2, other.trunc2)
            elif amin is None:
                t2 = self.trunc2 + bmin
            else:
                t2 = other.trunc2 + amin
            return Series(t2, {}, clean=False)
        t2 = min(self.trunc2 + bmin, other.trunc2 + amin)
        da = lcm(*{c.denominator for c in self.terms.values()})
        db, b = _int_form(other.terms)
        out = {}
        for (a2, az), ac in self.terms.items():
            an = ac.numerator * (da // ac.denominator)
            lim = t2 - a2
            for (b2, bz), bn in b:
                if b2 > lim:
                    continue
                k = (a2 + b2, _zmul(az, bz))
                out[k] = out.get(k, 0) + an * bn
        d = da * db
        return Series(t2, {k: Fraction(n, d) for k, n in out.items() if n},
                      clean=False)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Series":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        result = Series.one(Fraction(self.trunc2, 2))
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def invert(self) -> "Series":
        """Multiplicative inverse; the lowest q-layer must be one monomial.

        With self = lead * (1 + u) and val(u) > 0, the q-layers of
        g = 1/(1 + u) follow g_0 = 1, g_n = -sum_{0<k<=n} u_k g_(n-k); each
        layer is a {zkey: numerator} dict over one denominator, so charge
        variables ride along and the sum adds integers.
        """
        v2 = self.min2()
        if v2 is None:
            raise NotInvertible("cannot invert the zero series")
        lead = [(k, c) for k, c in self.terms.items() if k[0] == v2]
        if len(lead) != 1:
            raise NotInvertible("lowest q-layer has %d monomials" % len(lead))
        (_, lzk), lc = lead[0]
        inv_zk = tuple((v, -e2) for v, e2 in lzk)
        u = {}  # doubled q-exponent (> 0) -> {zkey: coefficient}
        for (a2, az), c in self.terms.items():
            if a2 != v2:
                u.setdefault(a2 - v2, {})[_zmul(az, inv_zk)] = c / lc
        u_layers = [(e, *_int_form(ul)) for e, ul in sorted(u.items())]
        step = gcd(*u) or 1  # every reachable exponent is a multiple of step
        g = {0: (1, {(): 1})}  # q-layer -> (denominator, {zkey: numerator})
        for n in range(step, self.trunc2 - v2 + 1, step):
            # absent g layers: n - e is unreachable or vanishes
            parts = [(ud, ul, g[n - e]) for e, ud, ul in u_layers
                     if e <= n and n - e in g]
            # a list, not a generator: lcm(*generator) resizes its argument
            # tuple, and the resized tuples pile up on CPython's free lists
            den = lcm(*[ud * gd for ud, _, (gd, _) in parts])
            acc = {}
            for ud, ul, (gd, gl) in parts:
                f = den // (ud * gd)
                for uz, un in ul:
                    m = un * f
                    for gz, gn in gl.items():
                        k = _zmul(uz, gz)
                        acc[k] = acc.get(k, 0) - m * gn
            r = gcd(den, *acc.values())
            layer = {k: c // r for k, c in acc.items() if c}
            if layer:
                g[n] = (den // r, layer)
        ln, ld = lc.numerator, lc.denominator
        out = {(n - v2, _zmul(gz, inv_zk)): Fraction(gn * ld, gd * ln)
               for n, (gd, gl) in g.items() for gz, gn in gl.items()}
        return Series(self.trunc2 - 2 * v2, out)

    def truncate(self, N: HalfLike) -> "Series":
        t2 = to2(N)
        if t2 >= self.trunc2:
            return Series(self.trunc2, dict(self.terms), clean=False)
        return Series(t2, {k: c for k, c in self.terms.items() if k[0] <= t2}, clean=False)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.trunc2 == o.trunc2 and self.terms == o.terms

    def __hash__(self):
        return hash((self.trunc2, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def __repr__(self):
        bits = []
        for (q2, zk), c in self.sorted_terms()[:8]:
            mono = []
            if q2:
                mono.append("q^%s" % half_str(q2))
            for v, e2 in zk:
                mono.append("z%d^%s" % (v, half_str(e2)))
            bits.append("%s%s" % (c, ("*" + "*".join(mono)) if mono else ""))
        if len(self.terms) > 8:
            bits.append("...")
        return "Series[%s; O(q^%s)]" % (" + ".join(bits) or "0", half_str(self.trunc2))


def first_difference(a: Series, b: Series):
    """First differing monomial up to the common truncation, or None.

    Returns (q2, zkey, coeff_a, coeff_b) ordered by (q-exponent, z-key).
    """
    t2 = min(a.trunc2, b.trunc2)
    keys = set(k for k in a.terms if k[0] <= t2) | set(k for k in b.terms if k[0] <= t2)
    for k in sorted(keys):
        ca = a.terms.get(k, ZERO)
        cb = b.terms.get(k, ZERO)
        if ca != cb:
            return (k[0], k[1], ca, cb)
    return None


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
        self.s = Fraction(s)
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
        return Param(1 / self.s, 0, Fraction(-self.e2, 2), self.zvar, self.sign)

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
        return Param(self.s, Fraction(n2, 2), Fraction(self.e2, 2),
                     self.zvar, self.sign)

    def __repr__(self):
        bits = ["%s" % self.value_coeff]
        if self.d2:
            bits.append("q^%s" % half_str(self.d2))
        if self.e2:
            bits.append("z%d^%s" % (self.zvar, half_str(self.e2)))
        return "Param(%s)" % "*".join(bits)


def power(p: Param, r: HalfLike, N: HalfLike) -> Series:
    """The single-monomial series p**r at truncation N."""
    c, q2, zk = p.pow_monomial(r)
    if not c:
        return Series.zero(N)
    return Series(to2(N), {(q2, zk): c})


def _one_minus(p: Param, N: HalfLike) -> Series:
    """The factor 1 - p at truncation N."""
    return Series.one(N) - power(p, 1, N)


def c_term(t: Param, N: HalfLike) -> Series:
    """beta(t) = 1/(t^(-1/2) - t^(1/2)) = t^(1/2)/(1 - t)."""
    if t.is_zero:
        raise DegenerateParameter("beta at the zero parameter")
    if t.d2 == 0 and t.e2 == 0 and t.value_coeff == 1:
        raise DegenerateParameter("beta has a pole at t = 1")
    return power(t, Fraction(1, 2), N) * _one_minus(t, N).invert()


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
    out = Series.one(N)
    if a.is_zero or n == 0:
        return out
    t2 = to2(N)
    for i in range(n):
        if a.d2 + 2 * i > t2:
            break  # remaining factors are 1 + O(q^(>N))
        out = out * _one_minus(a.qshift(i), N)
    return out


def pochhammer_inf(a: Param, N: HalfLike) -> Series:
    """(a)_inf = prod_{i>=0} (1 - a q^i), truncated at q^N.

    Requires q-valuation of a to be >= 0 (guaranteed by Param).  A d = 0
    argument contributes a scalar factor (1 - s^2) at i = 0 and truncatable
    factors afterwards; s^2 = 1 there gives the exact value 0.
    """
    if a.is_zero:
        return Series.one(N)
    if a.e2 and a.d2 == 0:
        raise NonTruncatable("(a)_inf with a pure charge monomial never truncates")
    t2 = to2(N)
    out = Series.one(N)
    i = 0
    while True:
        if a.d2 + 2 * i > t2 and i > 0:
            break
        out = out * _one_minus(a.qshift(i), N)
        if out.is_zero():
            break
        i += 1
    return out


@lru_cache(maxsize=64)
def _qinf_inv(t2: int, m: int) -> Series:
    """(q)_inf^(-m) to the doubled truncation t2, built once per (t2, m).
    Every caller gets the same Series, so none may change its terms."""
    if m == 1:
        return pochhammer_inf(Param(1, 1), Fraction(t2, 2)).invert()
    return _qinf_inv(t2, 1) ** m


def qhyper(upper: Sequence[Param], lower: Sequence[Param], arg: Param,
           N: HalfLike) -> Series:
    """Basic hypergeometric series rPhis(upper; lower; q, arg).

    Term n: prod (a)_n / (prod (b)_n (q)_n) * ((-1)^n q^(n(n-1)/2))^(1+s-r)
    * arg^n.  Truncation relies on the guaranteed valuation
    n*val(arg) + max(0, 1+s-r)*n(n-1)/2 growing past N.
    """
    r, s = len(upper), len(lower)
    extra = 1 + s - r
    t2 = to2(N)
    if arg.is_zero:
        return Series.one(N)
    v2 = arg.qval2()
    if extra < 0 or (extra == 0 and v2 <= 0):
        raise NonTruncatable("term valuations of this rPhis do not diverge")
    out = Series.one(N)   # n = 0 term
    term = Series.one(N)  # running term, updated incrementally
    n = 1
    while n * v2 + extra * n * (n - 1) <= t2:
        for a in upper:
            if a.is_zero:
                continue
            term = term * _one_minus(a.qshift(n - 1), N)
        for b in lower:
            if b.is_zero:
                raise DegenerateParameter("zero lower parameter")
            bq = b.qshift(n - 1)
            if bq.d2 == 0 and bq.value_coeff == 1:
                raise DegenerateParameter("lower Pochhammer vanishes at the leading layer")
            term = term * _one_minus(bq, N).invert()
        term = term * _one_minus(Param(1, n), N).invert()
        term = term * power(arg, 1, N)
        if extra:
            # ((-1)^n q^(n(n-1)/2))^extra, incremental: exponent step n-1
            term = term.shift(extra * (n - 1))
            if extra % 2:
                term = -term
        if term.is_zero():
            break
        out = out + term.truncate(N)
        n += 1
    return Series(t2, out.terms)


# -- theta function and jets ------------------------------------------------


def theta_jet(t: Param, k: int, N: HalfLike) -> List[Series]:
    """Jet of Theta(t) = (t^(1/2)-t^(-1/2)) (q)_inf^(-2) (qt)_inf (qt^(-1))_inf
    under t -> t e^eps, to eps-order k: entry j is (t d/dt)^j Theta / j!.

    By the Jacobi triple product Theta(t) = (q)_inf^(-3) sum_(n in Z)
    (-1)^(n+1) q^(n(n-1)/2) t^(n-1/2), so entry j weights term n by
    (n-1/2)^j / j!.
    """
    if t.e2:
        raise IllegalPower("theta of a charge-carrying point")
    if t.sign == -1:
        raise IllegalPower("theta of a negative point")
    t.pow_monomial(Fraction(1, 2))  # refuses a half-integer q-shift d
    d = t.d2 // 2
    # the sum starts at q^(-|d|/2) and costs the product with
    # (q)_inf^(-3) that much truncation, so work |d|/2 higher than asked
    t2 = to2(N) + abs(d)
    if abs(t.d2) > 2 and 2 - abs(t.d2) <= t2:
        raise IllegalPower("theta needs qval(%s) >= 0"
                           % ("qt" if t.d2 < 0 else "q/t"))
    # the q-exponent n(n-1) + d(2n-1) (doubled) is symmetric about
    # n = 1/2 - d, so terms come in pairs n = 1-d+m, -d-m with m >= 0
    acc = [{} for _ in range(k + 1)]
    m = 0
    while True:
        pair = (1 - d + m, -d - m)
        if pair[1] * (pair[1] - 1) + d * (2 * pair[1] - 1) > t2:
            break
        for n in pair:
            c, q2, _ = t.pow_monomial(Fraction(2 * n - 1, 2))
            c = c if n % 2 else -c
            key = (n * (n - 1) + q2, ())
            w = ONE
            for j in range(k + 1):
                acc[j][key] = acc[j].get(key, ZERO) + c * w
                w = w * (n - Fraction(1, 2)) / (j + 1)
        m += 1
    qinf_inv3 = _qinf_inv(t2, 3)
    return [(Series(t2, a) * qinf_inv3).truncate(N) for a in acc]


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
