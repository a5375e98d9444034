"""The references the differential tests compare the kernels against, and
the helpers the test modules share:

- the ``{key: Fraction}`` series ring (``_ref_*``), the reference of the
  Series ring operations and, factor by factor, of the chain kernel
  ``qseries._chain``;
- the factor 1 - p as a two-term Series (``_one_minus``), whose generic
  product and inverse are the references of the chain kernel's products
  and quotients;
- the level -1 one-point nest one Series per step
  (``reference_one_point_nest``), the reference of
  ``qseries._one_point_nest``;
- the Fock traces from partitions enumerated by ``fock.mod_partitions``:
  side tables (``enumerated_side_table``) joined by the pair pass
  ``pair_traces`` and read by the ``reference_*`` functions;
- the duality trace as one product of multi-variable series per map from
  the points to the factors (``product_duality_trace``), sliced by charge;
- set partitions, whose sum ``modesum``'s subset recursion computes;
- the argparse parser of the command line with its rewrite of negative
  values (``reference_parse_args``), the reference of ``cli._parse_args``;
- the module's instance found from the level in Fractions
  (``reference_module_instance``), the reference of
  ``closedform.module_instance``, and a series printed through
  ``Fraction`` (``reference_readout``), the reference of
  ``Series.reduced_terms`` and the text built on it.

A change that replaces a kernel's loop points that kernel's test at its
reference here, and does not keep the old loop as a second one.
"""

import argparse
import itertools
import math
from collections import defaultdict
from fractions import Fraction as F
from functools import lru_cache
from operator import add, mul

from hypothesis import strategies as st

from qfock import closedform as cf, fock
from qfock.combinat import weyl_group
from qfock.fock import CHARGED
from qfock.qseries import (
    IllegalPower,
    NonTruncatable,
    NotInvertible,
    Param,
    QSeriesError,
    Series,
    _chain,
    _factor,
    _half,
    _q_factor,
    _reduced,
    _zmul,
    beta_scalar,
    to2,
)


# -- shared helpers and strategies ------------------------------------------


def pts(*svals):
    return [Param(s) for s in svals]


def qcoeff(s, qexp):
    """The z-free coefficient of q^qexp in s, an order within its truncation
    that carries no charge variable."""
    q2 = to2(qexp)
    assert q2 <= s.trunc2
    assert all(zk == () for a2, zk in s.terms if a2 == q2)
    return s.terms.get((q2, ()), 0)


def _outcome(f, *args):
    try:
        return f(*args)
    except QSeriesError as exc:
        return type(exc)


def _outcome_and_message(f, *args):
    """f(*args), or the type and message of whatever it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# a rational point s^2 with s != 0, +-1
point_st = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)) \
    .filter(lambda s: abs(s) != 1).map(Param)

HALVES = st.sampled_from([F(k, 2) for k in range(17)])


@st.composite
def any_point(draw):
    """A point s^2 q^d z^e of either sign: mostly scalar, sometimes zero,
    q-shifted or charged."""
    sign = draw(st.sampled_from([1, 1, -1]))
    s = draw(st.fractions(-3, 3, max_denominator=7))
    if not s:
        return Param(0, sign=sign)
    return Param(s, draw(st.sampled_from([0, 0, 0, F(1, 2), 1])),
                 draw(st.sampled_from([0, 0, 0, 1])), sign=sign)


def weyl_zsum(wtype, rho):
    """sum_sigma sign(sigma) * prod_i z_i^((sigma rho)_i) as a z-polynomial."""
    l = len(rho)
    acc = Series.zero(0)
    for w, sgn in weyl_group(wtype, l):
        srho = w.act([F(r) for r in rho])
        acc = acc + Series.monomial(sgn, 0, 0,
                                    {i + 1: srho[i] for i in range(l)})
    return acc


# -- the {key: Fraction} ring ------------------------------------------------
#
# A series is (trunc2, {(q2, zkey): Fraction}), the form Series stored before
# it held integer numerators over one denominator, computed with one
# Fraction per coefficient.


def _ref(s):
    return s.trunc2, s.terms


def _ref_kept(t2, terms):
    return t2, {k: c for k, c in terms.items() if c and k[0] <= t2}


def _ref_add(a, b, sign=1):
    out = dict(a[1])
    for k, c in b[1].items():
        out[k] = out.get(k, F(0)) + sign * c
    return _ref_kept(min(a[0], b[0]), out)


def _ref_scale(a, c):
    return _ref_kept(a[0], {k: v * c for k, v in a[1].items()})


def _ref_mul(a, b):
    (ta, at), (tb, bt) = a, b
    if not at or not bt:
        t2 = (min(ta, tb) if not at and not bt else
              ta + min(q2 for q2, _ in bt) if not at else
              tb + min(q2 for q2, _ in at))
        return t2, {}
    t2 = min(ta + min(q2 for q2, _ in bt), tb + min(q2 for q2, _ in at))
    out = {}
    for (a2, az), ac in at.items():
        for (b2, bz), bc in bt.items():
            k = (a2 + b2, _zmul(az, bz))
            out[k] = out.get(k, F(0)) + ac * bc
    return _ref_kept(t2, out)


def _ref_invert(a):
    """1/a by g_n = -sum_(0<e<=n) u_e g_(n-e) over all doubled exponents,
    one Fraction per coefficient."""
    t2, at = a
    if not at:
        raise NotInvertible("cannot invert the zero series")
    v2 = min(q2 for q2, _ in at)
    lead = [(k, c) for k, c in at.items() if k[0] == v2]
    if len(lead) != 1:
        raise NotInvertible("lowest q-layer has %d monomials" % len(lead))
    (_, lzk), lc = lead[0]
    inv_zk = tuple((v, -e2) for v, e2 in lzk)
    u = {(a2 - v2, _zmul(az, inv_zk)): c / lc
         for (a2, az), c in at.items() if a2 != v2}
    g = {(0, ()): F(1)}
    for n in range(1, t2 - v2 + 1):
        for (e, uz), uc in u.items():
            for (m, gz), gc in list(g.items()):
                if m == n - e:
                    k = (n, _zmul(uz, gz))
                    g[k] = g.get(k, F(0)) - uc * gc
    return _ref_kept(t2 - 2 * v2, {(n - v2, _zmul(gz, inv_zk)): c / lc
                                   for (n, gz), c in g.items()})


def _ref_times_factor(a, f):
    """a (1 - p) for the chain factor f = (A, B, d2, ze) of qseries._factor,
    p = A/B q^(d2/2) z^ze: a - p a, kept to a's truncation."""
    A, B, d2, ze = f
    t2, at = a
    out = dict(at)
    for (q2, zk), c in at.items():
        k = (q2 + d2, _zmul(zk, ze))
        out[k] = out.get(k, F(0)) - F(A, B) * c
    return _ref_kept(t2, out)


def _ref_over_factor(a, f):
    """a / (1 - p) for the chain factor f, d2 > 0, as the geometric sum of
    p^j a over every j that reaches a's truncation."""
    A, B, d2, ze = f
    t2, at = a
    v2 = min((q2 for q2, _ in at), default=t2)
    out, (c, j2, jz) = {}, (F(1), 0, ())  # p^j as (coefficient, q2, zkey)
    while v2 + j2 <= t2:
        for (q2, zk), x in at.items():
            k = (q2 + j2, _zmul(zk, jz))
            out[k] = out.get(k, F(0)) + c * x
        c, j2, jz = c * F(A, B), j2 + d2, _zmul(jz, ze)
    return _ref_kept(t2, out)


def _one_minus(p, N):
    """The factor 1 - p at truncation N as a two-term Series: the
    coefficient of p = sign * s^2 q^d z^e is sign * a^2 / b^2 for s = a/b."""
    t2 = to2(N)
    den = p.s.denominator ** 2
    nums = {(0, ()): den} if t2 >= 0 else {}
    if p.d2 <= t2:
        k = (p.d2, ((p.zvar, p.e2),) if p.e2 else ())
        n = nums.get(k, 0) - p.sign * p.s.numerator ** 2
        if n:
            nums[k] = n
        else:
            del nums[k]
    return _reduced(t2, den, nums)


def reference_one_point_nest(t, N):
    """The level -1 one-point nest of closedform.one_point_minus1 built one
    Series per step, for N >= 0: the partial sums S_m of
    r_j = r_(j-1) (1 - tq^j)/(1 - q^j), each kept to q^(N - m) by
    truncate, _chain and +, then X <- q (S_m + X)/((1 - q^m)(1 - tq^m)) by
    +, shift and _chain for m = floor(N), ..., 1."""
    n2 = to2(N)
    top = n2 // 2
    r, s, sums = Series.one(N), Series.zero(N), []
    for m in range(1, top + 1):
        # r becomes (tq)_(m-1)/(q)_(m-1) and s S_m, both to q^(N-m)
        r = r.truncate(_half(n2 - 2 * m))
        if m > 1:
            r = _chain(r, (_factor(t, m - 1),), (_q_factor(2 * m - 2),))
        s = s + r
        sums.append(s)
    x = Series.zero(_half(n2 - 2 * top))
    for m in range(top, 0, -1):
        x = (sums[m - 1] + x).shift(1)
        x = _chain(x, (), (_q_factor(2 * m), _factor(t, m)))
    return x


def _ref_coeff_z(a, var, m2):
    out = {}
    for (q2, zk), c in a[1].items():
        d = dict(zk)
        if d.pop(var, 0) == m2:
            out[(q2, tuple(sorted(d.items())))] = c
    return a[0], out


# -- Fock traces from enumerated partitions ----------------------------------


def enumerated_side_table(points, alpha, gamma, consts, budget2, strict):
    """One partition factor as ({length: [(w2, row), ...] in increasing w2},
    dens), one row per partition lam of fock.mod_partitions added into its
    (w2, length) key.  row[S] is dens_S prod_(j in S) v_j(lam), v_j = alpha
    S+_lam(t_j) + gamma S-_lam(t_j) + consts[j], for every subset S (a bit
    mask) of the points; dens_S is the product of dens[j] over S, and
    row[0] counts the partitions."""
    top = (budget2 + 1) // 2
    k = max(2 * top - 1, 0)
    per_part, ints, dens = [], [], []
    for pt, c in zip(points, consts):
        r = pt.scalar_pow(F(1, 2))
        d = math.lcm(r.numerator ** k, r.denominator ** k,
                     beta_scalar(pt).denominator)
        vals = [alpha * r ** (2 * p - 1) + gamma * r ** (1 - 2 * p)
                for p in range(1, top + 1)]
        per_part.append([0] + [int(v * d) for v in vals])
        ints.append(int(c * d))
        dens.append(d)
    table = {}
    for w2, parts in fock.mod_partitions(budget2, strict):
        row = [1]
        for u, c in zip(per_part, ints):
            v = c + sum(u[p] for p in parts)
            row += [x * v for x in row]
        key = (w2, len(parts))
        table[key] = list(map(add, table[key], row)) if key in table else row
    grouped = {}
    for (w2, ln), row in sorted(table.items()):
        grouped.setdefault(ln, []).append((w2, row))
    return grouped, dens


def charged_sides(kind, op_tag, points, budget2):
    """The lam-side and mu-side tables of a charged pair and their dens,
    for the operator A or for C and D (A(t) - A(t^(-1)))."""
    betas = [fock.CENTRAL_SIGN[kind] * beta_scalar(p) for p in points]
    zeros = [0] * len(points)
    sides = (((1, -1, zeros), (1, -1, [2 * b for b in betas]))
             if op_tag in ("C", "D") else ((1, 0, zeros), (0, -1, betas)))
    (lam, dens), (mu, _) = [
        enumerated_side_table(points, alpha, gamma, consts, budget2,
                              kind == "fermion_pair")
        for alpha, gamma, consts in sides]
    return lam, mu, dens


def pair_traces(lam, mu, dens, weight, N2):
    """Pair traces from two side tables, as ([den per mask], {bucket:
    [{q2: numerator} per mask]}) for every point mask T: per pair of keys,
    the subset products sum_(S in T) a[S] b[T - S].  weight(len_lam,
    len_mu) gives (rational coefficient, extra doubled q-exponent, bucket),
    or None to skip."""
    masks = range(1 << len(dens))
    splits = [list(zip(*[(S, T ^ S) for S in range(T + 1) if S & T == S]))
              for T in masks]
    weights = {}
    for ll in lam:
        for lm in mu:
            wt = weight(ll, lm)
            if wt is not None:
                weights[ll, lm] = wt
    wden = math.lcm(*[c0.denominator for c0, _, _ in weights.values()])
    buckets = defaultdict(lambda: [{} for _ in masks])
    for (ll, lm), (c0, dq2, bucket) in weights.items():
        lrows, mrows = lam[ll], mu[lm]
        cap = N2 - max(dq2, 0)
        if lrows[0][0] + mrows[0][0] > cap:
            continue
        c0 = c0.numerator * (wden // c0.denominator)
        accs = buckets[bucket]
        for wl2, a in lrows:
            for wm2, b in mrows:
                if wl2 + wm2 > cap:
                    break
                q2 = wl2 + wm2 + dq2
                for acc, (Ss, Rs) in zip(accs, splits):
                    c = sum(map(mul, map(a.__getitem__, Ss),
                                map(b.__getitem__, Rs)))
                    if c:
                        acc[q2] = acc.get(q2, 0) + c0 * c
    return [wden * math.prod(d for j, d in enumerate(dens) if T >> j & 1)
            for T in masks], buckets


def reference_a_sector_traces(points, N2, charges):
    """fock.a_sector_rows as series, {m: [series per mask]}, from the pair
    pass over side tables."""
    fock._require_scalar_points(points)
    charges = set(charges)
    dens, buckets = pair_traces(
        *charged_sides("boson_pair", "A", points, N2),
        lambda ll, lm: (1, 0, lm - ll) if lm - ll in charges else None, N2)
    return {m: [Series.from_numerators(N2, d, {(q2, ()): c for q2, c
                                               in acc.items()})
                for d, acc in zip(dens, buckets[m])] if m in buckets
            else [Series(N2) for _ in dens] for m in charges}


def reference_trace_table(kind, op_tag, points, N2, wanted=None):
    """fock._trace_table's (dens, {bucket: [(q2, numerator) pairs by rising
    q2, zeros dropped, per point mask]}), from the side tables and pair pass: a
    charged pair's doubled charges (those in `wanted`, if given) that some
    state reaches, or a neutral factor's one bucket 0 when some state
    fits."""
    if kind not in CHARGED:
        dens, sums = reference_neutral_sums(kind, points, N2)
        buckets = {0: sums} if N2 >= 0 else {}
    else:
        e2 = -2 if kind == "boson_pair" else 2
        dens, buckets = pair_traces(
            *charged_sides(kind, op_tag, points, N2),
            lambda ll, lm: (1, 0, e2 * (ll - lm))
            if wanted is None or e2 * (ll - lm) in wanted else None, N2)
    return dens, {e: [sorted((q2, c) for q2, c in acc.items() if c)
                      for acc in accs] for e, accs in buckets.items()}


def reference_neutral_traces(kind, points, N2):
    return [Series.from_numerators(N2, d, {(q2, ()): c for q2, c
                                           in acc.items()})
            for d, acc in zip(*reference_neutral_sums(kind, points, N2))]


def reference_neutral_sums(kind, points, N2):
    """A neutral factor's ([den per mask], [{q2: numerator} per mask]) for
    every point mask."""
    betas = [fock.CENTRAL_SIGN[kind] * beta_scalar(p) for p in points]
    table, dens = enumerated_side_table(points, 1, -1, betas, N2,
                                        kind == "fermion_neutral")
    masks = range(1 << len(points))
    sums = [defaultdict(int) for _ in masks]
    for group in table.values():
        for w2, row in group:
            for acc, T_ in zip(sums, masks):
                acc[w2] += row[T_]
    return [math.prod(d for j, d in enumerate(dens) if T_ >> j & 1)
            for T_ in masks], sums


def reference_a_trace(kind, points, N, weight):
    """One z-carrying series, the bucket of each weight a z-key."""
    fock._require_scalar_points(points)
    N2 = to2(N)
    dens, buckets = pair_traces(
        *charged_sides(kind, "A", points, N2), weight, N2)
    return Series.from_numerators(N2, dens[-1], {
        (q2, zk): c for zk, accs in buckets.items()
        for q2, c in accs[-1].items()})


def reference_a_generalized_trace(x, y, points, N):
    def weight(ll, lm):
        cx, qx2, zx = x.pow_monomial(ll)
        cy, qy2, zy = y.pow_monomial(lm)
        return (cx * cy, qx2 + qy2, _zmul(zx, zy)) if cx and cy else None

    return reference_a_trace("boson_pair", points, N, weight)


def reference_f1_charged_trace(z, points, N):
    """Only a z free of q: the pair pass keeps E <= N before it weighs a
    state, so a power of q in z would drop states it lowers under q^N."""
    if z.d2:
        raise NonTruncatable("a z with a power of q moves states across q^N")

    def weight(ll, lm):
        c, q2, zk = z.pow_monomial(ll - lm)
        return (c, q2, zk) if c else None

    return reference_a_trace("fermion_pair", points, N, weight)


# -- the duality trace as a product of multi-variable series -----------------


def product_duality_trace(factors, op_tag, points, N):
    """Reference duality trace: every factor's subset tables, charge
    variables and all, multiplied into one multi-variable series per
    assignment of points to factors, summed.

    Each factor's knapsack table, read with every bucket a state within
    the budget reaches, is joined back into one series, with factor i's
    doubled charge e carried as z_(i+1)^(e/2).
    """
    fock.check_duality(factors, op_tag, points)
    N2 = to2(N)
    n = len(points)
    tables = []
    for i, kind in enumerate(factors):
        dens, split = fock._trace_table(kind, op_tag, points, N2)
        tables.append([
            Series.from_numerators(N2, dens[T], {
                (q2, ((i + 1, e),) if e else ()): c
                for e, rows in split.items() for q2, c in rows[T]})
            for T in range(1 << n)])
    total = Series.zero(F(N2, 2))
    for phi in itertools.product(range(len(factors)), repeat=n):
        prod = None
        for i in range(len(factors)):
            t = tables[i][sum(1 << j for j in range(n) if phi[j] == i)]
            prod = t if prod is None else prod * t
        total = total + prod
    return total.truncate(F(N2, 2))


def _zvars(factors):
    return [i + 1 for i, kind in enumerate(factors) if kind in CHARGED]


def charge_vectors(trace, factors):
    """The doubled charge vectors, one entry per charged factor, of the
    z-monomials present in a z-carrying trace."""
    zvars = _zvars(factors)
    return sorted({tuple(dict(zk).get(v, 0) for v in zvars)
                   for _, zk in trace.terms})


def charge_slice(trace, factors, c):
    """[z^c] of a z-carrying trace, for a doubled charge vector c."""
    want = tuple((v, e) for v, e in zip(_zvars(factors), c) if e)
    return Series(trace.trunc2, {(q2, ()): x for (q2, zk), x
                                 in trace.terms.items() if zk == want})


def sliced_duality_trace(factors, op_tag, points, N, charges):
    """Reference of fock.duality_trace: sum_c sgn_c [z^c] of
    product_duality_trace."""
    full = product_duality_trace(factors, op_tag, points, N)
    return sum((charge_slice(full, factors, c).scale(sgn)
                for c, sgn in charges.items()), Series.zero(N))


# -- set partitions ----------------------------------------------------------


def set_partitions(items):
    """All partitions of the item sequence into nonempty unordered blocks."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(head,) + part[i]] + part[i + 1:]
        yield [(head,)] + part


# -- the command line --------------------------------------------------------


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="qfock",
        description="Exact correlation functions and graded dimensions of "
                    "negative-level Fock-space modules.")
    sub = top.add_subparsers(dest="command", required=True)

    def series_flags(p):
        p.add_argument("--N", default="10",
                       help="truncation order in q (integer or k/2)")
        p.add_argument("--format", default="pretty",
                       choices=["json", "csv", "pretty"])

    p = sub.add_parser("corr", help="n-point correlation function")
    p.add_argument("--algebra", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--lambda", default="", dest="lambda",
                   help="comma-separated weight label")
    p.add_argument("--points", nargs="*", default=[], action="extend",
                   help="point s-values p/q, optional q-shift p/q:d")
    p.add_argument("--mode", default="oracle",
                   choices=["oracle", "assignment", "literal"])
    series_flags(p)

    p = sub.add_parser("qdim", help="graded dimension")
    p.add_argument("--algebra", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--lambda", default="", dest="lambda")
    p.add_argument("--form", default="weyl", choices=["weyl", "product"])
    series_flags(p)

    p = sub.add_parser("identity", help="run one named identity check")
    p.add_argument("--name", required=True)
    p.add_argument("--format", default="pretty", choices=["json", "pretty"])

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--filter", default="", help="glob on check names")
    p.add_argument("--format", default="pretty", choices=["json", "pretty"])

    p = sub.add_parser("dump", help="serialize a generating function")
    p.add_argument("name", help="theta | f_bo | pochhammer | qhyper")
    p.add_argument("params", nargs="*", help="key=value parameters")
    p.add_argument("--format", default="json",
                   choices=["json", "csv", "pretty"])
    return top


def _bind_negative_values(argv):
    """Write "--level -3/2" as "--level=-3/2" (and likewise for --lambda and
    --N), and every value after --points as its own "--points=v": argparse
    reads a word that starts with '-' as an option unless it is a plain
    negative number, so values such as -3/2 or -1,-2 need the '=' form, and
    the '=' form binds one value, which --points (action="extend") collects
    in order.
    """
    out = []
    in_points = False
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdigit()
        if in_points and (negative or arg[:1] != "-"):
            out.append("--points=" + arg)
            continue
        if out and out[-1] in ("--level", "--lambda", "--N") and negative:
            out[-1] += "=" + arg
        else:
            out.append(arg)
        in_points = arg == "--points" or arg.startswith("--points=")
    return out


def reference_parse_args(argv):
    """The attributes argparse reads from a valid argv, as a dict."""
    return vars(_build_parser().parse_args(_bind_negative_values(argv)))


def reference_module_instance(algebra, level):
    """The family whose rank (level - c_neutral) / c_pair is an integer
    >= 1, in Fractions, its level the sum of its factors' central charges,
    or the refusal."""
    level = F(level)
    for (alg, family), (kind, _, _, _, neutral) in cf._FAMILIES.items():
        c_neutral = fock.CENTRAL_CHARGE[neutral] if neutral else 0
        l = (level - c_neutral) / fock.CENTRAL_CHARGE[kind]
        if alg == algebra and l.denominator == 1 and l >= 1:
            inst = cf.duality_instance(algebra, family, int(l))
            return inst._replace(level=sum(
                (fock.CENTRAL_CHARGE[k] for k in inst.factors), F(0)))
    raise IllegalPower("level %s is not realized for algebra %r"
                       % (level, algebra))


def reference_readout(s):
    """[(key, numerator, denominator, str)] of every coefficient of s in
    key order, each read through its Fraction."""
    return [(k, c.numerator, c.denominator, str(c))
            for k, c in sorted(s.terms.items())]
