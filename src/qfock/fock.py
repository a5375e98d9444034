"""Graded-trace oracles over Fock spaces.

Four factor kinds, each with its basis family and diagonal eigenvalue rule:

  boson_pair     pairs of partitions (lam, mu), central charge -1
  boson_neutral  single partitions, central charge -1/2
  fermion_pair   pairs of strict partitions, central charge +1
  fermion_neutral single strict partitions, central charge +1/2

A state's energy is sum over parts p of (p - 1/2); the diagonal operator at a
point t has eigenvalue sum(t^(p-1/2)) - sum(t^(-p+1/2)) plus a central term
+-beta(t).  Operators 'C' and 'D' act as A(t) - A(t^(-1)) on charged factors.

Subset factorization.  The eigenvalue at t_j is a constant c_j, the central
term, plus one term u_j(p) per part p of lam and of mu.  For A(t), u_j(p) =
t_j^(p-1/2) on lam and -t_j^(-p+1/2) on mu, and c_j = +-beta(t_j).  For C
and D, t^(-1) swaps the two powers and beta(t^(-1)) = -beta(t), so u_j(p) =
t_j^(p-1/2) - t_j^(-p+1/2) on both sides and c_j = +-2 beta(t_j): no inverse
points are needed.  A neutral factor has one side with that u_j and c_j =
+-beta(t_j).  In Z[x_1..x_n]/(x_j^2) the x^S coefficient of prod_j (1 + v_j
x_j) is prod_(j in S) v_j, and as x_j^2 = 0 this product for a state is
prod_j (1 + c_j x_j) times f_p = prod_j (1 + u_j(p) x_j) for every part p
(m copies of p give f_p^m).  So, like a partition generating function
(Andrews, The Theory of Partitions, ch. 1), a trace is a product over parts,
built as one knapsack over the parts of both sides, in the order
``_trace_table`` gives, with states keyed by (energy, bucket); no partition
is enumerated and no two tables are convolved.  A part also multiplies the
weight: x^len(lam) y^len(mu) gives one monomial per part, which moves the
energy by its q-power and the bucket by its z-power.  The bucket is the
doubled z-exponent, by default the pair's charge.  States that cannot
reach a bucket asked for in the energy left are dropped: one knapsack
serves exactly the charges and operator subsets a caller asks for.

Integer constants.  With t_j^(1/2) = a/b in lowest terms, beta(t_j) =
ab/(b^2 - a^2) is in lowest terms too, so dens[j] = lcm(a^k, b^k,
b^2 - a^2), k the largest odd power a part reaches, clears every eigenvalue
at t_j, and c_j dens[j] = +-ab dens[j]/(b^2 - a^2), doubled for C and D on
a pair: no Fraction is built per point, and a = +-b (t = 1, the pole of
beta) is refused.

Duality traces.  ``duality_trace`` reads a signed sum of z-coefficients of
a tensor product's trace (the Weyl shifts of a labeled trace) from one
table per factor kind, without enumerating the assignments of points to
factors: a trie of subset convolutions over point masks, on integer rows
over one denominator (see its docstring).

Rows.  A ``Row`` is (den, [(q2, numerator), ...]): rising q2 in [0, N2],
no zero numerator, no z-key, not reduced.  The knapsack fills every point
mask on the way to any one and hands out one Row per mask T = 0 .. 2^n - 1,
the row at T over scale prod_(j in T) dens[j] (a full-mask reader takes
the last); ``a_sector_rows`` and ``_neutral_rows`` pass them on, the trie
and closedform's fold read their pairs, and ``row_series`` is the one way
from a Row to a series.

These oracles require plain rational scalar points (d = 0); modesum.py
resums shifted ones.  ``duality_trace_direct`` enumerates tensor-product
states one by one as the independent cross-check of the factorized traces.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Dict, List, Mapping, Sequence, Tuple

from .qseries import (
    CapExceeded,
    DegenerateParameter,
    NonTruncatable,
    Param,
    QSeriesError,
    Series,
    _factor,
    beta_scalar,
    to2,
)

F = Fraction

CENTRAL_SIGN = {
    "boson_pair": +1,
    "boson_neutral": +1,
    "fermion_pair": -1,
    "fermion_neutral": -1,
}
CENTRAL_CHARGE = {
    "boson_pair": F(-1),
    "boson_neutral": F(-1, 2),
    "fermion_pair": F(1),
    "fermion_neutral": F(1, 2),
}
CHARGED = {"boson_pair", "fermion_pair"}
STRICT = {"fermion_pair", "fermion_neutral"}  # strict partitions
LEGAL_OPS = {
    "boson_pair": {"A", "C", "D"},
    "fermion_pair": {"A", "C", "D"},
    "boson_neutral": {"C"},
    "fermion_neutral": {"D"},
}


@lru_cache(maxsize=4)  # the verify suite reads two budgets; keep a few
def mod_partitions(budget2: int, strict: bool = False) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """All partitions with doubled modified weight 2|lam| - len <= budget2,
    as (w2, parts) pairs: the package's one partition enumerator."""
    out: List[Tuple[int, Tuple[int, ...]]] = []

    def rec(rem2: int, top: int, prefix: Tuple[int, ...]):
        out.append((budget2 - rem2, prefix))
        hi = min(top, (rem2 + 1) // 2)
        for part in range(hi, 0, -1):
            cost = 2 * part - 1
            if cost <= rem2:
                rec(rem2 - cost, part - 1 if strict else part, prefix + (part,))

    if budget2 >= 0:
        rec(budget2, (budget2 + 1) // 2, ())
    return tuple(out)


def _check_op(kind: str, op_tag: str) -> None:
    if op_tag not in LEGAL_OPS[kind]:
        raise QSeriesError("operator %s not defined on %s" % (op_tag, kind))


def _require_scalar_points(points: Sequence[Param]):
    for p in points:
        if p.is_zero or p.d2 != 0 or p.e2 != 0 or p.sign != 1:
            raise NonTruncatable(
                "state enumeration needs plain scalar points; "
                "use modesum for q-shifted points")


# -- the factorized trace engine --------------------------------------------


def _trace_table(kind: str, op_tag: str, points: Sequence[Param], N2: int,
                 wanted=None, x: Param = None, y: Param = None):
    """One factor's traces as Rows, a knapsack over parts (see the module
    docstring): (dens, {bucket: [the (q2, numerator) pairs of the Row at
    each point mask T = 0 .. 2^n - 1]}), each the sum over the bucket's
    states of q^E times the weight times prod_(j in T) eigenvalue at t_j,
    times dens[T].

    On a charged pair every part of lam carries the monomial x and every
    part of mu carries y, each c q^d z^e with d >= 0 and both on one charge
    variable: c scales the weight, q^d adds to E and the bucket is the
    doubled z-exponent.  By default x and y are the charge variable's
    z^(-+1), so the bucket is the pair's doubled charge.  A neutral factor
    has one side and the one bucket 0.  With `wanted`, a set of buckets, a
    state that cannot reach one of them within the budget is dropped and
    only those buckets are returned; otherwise every bucket a state
    reaches.

    Every constant is an integer (see the module docstring), and each part
    applies prod_j (1 + u_j(p) x_j) as one list of (S, S - {j}, u_j(p))
    steps, built once per part.

    Any order of the commuting per-part factors gives the same rows (each
    v * ca // cb stays exact and `needs` ignores the order); this one does
    the least work.  A side's parts run largest first, so a level holds
    few (energy, bucket) states until the small parts come (a verify-enum
    pass visits 10,277 states, 15,020 smallest first).  The side whose
    parts raise the bucket runs first (mu on the boson pair, lam on the
    fermion pair): CPython shares small non-negative ints, and the same
    work on the mirror order's negative buckets ran about 7% slower."""
    n = len(points)
    # times 1 + u x_j, row[S] gains u * row[S - {j}] for S holding j
    steps = [[(S, S ^ 1 << j) for S in range(1 << n) if S >> j & 1]
             for j in range(n)]
    k = max(N2 - (N2 + 1) % 2, 0)  # the largest odd power a part reaches
    roots = [(p.s.numerator, p.s.denominator) for p in points]
    csign = CENTRAL_SIGN[kind] * (2 if kind in CHARGED and op_tag != "A"
                                  else 1)
    dens, consts = [], []
    for a, b in roots:
        if a * a == b * b:
            raise DegenerateParameter("beta has a pole at t = 1")
        # a common denominator of every eigenvalue at t_j within the budget
        dens.append(math.lcm(a ** k, b ** k, b * b - a * a))
        consts.append(csign * a * b * (dens[-1] // (b * b - a * a)))

    # (alpha, gamma, monomial): part p adds alpha t^(p-1/2) + gamma t^(-p+1/2)
    # and the monomial c q^d z^e, as (numerator of c, its denominator, 2d, 2e)
    if kind not in CHARGED:
        sides = [(1, -1, (1, 1, 0, 0))]
    else:
        e2 = -2 if kind == "boson_pair" else 2  # lam's z-power, doubled
        xm = (1, 1, 0, e2) if x is None else _factor(x)[:3] + (x.e2,)
        ym = (1, 1, 0, -e2) if y is None else _factor(y)[:3] + (y.e2,)
        if op_tag == "A":
            sides = [(1, 0, xm), (0, -1, ym)]
        else:  # A(t) - A(t^(-1)), see the module docstring
            sides = [(1, -1, xm), (1, -1, ym)]
        sides.sort(key=lambda side: side[2][3], reverse=True)  # bucket-raising
    # a side holds at most N2 // (1 + d) parts, each dividing by c's den
    scale = math.prod(cb ** (max(N2, 0) // (1 + d2))
                      for _, _, (_, cb, d2, _) in sides)
    start = [scale] + [0] * ((1 << n) - 1)  # prod_j (1 + c_j x_j)
    for c, step in zip(consts, steps):
        for S, R in step:
            start[S] = start[R] * c
    big = N2 + 1
    # needs[i][b]: least energy sides i.. must add to take b to a wanted
    # bucket (b absent: none within the budget)
    needs = [None] * (len(sides) + 1)
    if wanted is not None:
        needs[-1] = dict.fromkeys(wanted, 0)
        for i in range(len(sides) - 1, -1, -1):
            _, _, (_, _, d2, e2) = sides[i]
            costs, m = [], 0  # least energy m parts of the side add
            while (cost := m * (m + d2 if kind in STRICT else 1 + d2)) <= N2:
                costs.append(cost)
                m += 1
            need = {}
            for b, c in needs[i + 1].items():
                for m, cost in enumerate(costs):
                    if c + cost > N2:
                        break
                    nb = b - m * e2
                    if c + cost < need.get(nb, big):
                        need[nb] = c + cost
            needs[i] = need
    levels = [{} for _ in range(N2 + 1)]  # levels[E] = {bucket: row}
    if levels:
        levels[0][0] = start
    for i, (alpha, gamma, (ca, cb, d2, e2)) in enumerate(sides):
        need = needs[i]
        for p in range((N2 - d2 + 1) // 2, 0, -1) if ca else ():
            e, cost = 2 * p - 1, 2 * p - 1 + d2
            # u_j(p) once per point, then once per (S, R) step of point j
            us = [alpha * a ** e * (d // b ** e)
                  + gamma * b ** e * (d // a ** e)
                  for (a, b), d in zip(roots, dens)]
            ops = [(S, R, u) for u, step in zip(us, steps) for S, R in step]
            # strict parts sweep downward (used once)
            for w2 in (range(N2 - cost, -1, -1) if kind in STRICT
                       else range(N2 - cost + 1)):
                dst, room = levels[w2 + cost], N2 - w2 - cost
                for b, row in levels[w2].items():
                    nb = b + e2
                    if need is not None and need.get(nb, big) > room:
                        continue
                    # exact: the state holds fewer parts of this side than
                    # fit, and each took one factor cb of scale
                    row = row[:] if cb == ca == 1 else [v * ca // cb
                                                        for v in row]
                    for S, R, u in ops:
                        row[S] += u * row[R]
                    old = dst.get(nb)
                    dst[nb] = row if old is None else list(map(add, old, row))
        need = needs[i + 1]
        if need is not None:
            for w2, level in enumerate(levels):
                for b in [b for b in level if need.get(b, big) > N2 - w2]:
                    del level[b]
    table: Dict[int, List[List[Tuple[int, int]]]] = {}
    for w2, level in enumerate(levels):  # rising energy
        for b, row in level.items():
            if wanted is None or b in wanted:
                accs = table.setdefault(b, [[] for _ in row])
                for acc, v in zip(accs, row):
                    if v:
                        acc.append((w2, v))
    return [scale * math.prod(d for j, d in enumerate(dens) if T >> j & 1)
            for T in range(1 << n)], table


Row = Tuple[int, List[Tuple[int, int]]]  # (den, [(q2, numerator)])


def row_series(N2: int, row: Row) -> Series:
    """A Row as a z-free series to the doubled order N2, one gcd."""
    den, pairs = row
    return Series.from_numerators(N2, den, {(q2, ()): c for q2, c in pairs})


def _neutral_rows(kind: str, points: Sequence[Param], N2: int) -> List[Row]:
    """Traces over a neutral factor as Rows, one per point mask."""
    (op_tag,) = LEGAL_OPS[kind]
    dens, table = _trace_table(kind, op_tag, points, N2)
    return list(zip(dens, table.get(0, [[] for _ in dens])))


# -- the eigenvalue rule ----------------------------------------------------


def eigenvalue(kind: str, state, op_tag: str, point: Param) -> F:
    """Diagonal eigenvalue of the operator at a scalar `point` on a basis
    state: (lam, mu) for charged kinds, (lam,) for neutral kinds."""
    _check_op(kind, op_tag)
    root = point.scalar_pow(F(1, 2))
    csign = CENTRAL_SIGN[kind]

    def eig_a(lam, mu, t_root, beta):
        v = csign * beta
        for p in lam:
            v += t_root ** (2 * p - 1)
        for p in mu:
            v -= t_root ** (1 - 2 * p)
        return v

    if kind in CHARGED:
        lam, mu = state
        v = eig_a(lam, mu, root, beta_scalar(point))
        if op_tag in ("C", "D"):
            inv = point.inverse()
            v -= eig_a(lam, mu, 1 / root, beta_scalar(inv))
        return v
    lam = state[0]
    v = csign * beta_scalar(point)
    for p in lam:
        v += root ** (2 * p - 1) - root ** (1 - 2 * p)
    return v


# -- single-factor oracles --------------------------------------------------


def a_sector_rows(points: Sequence[Param], N2: int, charges,
                  op_tag: str = "A") -> Dict[int, List[Row]]:
    """Charge-m traces over the level -1 bosonic pair to the doubled order
    N2 for every m in `charges`, each at every point mask T:
    {m: [Row per mask]}, the sum over (lam, mu) with len(mu)-len(lam) = m
    of q^E prod_(j in T) (op_tag-eigenvalue at t_j).  Type a reads the
    A rule; types c and d read C = D, A(t) - A(t^(-1)), at the n points
    themselves (see the module docstring), whose rows are even in m.  The
    row at mask T lies over prod_(j in T) dens_j for every charge.  One
    knapsack serves them all; states that reach no charge asked for are
    dropped."""
    _check_op("boson_pair", op_tag)
    _require_scalar_points(points)
    charges = set(charges)
    dens, table = _trace_table("boson_pair", op_tag, points, N2,
                               {2 * m for m in charges})
    return {m: list(zip(dens, table.get(2 * m, [[] for _ in dens])))
            for m in charges}


def a_sector_trace(m: int, points: Sequence[Param], N) -> Series:
    """Charge-m trace over the level -1 bosonic pair at all the points."""
    N2 = to2(N)
    return row_series(N2, a_sector_rows(points, N2, [m])[m][-1])


def a_generalized_trace(x: Param, y: Param, points: Sequence[Param], N) -> Series:
    """tr over the full bosonic pair of x^(len lam) y^(len mu) q^E
    prod A-eigenvalues.  x, y may carry q^d with d >= 0 (the trace diverges
    for d < 0) and powers of one charge variable."""
    _require_scalar_points(points)
    if x.d2 < 0 or y.d2 < 0:
        raise NonTruncatable("trace with a negatively q-valued ratio")
    if x.e2 and y.e2 and x.zvar != y.zvar:
        raise QSeriesError("x and y must carry the same charge variable")
    N2 = to2(N)
    zvar = x.zvar if x.e2 else y.zvar
    dens, table = _trace_table("boson_pair", "A", points, N2, x=x, y=y)
    return Series.from_numerators(N2, dens[-1], {
        (q2, ((zvar, b),) if b else ()): c
        for b, rows in table.items() for q2, c in rows[-1]})


def neutral_trace(kind: str, op_tag: str, points: Sequence[Param], N) -> Series:
    """Trace over a neutral factor (single/strict partitions); eigenvalue
    sum (t^(p-1/2) - t^(-p+1/2)) +- beta per point."""
    if kind not in ("boson_neutral", "fermion_neutral"):
        raise QSeriesError("neutral_trace needs a neutral kind")
    _check_op(kind, op_tag)
    _require_scalar_points(points)
    N2 = to2(N)
    return row_series(N2, _neutral_rows(kind, points, N2)[-1])


def f1_charged_trace(z: Param, points: Sequence[Param], N) -> Series:
    """Level +1 fermionic pair trace tr z^charge q^E prod A-eigenvalues;
    charge = len(lam) - len(mu), central term -beta per point."""
    _require_scalar_points(points)
    N2 = to2(N)
    dens, table = _trace_table("fermion_pair", "A", points, N2)
    # buckets are doubled charges; from_numerators drops what q^dq2 lifts
    # above q^N
    weights = {b: z.pow_monomial(b // 2) for b in table}
    wden = math.lcm(*[c.denominator for c, _, _ in weights.values()])
    acc: Dict[Tuple[int, tuple], int] = defaultdict(int)
    for b, rows in table.items():
        c, dq2, zk = weights[b]
        c = c.numerator * (wden // c.denominator)
        for q2, v in rows[-1]:
            acc[q2 + dq2, zk] += c * v
    return Series.from_numerators(N2, wden * dens[-1], acc)


# -- multi-factor duality traces -------------------------------------------


def factor_states(kind: str, N2: int):
    """All states of one factor with energy (doubled) <= N2, as
    (energy2, charge, state) triples."""
    singles = mod_partitions(N2, kind in STRICT)
    out = []
    if kind in CHARGED:
        chsign = -1 if kind == "boson_pair" else +1  # charge of (lam, mu)
        for wl2, lam in singles:
            for wm2, mu in singles:
                if wl2 + wm2 <= N2:
                    out.append((wl2 + wm2, chsign * (len(lam) - len(mu)),
                                (lam, mu)))
    else:
        for w2, lam in singles:
            out.append((w2, 0, (lam,)))
    return out


DUALITY_CAP = 4


def check_duality(factors: Sequence[str], op_tag: str,
                  points: Sequence[Param]) -> None:
    """Refuse what ``duality_trace`` refuses, before any work is done: more
    than DUALITY_CAP charged factors (the rank ``duality_reduce`` bounds) or
    points, an operator some factor lacks, or a point that is not a scalar."""
    rank = sum(kind in CHARGED for kind in factors)
    if rank > DUALITY_CAP or len(points) > DUALITY_CAP:
        raise CapExceeded("duality trace limited to %d charged factors/points"
                          % DUALITY_CAP)
    for kind in factors:
        _check_op(kind, op_tag)
    _require_scalar_points(points)


def duality_trace(factors: Sequence[str], op_tag: str,
                  points: Sequence[Param], N,
                  charges: Mapping[Tuple[int, ...], int]) -> Series:
    """sum_c sgn_c [z^c] tr q^L0 prod_i z_i^(charge_i) prod_j Op(t_j) over
    the tensor product of factors, where Op acts as the sum of per-factor
    actions and charged factor i carries the charge variable z_(i+1).

    ``charges`` maps doubled charge vectors c, one entry per charged factor
    in factor order, to integer signs sgn_c.  Distributing the operators
    over the factors (a map phi from points to factors) and reading one
    z-monomial gives

      [z^c] tr = sum_phi prod_i [z_i^(c_i)] T_i[S_i(phi)],

    where T_i[S] is factor i's trace with the operators at the points of
    S = phi^(-1)(i) applied.  Each factor carries only its own z_i, so every
    product here is between z-free series, and [z_i^(c_i)] T_i is the same
    table for every factor of one kind; it is built once per kind.

    No map phi is enumerated.  With the neutral factors put first, the
    signed vectors are the leaves of a trie over their charge prefixes, and
    the node of a prefix p of length i sums the factors i, i + 1, ... over
    every point mask V, one subset convolution per child (Bjorklund,
    Husfeldt, Kaski and Koivisto, "Fourier meets Moebius", STOC 2007),
    factor by factor as in bucket elimination (Dechter, 1999):

      G_p[V] = sum_e sum_(S subset of V) T_i[e][S] G_(p+e)[V - S].

    The last factor only adds its rows times the leaf signs, and the root
    is read at the full mask alone.  So an interior node costs 3^n row
    convolutions per child, the root 2^n: a neutral factor's one charge 0 is
    shared there by every vector.  Every term of G_p[V] lies over one
    denominator, as a table at mask T lies over its scale times
    prod_(j in T) dens[j], dens[j] the same for every kind and operator: a
    node holds integer rows by q-exponent, each convolution stops at q^N,
    and one series is built.
    """
    check_duality(factors, op_tag, points)
    charged = [i for i, kind in enumerate(factors) if kind in CHARGED]
    for c in charges:
        if len(c) != len(charged):
            raise QSeriesError("charge vector %r needs %d entries, one per "
                               "charged factor" % (c, len(charged)))
    N2 = to2(N)
    n = len(points)
    full = (1 << n) - 1
    order = sorted(range(len(factors)), key=lambda i: factors[i] in CHARGED)
    kinds = [factors[i] for i in order]
    # each signed vector as every factor's doubled charge in that order,
    # neutral ones 0
    leaves = {tuple(dict(zip(charged, c)).get(i, 0) for i in order): sgn
              for c, sgn in charges.items() if sgn}
    read: Dict[str, set] = {kind: set() for kind in factors}
    for key in leaves:
        for kind, e in zip(kinds, key):
            read[kind].add(e)
    built = {kind: _trace_table(kind, op_tag, points, N2,
                                es if kind in CHARGED else None)
             for kind, es in read.items()}
    tables = [built[kind][1] for kind in kinds]
    level: Dict[Tuple[int, ...], List[List[int]]] = {}
    for key, sgn in leaves.items():
        if any(e not in t for t, e in zip(tables, key)):
            continue
        acc = level.setdefault(key[:-1], [[0] * (N2 + 1)
                                          for _ in range(full + 1)])
        for out, row in zip(acc, tables[-1][key[-1]]):
            for q2, c in row:
                out[q2] += sgn * c
    for i in range(len(kinds) - 2, -1, -1):
        up: Dict[Tuple[int, ...], List[List[int]]] = {}
        for key, G in level.items():
            G = [[(q2, c) for q2, c in enumerate(g) if c] for g in G]
            T = tables[i][key[i]]
            acc = up.setdefault(key[:i], [[0] * (N2 + 1)
                                          for _ in range(full + 1)])
            for V in range(full + 1) if i else (full,):
                out, S = acc[V], V
                while True:  # every S within V, 0 and V included
                    for x2, t in T[S]:
                        for y2, g in G[V ^ S]:
                            if x2 + y2 > N2:
                                break
                            out[x2 + y2] += t * g
                    if not S:
                        break
                    S = (S - 1) & V
        level = up
    if not level:
        return Series.zero(N)
    # T_i[e][S] lies over scale_i prod_(j in S) dens_j, dens_j the same for
    # every kind: the root's terms lie over the scales times it at S = full
    dens = built[kinds[0]][0]
    den = math.prod(built[kind][0][0] for kind in kinds) * (dens[full]
                                                            // dens[0])
    return Series.from_numerators(N2, den, {
        (q2, ()): c for q2, c in enumerate(level[()][full])})


def duality_trace_direct(factors: Sequence[str], op_tag: str,
                         points: Sequence[Param], N) -> Series:
    """Tensor-product enumeration cross-check (tiny truncations only)."""
    _require_scalar_points(points)
    N2 = to2(N)
    per_factor = [factor_states(kind, N2) for kind in factors]
    acc: Dict[Tuple[int, tuple], F] = {}
    for combo in itertools.product(*per_factor):
        e2 = sum(st[0] for st in combo)
        if e2 > N2:
            continue
        coeff = F(1)
        for j, p in enumerate(points):
            ev = F(0)
            for kind, (_, _, state) in zip(factors, combo):
                ev += eigenvalue(kind, state, op_tag, p)
            coeff *= ev
            if not coeff:
                break
        if not coeff:
            continue
        zs = {}
        for i, (kind, (_, ch, _)) in enumerate(zip(factors, combo)):
            if kind in CHARGED and ch:
                zs[i + 1] = zs.get(i + 1, 0) + 2 * ch
        key = (e2, tuple(sorted((v, e) for v, e in zs.items() if e)))
        acc[key] = acc.get(key, F(0)) + coeff
    return Series(N2, acc)

