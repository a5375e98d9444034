"""Graded-trace oracles over Fock spaces.

Four factor kinds, each with its basis family and diagonal eigenvalue rule:

  boson_pair     pairs of partitions (lam, mu), central charge -1
  boson_neutral  single partitions, central charge -1/2
  fermion_pair   pairs of strict partitions, central charge +1
  fermion_neutral single strict partitions, central charge +1/2

A state's energy is sum over parts p of (p - 1/2); the diagonal operator at a
point t has eigenvalue sum(t^(p-1/2)) - sum(t^(-p+1/2)) plus a central term
+-beta(t).  Operators 'C' and 'D' act as A(t) - A(t^(-1)) on charged factors.

Subset factorization.  Write S+_lam(t) = sum_p t^(p-1/2) and
S-_lam(t) = sum_p t^(-p+1/2).  On a charged pair the eigenvalue at t_j splits
as v_j(lam) + w_j(mu), so prod_j (v_j(lam) + w_j(mu)) is the sum over the
subsets S of the points of prod_(j in S) v_j(lam) prod_(j not in S) w_j(mu).
For A(t), v_j = S+_lam(t_j) and w_j = -S-_mu(t_j) +- beta(t_j).  For C and D,
S+(t^(-1)) = S-(t) and beta(t^(-1)) = -beta(t) give v_j = S+_lam - S-_lam and
w_j = S+_mu - S-_mu +- 2 beta(t_j), so no inverse points are needed.  A
neutral factor has one side, v_j = S+_lam - S-_lam +- beta(t_j).

A side table holds, per (energy, length), the sum over one factor's
partitions of prod_j (1 + v_j x_j) in Z[x_1..x_n]/(x_j^2), whose x^S
coefficient sums prod_(j in S) v_j.  As x_j^2 = 0, this is prod_j (1 + c_j
x_j), c_j the constant part of v_j, times f_p = prod_j (1 + u_j(p) x_j) per
part p, and m copies of p give f_p^m.  So, like a partition generating
function (Andrews, The Theory of Partitions, ch. 1), the table is a product
over parts, built as a knapsack; no partition is enumerated.  Every weight
used here (charge sector, x^len(lam) y^len(mu), z^charge) depends on lam
and mu only through their energies and lengths, so a pair trace convolves
two side tables: the weight of each pair of lengths names a charge bucket
or skips the pair, and the energies are summed only up to the budget.  One
pass serves every charge and operator subset a caller asks for, no other.

Duality traces.  In a tensor product of factors, charged factor i carries
its own charge variable z_(i+1), so one z-monomial coefficient of the trace
is a sum, over the assignments of the points to factors, of products of
per-factor charge slices of the subset tables above, one table per factor
kind.  ``duality_trace`` reads a signed sum of such coefficients (the Weyl
shifts of a labeled trace) this way, and multiplies only z-free series.

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
from operator import add, mul
from typing import Dict, List, Mapping, Sequence, Tuple

from .qseries import (
    CapExceeded,
    NonTruncatable,
    Param,
    QSeriesError,
    Series,
    _zmul,
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


def _side_table(points: Sequence[Param], alpha: int, gamma: int, consts,
                budget2: int, strict: bool, masks):
    """One partition factor as ({length: [(w2, row), ...] in increasing w2},
    dens), a knapsack over parts (see the module docstring).  row[S] is
    dens_S times the sum over the key's partitions lam of prod_(j in S)
    v_j(lam), v_j = alpha S+_lam(t_j) + gamma S-_lam(t_j) + consts[j], for
    each subset S (a bit mask) inside a mask of `masks`, and 0 for other S;
    dens_S is the product of dens[j] over S.  dens[j] is a common denominator
    of every v_j either side of a pair can hold, so the rows are integers;
    row[0] counts the partitions with that key."""
    n = len(points)
    subs = {0} | {S for T in masks for S in range(T + 1) if S & T == S}
    # times 1 + u x_j, row[S] gains u * row[S - {j}] for S holding j
    steps = [[(S, S ^ 1 << j) for S in sorted(subs) if S >> j & 1]
             for j in range(n)]
    top = (budget2 + 1) // 2
    k = max(2 * top - 1, 0)
    per_part, dens = [], []
    zero = [0] * (1 << n)
    start = [1] + zero[1:]  # prod_j (1 + consts[j] x_j)
    for pt, c, step in zip(points, consts, steps):
        r = pt.scalar_pow(F(1, 2))
        a, b = r.numerator, r.denominator
        d = math.lcm(a ** k, b ** k, beta_scalar(pt).denominator)
        # d * (alpha r^e + gamma r^(-e)) for parts p = 1..top, e = 2p - 1
        per_part.append([alpha * a ** e * (d // b ** e)
                         + gamma * b ** e * (d // a ** e)
                         for e in range(1, 2 * top, 2)])
        c = int(c * d)
        for S, R in step:
            start[S] = start[R] * c
        dens.append(d)
    # levels[w2] = {length: row}; strict parts sweep downward (used once)
    levels = [{0: start} if w2 == 0 else {} for w2 in range(budget2 + 1)]
    for p in range(1, top + 1):
        cost = 2 * p - 1
        us = [u[p - 1] for u in per_part]
        for w2 in (range(budget2 - cost, -1, -1) if strict
                   else range(budget2 - cost + 1)):
            dst = levels[w2 + cost]
            for ln, row in levels[w2].items():
                row = row[:]
                for u, step in zip(us, steps):
                    for S, R in step:
                        row[S] += u * row[R]
                dst[ln + 1] = list(map(add, dst.get(ln + 1, zero), row))
    table: Dict[int, List[Tuple[int, List[int]]]] = {}
    for w2, level in enumerate(levels):
        for ln, row in level.items():
            table.setdefault(ln, []).append((w2, row))
    return table, dens


def _charged_sides(kind: str, op_tag: str, points: Sequence[Param],
                   budget2: int, masks):
    """The lam-side and mu-side tables of a charged pair over the subsets of
    `masks`, and their common dens, for the operator A or for C and D
    (A(t) - A(t^(-1)))."""
    betas = [CENTRAL_SIGN[kind] * beta_scalar(p) for p in points]
    zeros = [0] * len(points)
    sides = (((1, -1, zeros), (1, -1, [2 * b for b in betas]))
             if op_tag in ("C", "D") else ((1, 0, zeros), (0, -1, betas)))
    (lam, dens), (mu, _) = [
        _side_table(points, alpha, gamma, consts, budget2,
                    kind == "fermion_pair", masks)
        for alpha, gamma, consts in sides]
    return lam, mu, dens


def _series(N2: int, acc: Dict[int, int], den: int) -> Series:
    """The accumulated numerators {q2: c} over den as a z-free series."""
    return Series.from_numerators(N2, den, {(q2, ()): c
                                            for q2, c in acc.items()})


def _subset_den(dens: Sequence[int], T: int) -> int:
    """dens_T, the product of dens[j] over the subset mask T."""
    return math.prod(x for j, x in enumerate(dens) if T >> j & 1)


def _pair_traces(lam: dict, mu: dict, dens: Sequence[int], weight, N2: int,
                 masks) -> Tuple[List[int], Dict[object, List[Dict[int, int]]]]:
    """Pair traces from two side tables, split by the bucket each pair's
    weight names, as integer numerators: ([den per mask T in `masks`],
    {bucket: [{q2: numerator} per mask]}), each the sum over the bucket's
    (lam, mu) with energy <= N2 of weight * prod_(j in T) eigenvalue, times
    the mask's den.

    weight(len_lam, len_mu) gives (rational coefficient, extra doubled
    q-exponent, bucket), or None when the pair does not contribute; it is
    called once per pair of lengths, whose energies are read up to the
    budget it leaves.  Every den holds the lcm of the coefficients'
    denominators, so all buckets of one mask share it."""
    # per mask T, the subsets S of T and their complements T - S
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
    return [wden * _subset_den(dens, T) for T in masks], buckets


def _z_free_traces(N2: int, pair_traces) -> Dict[object, List[Series]]:
    """_pair_traces' numerators as {bucket: [z-free series per mask]}."""
    dens, buckets = pair_traces
    return {bucket: [_series(N2, acc, d) for acc, d in zip(accs, dens)]
            for bucket, accs in buckets.items()}


def _a_trace(kind: str, points: Sequence[Param], N, weight) -> Series:
    """The A-operator trace over a charged pair at all the points, with
    weight(len_lam, len_mu) as in ``_pair_traces`` and its bucket a z-key,
    as one z-carrying series."""
    _require_scalar_points(points)
    N2 = to2(N)
    masks = [(1 << len(points)) - 1]
    (den,), buckets = _pair_traces(
        *_charged_sides(kind, "A", points, N2, masks), weight, N2, masks)
    return Series.from_numerators(N2, den, {
        (q2, zk): c for zk, (acc,) in buckets.items() for q2, c in acc.items()})


def _neutral_traces(kind: str, points: Sequence[Param], N2: int,
                    masks) -> List[Series]:
    """Traces over a neutral factor, one per subset mask T in `masks`."""
    betas = [CENTRAL_SIGN[kind] * beta_scalar(p) for p in points]
    table, dens = _side_table(points, 1, -1, betas, N2,
                              kind == "fermion_neutral", masks)
    sums: List[Dict[int, int]] = [defaultdict(int) for _ in masks]
    for group in table.values():
        for w2, row in group:
            for acc, T in zip(sums, masks):
                acc[w2] += row[T]
    return [_series(N2, acc, _subset_den(dens, T))
            for acc, T in zip(sums, masks)]


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


def a_sector_traces(points: Sequence[Param], N, masks,
                    charges) -> Dict[int, List[Series]]:
    """Charge-m traces over the level -1 bosonic pair for every m in
    `charges`, each at every subset mask T in `masks`: {m: [z-free series
    per mask]}, the sum over (lam, mu) with len(mu)-len(lam) = m of
    q^E prod_(j in T) (A-eigenvalue at t_j).  One pair of side tables and
    one pair pass serve them all; pairs of other charges are skipped."""
    _require_scalar_points(points)
    N2 = to2(N)
    charges = set(charges)
    traces = _z_free_traces(N2, _pair_traces(
        *_charged_sides("boson_pair", "A", points, N2, masks),
        lambda ll, lm: (1, 0, lm - ll) if lm - ll in charges else None,
        N2, masks))
    return {m: traces.get(m) or [Series(N2) for _ in masks] for m in charges}


def a_sector_trace(m: int, points: Sequence[Param], N) -> Series:
    """Charge-m trace over the level -1 bosonic pair at all the points."""
    return a_sector_traces(points, N, [(1 << len(points)) - 1], [m])[m][0]


def a_generalized_trace(x: Param, y: Param, points: Sequence[Param], N) -> Series:
    """tr over the full bosonic pair of x^(len lam) y^(len mu) q^E
    prod A-eigenvalues.  x, y may carry charge-variable exponents."""

    def weight(ll, lm):
        cx, qx2, zx = x.pow_monomial(ll)
        cy, qy2, zy = y.pow_monomial(lm)
        return (cx * cy, qx2 + qy2, _zmul(zx, zy)) if cx and cy else None

    return _a_trace("boson_pair", points, N, weight)


def neutral_trace(kind: str, op_tag: str, points: Sequence[Param], N) -> Series:
    """Trace over a neutral factor (single/strict partitions); eigenvalue
    sum (t^(p-1/2) - t^(-p+1/2)) +- beta per point."""
    if kind not in ("boson_neutral", "fermion_neutral"):
        raise QSeriesError("neutral_trace needs a neutral kind")
    _check_op(kind, op_tag)
    _require_scalar_points(points)
    return _neutral_traces(kind, points, to2(N), [(1 << len(points)) - 1])[0]


def f1_charged_trace(z: Param, points: Sequence[Param], N) -> Series:
    """Level +1 fermionic pair trace tr z^charge q^E prod A-eigenvalues;
    charge = len(lam) - len(mu), central term -beta per point."""

    def weight(ll, lm):
        c, q2, zk = z.pow_monomial(ll - lm)
        return (c, q2, zk) if c else None

    return _a_trace("fermion_pair", points, N, weight)


# -- multi-factor duality traces -------------------------------------------


def factor_states(kind: str, N2: int):
    """All states of one factor with energy (doubled) <= N2, as
    (energy2, charge, state) triples."""
    strict = kind in ("fermion_pair", "fermion_neutral")
    singles = mod_partitions(N2, strict)
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


def _factor_subset_traces(kind: str, op_tag: str, points: Sequence[Param],
                          N2: int, charges) -> Dict[int, List[Series]]:
    """One factor's traces split by its doubled charge, for every subset of
    the operators: {doubled charge: [z-free series per bit mask]}, holding
    the charges in `charges` that some state reaches (a neutral factor has
    the one charge 0); pairs of other charges are skipped."""
    masks = range(1 << len(points))
    if kind not in CHARGED:
        return {0: _neutral_traces(kind, points, N2, masks)}
    e2 = -2 if kind == "boson_pair" else 2  # doubled charge per len(lam)
    charges = set(charges)
    return _z_free_traces(N2, _pair_traces(
        *_charged_sides(kind, op_tag, points, N2, masks),
        lambda ll, lm: (1, 0, e2 * (ll - lm))
        if e2 * (ll - lm) in charges else None, N2, masks))


DUALITY_CAP = 4


def check_duality(factors: Sequence[str], op_tag: str,
                  points: Sequence[Param]) -> None:
    """Refuse what ``duality_trace`` refuses, before any work is done: more
    than DUALITY_CAP factors or points, an operator some factor lacks, or a
    point that is not a plain scalar."""
    if len(factors) > DUALITY_CAP or len(points) > DUALITY_CAP:
        raise CapExceeded("duality trace limited to %d factors/points"
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
    """
    check_duality(factors, op_tag, points)
    charged = [i for i, kind in enumerate(factors) if kind in CHARGED]
    for c in charges:
        if len(c) != len(charged):
            raise QSeriesError("charge vector %r needs %d entries, one per "
                               "charged factor" % (c, len(charged)))
    N2 = to2(N)
    n = len(points)
    # each factor's doubled charge in every signed vector, neutral ones 0
    wants = {c: [dict(zip(charged, c)).get(i, 0) for i in range(len(factors))]
             for c, sgn in charges.items() if sgn}
    read: Dict[str, set] = {kind: set() for kind in factors}
    for want in wants.values():
        for kind, e in zip(factors, want):
            read[kind].add(e)
    tables = {kind: _factor_subset_traces(kind, op_tag, points, N2, es)
              for kind, es in read.items()}
    masks = [[sum(1 << j for j in range(n) if phi[j] == i)
              for i in range(len(factors))]
             for phi in itertools.product(range(len(factors)), repeat=n)]
    total = Series.zero(N)
    for c, want in wants.items():
        rows = [tables[kind].get(e) for kind, e in zip(factors, want)]
        if None in rows:
            continue
        acc = Series.zero(N)
        for phi_masks in masks:
            prod = None
            for row, S in zip(rows, phi_masks):
                prod = row[S] if prod is None else prod * row[S]
            acc = acc + prod
        total = total + acc.scale(charges[c])
    # every sum starts from O(q^N), so no term above q^N survives
    return total


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

