"""Named, reproducible verification suite.

Every identity implemented by the package is registered here as an
executable check: a named pair of independently computed series (closed
form vs enumeration oracle, or two printed expressions) compared exactly,
coefficient by coefficient, up to a stated truncation order.

Checks come in two modes.  ``gate`` checks assert identities the package
stands behind; any failure is a bug.  ``report`` checks are informational
comparisons (the naive product-form reductions evaluated at the full point
list) whose outcome is recorded but never gates the suite.
"""

from fnmatch import fnmatchcase
from fractions import Fraction as F
import json
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import closedform as cf
from . import combinat, fock
from .qseries import (
    Param,
    Series,
    _QH,
    _chain_sum,
    _factor,
    _monomial_str,
    _over_one_minus,
    _over_pochhammer,
    _pochhammer_chain,
    _product_slices,
    _q,
    _q_factor,
    _qinf_inv,
    c_term,
    first_difference,
    half_str,
    pochhammer_inf,
    power,
    theta_jet,
    to2,
)


S_VALUES = (F(2, 3), F(3, 5), F(5, 7))


class CheckSpec:
    """One named identity check: a deterministic pair of series builders."""

    __slots__ = ("name", "N", "mode", "pair")

    def __init__(self, name: str, N, mode: str,
                 pair: Callable[[], Tuple[Series, Series]]):
        if mode not in ("gate", "report"):
            raise ValueError("mode must be 'gate' or 'report'")
        self.name, self.N, self.mode, self.pair = name, N, mode, pair


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass", "fail", or "error"
    first_discrepancy: Optional[Tuple[str, F, F]]
    ms: int
    mode: str = "gate"
    detail: str = ""

    def to_dict(self) -> dict:
        fd = None
        if self.first_discrepancy is not None:
            mono, lhs, rhs = self.first_discrepancy
            fd = {"monomial": mono, "lhs": str(lhs), "rhs": str(rhs)}
        return {"name": self.name, "status": self.status,
                "first_discrepancy": fd, "ms": self.ms, "mode": self.mode,
                "detail": self.detail}


def run_check(spec: CheckSpec) -> CheckResult:
    """Compute both sides of a registered check and compare them exactly."""
    t0 = time.monotonic()
    try:
        lhs, rhs = spec.pair()
        diff = first_difference(lhs, rhs)
    except Exception as exc:  # surfaced, never swallowed silently
        ms = int(1000 * (time.monotonic() - t0))
        return CheckResult(spec.name, "error", None, ms, spec.mode,
                           "%s: %s" % (type(exc).__name__, exc))
    ms = int(1000 * (time.monotonic() - t0))
    need2 = to2(spec.N)
    if lhs.trunc2 < need2 or rhs.trunc2 < need2:
        # first_difference stops at the smaller truncation; a side that lost
        # q-order would otherwise pass on too little data.
        return CheckResult(spec.name, "fail", None, ms, spec.mode,
                           "truncation shortfall: lhs O(q^%s), rhs O(q^%s), "
                           "check needs O(q^%s)"
                           % (half_str(lhs.trunc2), half_str(rhs.trunc2),
                              half_str(need2)))
    if diff is None:
        return CheckResult(spec.name, "pass", None, ms, spec.mode)
    q2, zkey, ca, cb = diff
    return CheckResult(spec.name, "fail",
                       (_monomial_str(q2, zkey), ca, cb), ms, spec.mode)


def run_suite(pattern: str = "") -> List[CheckResult]:
    """Run every registered check whose name matches the glob pattern
    (empty pattern = all), in deterministic name order."""
    specs = [s for s in registry()
             if not pattern or fnmatchcase(s.name, pattern)]
    return [run_check(s) for s in sorted(specs, key=lambda s: s.name)]


def suite_exit_status(results: Sequence[CheckResult]) -> int:
    """0 if every gating check passed; 1 otherwise.  Report-mode checks
    never influence the status."""
    for r in results:
        if r.mode == "gate" and r.status != "pass":
            return 1
    return 0


def report_json(results: Sequence[CheckResult]) -> str:
    return json.dumps({"checks": [r.to_dict() for r in results]},
                      indent=2, sort_keys=True)


def report_table(results: Sequence[CheckResult]) -> str:
    width = max([len(r.name) for r in results] + [4])
    lines = []
    for r in results:
        extra = ""
        if r.first_discrepancy is not None:
            mono, lhs, rhs = r.first_discrepancy
            extra = "  at %s: %s vs %s" % (mono, lhs, rhs)
        elif r.detail:
            extra = "  " + r.detail
        tag = r.status if r.mode == "gate" else "%s (report)" % r.status
        lines.append("%-*s  %-14s %6d ms%s" % (width, r.name, tag, r.ms, extra))
    return "\n".join(lines)


# -- shared series builders --------------------------------------------------


def ff_product_side(u: Param, N) -> Series:
    """1 / ((u)_inf (u^{-1}q)_inf)."""
    uinvq = Param(1 / u.s, F(1) - F(u.qval2(), 2))
    return (pochhammer_inf(u, N) * pochhammer_inf(uinvq, N)).invert()


def _geometric(r: Param, start: int, N) -> Series:
    """sum_{k>=start} r^k = r^start/(1-r) for the point r = sign s^2 q^d.

    A ratio with positive q-valuation expands termwise; a scalar ratio
    (q-valuation zero) resums to the exact rational r^start/(1-r) — the
    reading that makes the formal bilateral sum converge coefficientwise."""
    if r.d2 < 0:
        raise ValueError("geometric ratio with negative q-valuation")
    if r.d2 == 0 and r.value_coeff == 1:
        raise ZeroDivisionError("geometric ratio equal to 1")
    return _over_one_minus(power(r, start, N), r)


def ff_sum_side(u: Param, N) -> Series:
    """(1/(q)_inf^2) sum_{m>=0} (-1)^m q^(m(m+1)/2)
    (sum_{k>=0} q^(km) u^k + sum_{k>0} q^(k(m+1)) u^{-k}),
    inner geometric sums taken in resummed form; 1/(q)_inf^2 is the shared
    _qinf_inv table, while ff_product_side inverts its product generically."""
    n2 = to2(N)
    d2 = u.qval2()
    if d2 <= 0:
        raise ValueError("u must carry a positive q-power")
    out = Series.zero(N)
    m = 0
    while m * (m + 1) <= n2:
        asc = _geometric(Param(u.s, F(d2 + 2 * m, 2)), 0, N)
        desc = _geometric(Param(1 / u.s, F(2 * (m + 1) - d2, 2)), 1, N)
        blk = (asc + desc).shift(m * (m + 1) // 2)
        out = out + blk.scale((-1) ** m)
        m += 1
    return out * _qinf_inv(n2, 2)


def sum_over_m_lhs(k: int, t: Param, N) -> Series:
    """sum_{l>=0} q^l / ((q)_l (tq)_{l+k}), one _chain_sum from
    1/(tq)_k with term ratio q / ((1 - q^l) (1 - tq^(l+k)))."""
    return _chain_sum(_over_pochhammer(Series.one(N), t * _q(), k), [
        ((1, 1, 2, ()), (), (_q_factor(2 * l), _factor(t, l + k)))
        for l in range(1, to2(N) // 2 + 1)])


def sum_over_m_rhs(k: int, t: Param, N) -> Series:
    """(1/((q)_inf (tq)_inf)) sum_{m>=0} (-1)^m q^(m(m+1)/2 + km) t^m."""
    tq = t * _q()
    n2 = to2(N)
    acc: Dict[tuple, F] = {}
    m = 0
    while m * (m + 1) + 2 * k * m <= n2:
        q2 = m * (m + 1) + 2 * k * m
        acc[(q2, ())] = acc.get((q2, ()), F(0)) \
            + F((-1) ** m) * t.scalar_pow(m)
        m += 1
    pref = (pochhammer_inf(_q(), N) * pochhammer_inf(tq, N)).invert()
    return Series(n2, acc) * pref


def exp_left_sum(z: Param, N) -> Series:
    """sum_m (-z)^m q^(m(m-1)/2) / (q)_m, one _chain_sum with term ratio
    -z q^(m-1) / (1 - q^m), which drops the steps past the truncation."""
    A, B, d2, ze = _factor(z)
    return _chain_sum(Series.one(N), [
        ((-A, B, d2 + 2 * m - 2, ze), (), (_q_factor(2 * m),))
        for m in range(1, to2(N) + 2)])


def exp_right_sum(a: Param, z: Param, N) -> Series:
    """sum_l (a)_l z^l / (q)_l, one _chain_sum with term ratio
    z (1 - a q^(l-1)) / (1 - q^l)."""
    return _chain_sum(Series.one(N), [
        (_factor(z), (_factor(a, l - 1),), (_q_factor(2 * l),))
        for l in range(1, to2(N) // z.qval2() + 1)])


def _partitions_exact_length(l: int, max_weight: int):
    # one cached enumeration serves every length l
    for _, lam in fock.mod_partitions(2 * max_weight):
        if len(lam) == l and sum(lam) <= max_weight:
            yield lam


def fixed_length_sum_enum(l: int, N) -> Series:
    """sum over partitions of length exactly l of q^|lambda|, enumerated
    and counted in ints."""
    counts: Dict[tuple, int] = {}
    for lam in _partitions_exact_length(l, to2(N) // 2):
        key = (2 * sum(lam), ())
        counts[key] = counts.get(key, 0) + 1
    return Series.from_numerators(to2(N), 1, counts)


def fixed_length_sum_closed(l: int, N) -> Series:
    """q^l / (q)_l."""
    return _over_pochhammer(Series.one(N), _q(), l).shift(l)


def marked_part_sum_enum(l: int, i: int, t: Param, N) -> Series:
    """sum over partitions of length exactly l of q^|lambda| t^(lambda_i),
    enumerated.  The partitions are counted in ints by (|lambda|,
    lambda_i); with t = u/v and top the largest lambda_i met, t^k is read
    as u^k v^(top-k) over v^top from one integer table.  t is refused, as
    t^(lambda_i) would refuse it, only when some partition is met."""
    counts: Dict[Tuple[int, int], int] = {}
    for lam in _partitions_exact_length(l, to2(N) // 2):
        key = (sum(lam), lam[i - 1])
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return Series.zero(N)
    c = t.scalar_pow(1)
    u, v = c.numerator, c.denominator
    top = max(k for _, k in counts)
    power_of_t = [u ** k * v ** (top - k) for k in range(top + 1)]
    nums: Dict[tuple, int] = {}
    for (w, k), n in counts.items():
        nums[(2 * w, ())] = nums.get((2 * w, ()), 0) + n * power_of_t[k]
    return Series.from_numerators(to2(N), v ** top, nums)


def partition_ladder_sum(x: Param, t: Param, N) -> Series:
    """Sum over nonempty partitions la of x^len(la) q^(|la|-len/2)
    sum_i t^(la_i - 1/2), by direct enumeration of fock.mod_partitions.

    The sum is taken in integers.  With x = (u/v) q^(d/2) z^e, t^(1/2) = a/b,
    L the longest and top the largest part summed and E = 2 top - 1, a
    partition of length l adds u^l v^(L-l) sum_i a^(2 la_i - 1)
    b^(E - 2 la_i + 1) over v^L b^E: one integer per length and one per part
    size.  t is refused, as a power t^(la_i - 1/2) would refuse it, only
    when some partition reaches the sum."""
    n2 = to2(N)
    xc, xq2, xzk = x.pow_monomial(1)
    reached = []
    if xc:
        for w2, la in fock.mod_partitions(n2):
            q2 = w2 + len(la) * xq2
            if la and q2 <= n2:
                reached.append((len(la), q2, la))
    if not reached:
        return Series.zero(N)
    th = t.scalar_pow(F(1, 2))
    a, b = th.numerator, th.denominator
    E = 2 * max(la[0] for _, _, la in reached) - 1
    part = [0] + [a ** e * b ** (E - e) for e in range(1, E + 1, 2)]
    sums: Dict[Tuple[int, int], int] = {}
    for l, q2, la in reached:
        sums[(l, q2)] = sums.get((l, q2), 0) + sum(map(part.__getitem__, la))
    L = max(l for l, _, _ in reached)
    u, v = xc.numerator, xc.denominator
    nums: Dict[Tuple[int, tuple], int] = {}
    for (l, q2), n in sums.items():
        key = (q2, ((xzk[0][0], l * xzk[0][1]),) if xzk else ())
        nums[key] = nums.get(key, 0) + u ** l * v ** (L - l) * n
    return Series.from_numerators(n2, v ** L * b ** E, nums)


def marked_part_sum_closed(l: int, i: int, t: Param, N) -> Series:
    """t q^l / ((1-q)...(1-q^{i-1}) (1-q^i t)...(1-q^l t))."""
    return _pochhammer_chain(Series.monomial(t.scalar_pow(1), l, N), (),
                             [(_q(), i - 1), (t.qshift(i), l - i + 1)])


def charge_resolved_pair_inverse(i: int, N) -> Series:
    """1/((z_i q^(1/2))_inf (z_i^(-1) q^(1/2))_inf) with formal z_i: the
    charge-resolved vacuum character is the product over i = 1..l."""
    zp = Param(F(1), F(1, 2), e=1, zvar=i)
    zm = Param(F(1), F(1, 2), e=-1, zvar=i)
    return (pochhammer_inf(zp, N) * pochhammer_inf(zm, N)).invert()


def charge_resolved_qdim_extract(l: int, lam: Tuple[int, ...], N) -> Series:
    """Dominant-monomial coefficient of the charge-resolved vacuum
    character, the closed-form side of the rank-l graded-dimension sum,
    read from the product of its first l - 1 factors and its last one: the
    full character is never multiplied out."""
    a = Series.one(N) if l == 1 else charge_resolved_pair_inverse(1, N)
    for i in range(2, l):
        a = a * charge_resolved_pair_inverse(i, N)
    return cf.weyl_extract(a, charge_resolved_pair_inverse(l, N), "A",
                           combinat.rho_vector("A", l), lam)


def odd_triple_product(N) -> Series:
    """sum_{m>=0} (-1)^m (2m+1) q^(m(m+1)/2)."""
    acc: Dict[tuple, F] = {}
    m = 0
    while m * (m + 1) <= to2(N):
        acc[(m * (m + 1), ())] = F((-1) ** m * (2 * m + 1))
        m += 1
    return Series(to2(N), acc)


# -- the registry ------------------------------------------------------------


_INSTANCE_SLUGS = (
    ("a", "-l", "a-negl"),
    ("c", "l-1/2", "c-lminushalf"),
    ("c", "-l", "c-negl"),
    ("c", "-l-1/2", "c-neglminushalf"),
    ("d", "-l", "d-negl"),
    ("d", "-l+1/2", "d-neglplushalf"),
)


def _slug_s(s: F) -> str:
    return "%d.%d" % (s.numerator, s.denominator)


def _slug_lam(lam) -> str:
    return "_".join(str(x) for x in lam)


def _ext_oracle(alg: str, fam: str, l: int, lam, points, N) -> Series:
    """The labeled trace read out of the multi-factor Fock oracle."""
    return cf.extract_dominant(cf.duality_instance(alg, fam, l), tuple(lam),
                               list(points), N)


def _pts(n: int) -> List[Param]:
    return [Param(s) for s in S_VALUES[:n]]


def _registry_identity(reg: List[CheckSpec]) -> None:
    for i, (s, d) in enumerate([(F(2, 3), F(1, 2)), (F(3, 5), F(1))], 1):
        u = Param(s, d)
        reg.append(CheckSpec(
            "identity-ff-u%d" % i, 20, "gate",
            lambda u=u: (ff_product_side(u, 20), ff_sum_side(u, 20))))
    for k in (0, 1, 3):
        for s in (F(2, 3), F(5, 7)):
            t = Param(s)
            reg.append(CheckSpec(
                "prop-111-k%d-t%s" % (k, _slug_s(s)), 20, "gate",
                lambda k=k, t=t: (sum_over_m_lhs(k, t, 20),
                                  sum_over_m_rhs(k, t, 20))))
    for i, s in enumerate([F(1), F(2, 3)], 1):
        z = Param(s, 1)
        reg.append(CheckSpec(
            "exponential-left-%d" % i, 20, "gate",
            lambda z=z: (exp_left_sum(z, 20), pochhammer_inf(z, 20))))
    a, z = Param(F(2, 3)), _q()
    reg.append(CheckSpec(
        "exponential-right", 20, "gate",
        lambda: (exp_right_sum(a, z, 20),
                 pochhammer_inf(a * z, 20) * pochhammer_inf(z, 20).invert())))
    for l in range(1, 6):
        reg.append(CheckSpec(
            "lemma-222-i-l%d" % l, 15, "gate",
            lambda l=l: (fixed_length_sum_enum(l, 15),
                         fixed_length_sum_closed(l, 15))))
    for l, i in ((3, 1), (3, 2), (5, 4)):
        t = Param(F(2, 3))
        reg.append(CheckSpec(
            "lemma-222-ii-l%d-i%d" % (l, i), 15, "gate",
            lambda l=l, i=i, t=t: (marked_part_sum_enum(l, i, t, 15),
                                   marked_part_sum_closed(l, i, t, 15))))
    # beta(t) = t^(1/2)/(1 - t) = -t^(-1/2) sum_(m>=0) t^(-m), t = 4/9 q^-1
    t, ti = Param(F(2, 3), -1), Param(F(3, 2), 1)
    reg.append(CheckSpec("beta-negative-qval", 12, "gate", lambda: (
        c_term(t, 12), -(power(ti, F(1, 2), 12) * _geometric(ti, 0, 12)))))

    def _ff_specialized():
        # z = 1 in the charge-resolved vacuum character on z_1: the
        # zero-charge slice plus twice each positive-charge slice z^1 .. z^32
        weights = {(2 * m,): 2 for m in range(1, 33)}
        weights[(0,)] = 1
        rhs = _product_slices(Series.one(16),
                              charge_resolved_pair_inverse(1, 16), 1, weights)
        return ff_product_side(_QH, 16), rhs

    reg.append(CheckSpec(
        "identity-ff-specializes-qdim", 16, "gate", _ff_specialized))


def _registry_correlation(reg: List[CheckSpec]) -> None:
    x, y = Param(F(2, 5)), Param(F(3, 7))
    for s in S_VALUES:
        reg.append(CheckSpec(
            "one-point-s%s" % _slug_s(s), 12, "gate",
            lambda s=s: (cf.one_point_minus1(Param(s), 12),
                         fock.a_sector_trace(0, [Param(s)], 12))))
    for s in (F(2, 3), F(3, 5)):
        reg.append(CheckSpec(
            "gl-general-1pt-t%s" % _slug_s(s), 10, "gate",
            lambda s=s: (cf.generalized_one_point(x, y, Param(s), 10),
                         fock.a_generalized_trace(x, y, [Param(s)], 10))))
        reg.append(CheckSpec(
            "eq-555-t%s" % _slug_s(s), 10, "gate",
            lambda s=s: (partition_ladder_sum(x, Param(s), 10),
                         cf.partition_ladder_closed(x, Param(s), 10))))
    reg.append(CheckSpec(
        "gl-general-2pt", 8, "gate",
        lambda: (cf.generalized_two_point(x, y, Param(F(2, 3)),
                                          Param(F(3, 5)), 8),
                 fock.a_generalized_trace(
                     x, y, [Param(F(2, 3)), Param(F(3, 5))], 8))))
    for s in S_VALUES:
        reg.append(CheckSpec(
            "c-1pt-half-s%s" % _slug_s(s), 10, "gate",
            lambda s=s: (cf.c_one_point_half(Param(s), 10),
                         fock.neutral_trace("boson_neutral", "C",
                                            [Param(s)], 10))))
    zvar = Param(F(1), 0, 1, zvar=1)
    for k in (-1, 0, 2):
        for n in (1, 2):
            reg.append(CheckSpec(
                "zzz-k%d-n%d" % (k, n), 8, "gate",
                lambda k=k, n=n: (
                    cf.level1_sector(k, _pts(n), 8),
                    fock.f1_charged_trace(zvar, _pts(n), 8).coeff_z(1, k))))
    reg.append(CheckSpec(
        "theta-triple-product", 20, "gate",
        lambda: (theta_jet(Param(F(1)), 1, 20)[1]
                 * pochhammer_inf(_q(), 20) ** 3,
                 odd_triple_product(20))))
    # Both sides of the sector-c/d gates read one table, the knapsack's C
    # rule at the points: the closed side at the full mask through
    # fock.a_sector_rows, the oracle through the trie.  The oracle-direct-*
    # gates check that rule against state enumeration; an A-rule eps-sum on
    # the oracle side here would cost about 3 ms of a 25 ms verify-enum pass.
    for m in (0, 1, 2):
        reg.append(CheckSpec(
            "sector-c-m%d" % m, 8, "gate",
            lambda m=m: (cf.c_sector_minus1(m, _pts(1), 8),
                         fock.duality_trace(("boson_pair",), "C", _pts(1), 8,
                                            {(2 * m,): 1}))))
        # The rank-one type-d function is the difference of the z^m and
        # z^(m+2) slices of the sign-inverted trace.
        reg.append(CheckSpec(
            "sector-d-m%d" % m, 8, "gate",
            lambda m=m: (cf.d_sector_minus1(m, _pts(1), 8),
                         fock.duality_trace(("boson_pair",), "D", _pts(1), 8,
                                            {(2 * m,): 1, (2 * m + 4,): -1}))))


def _registry_qdiff(reg: List[CheckSpec]) -> None:
    for alg in ("a", "c"):
        for n in (1, 2, 3):
            reg.append(CheckSpec(
                "qdiff-%s-n%d" % (alg, n), 10, "gate",
                lambda alg=alg, n=n: (cf.qdiff_residual(alg, _pts(n), 10),
                                      Series.zero(10))))


def _registry_qdim(reg: List[CheckSpec]) -> None:
    reg.append(CheckSpec(
        "qdim-a-r1", 20, "gate",
        lambda: (sum((cf.charged_qdim_base(k, 20) for k in (0, 1, 2)),
                     Series.zero(20)),
                 sum((fock.row_series(40, row) for (row,) in
                      fock.a_sector_rows([], 40, (0, 1, 2)).values()),
                     Series.zero(20)))))
    for l, lam in ((2, (0, 0)), (2, (1, 0)), (2, (1, -1)), (3, (2, 1, 0)),
                   (3, (1, 0, -1))):
        reg.append(CheckSpec(
            "qdim-a-r%d-lam%s" % (l, _slug_lam(lam)), 10, "gate",
            lambda l=l, lam=lam: (cf.qdim_closed("a", str(-l), lam, 10),
                                  _ext_oracle("a", "-l", l, lam, [], 10))))
    for lam in ((0, 0), (1, 0), (2, 1)):
        reg.append(CheckSpec(
            "qdim-c-poshalf-forms-lam%s" % _slug_lam(lam), 20, "gate",
            lambda lam=lam: (cf.qdim_closed("c", "3/2", lam, 20, "weyl"),
                             cf.qdim_closed("c", "3/2", lam, 20, "product"))))
    rank1 = [("c", "-l", "-1"), ("d", "-l", "-1")]
    for alg, fam, lev in rank1:
        for k in (0, 1, 2):
            reg.append(CheckSpec(
                "qdim-%s-r1-k%d" % (alg, k), 10, "gate",
                lambda alg=alg, fam=fam, lev=lev, k=k: (
                    cf.qdim_closed(alg, lev, (k,), 10),
                    _ext_oracle(alg, fam, 1, (k,), [], 10))))
    for alg, fam, slug in _INSTANCE_SLUGS:
        if slug in ("a-negl", "c-lminushalf"):
            continue
        lev = str(cf.duality_instance(alg, fam, 2).level)
        for lam in ((0, 0), (1, 0), (2, 1)):
            reg.append(CheckSpec(
                "qdim-%s-r2-lam%s" % (slug, _slug_lam(lam)), 10, "gate",
                lambda alg=alg, fam=fam, lev=lev, lam=lam: (
                    cf.qdim_closed(alg, lev, lam, 10),
                    _ext_oracle(alg, fam, 2, lam, [], 10))))
    for lev, fam in (("3/2", "l-1/2"),):
        for lam in ((0, 0), (1, 0)):
            reg.append(CheckSpec(
                "qdim-c-poshalf-oracle-lam%s" % _slug_lam(lam), 10, "gate",
                lambda lev=lev, fam=fam, lam=lam: (
                    cf.qdim_closed("c", lev, lam, 10),
                    _ext_oracle("c", fam, 2, lam, [], 10))))
    for l in (1, 2):
        for lam in ([(0,), (1,)] if l == 1 else [(0, 0), (1, 0)]):
            reg.append(CheckSpec(
                "qdim-charge-resolved-r%d-lam%s" % (l, _slug_lam(lam)),
                10, "gate",
                lambda l=l, lam=lam: (
                    charge_resolved_qdim_extract(l, lam, 10),
                    cf.qdim_closed("a", str(-l), lam, 10))))


def _registry_duality(reg: List[CheckSpec]) -> None:
    # At rank 1 the reduction is a base function that reads no rho: these
    # gates pin each family's rho, which both sides of every other gate read.
    # A family with a neutral factor has no such base.
    for slug, base in (("a-negl", fock.a_sector_trace),
                       ("c-negl", cf.c_sector_minus1),
                       ("d-negl", cf.d_sector_minus1)):
        inst = cf.duality_instance(slug[0], "-l", 1)
        for m in (0, 1):
            reg.append(CheckSpec(
                "rank1-base-%s-m%d" % (slug, m), 8, "gate",
                lambda inst=inst, base=base, m=m: (
                    cf.duality_reduce(inst, (m,), _pts(1), 8),
                    base(m, _pts(1), 8))))
    for alg, fam, slug in _INSTANCE_SLUGS:
        # the trie against tensor-product states one by one, which read
        # fock.eigenvalue and no knapsack
        reg.append(CheckSpec(
            "oracle-direct-" + slug, 2, "gate",
            lambda inst=cf.duality_instance(alg, fam, 2): (
                cf.extract_dominant(inst, (1, 0), _pts(2), 2),
                cf.weyl_extract(Series.one(2), fock.duality_trace_direct(
                    inst.factors, inst.op_tag, _pts(2), 2),
                    inst.weyl, inst.rho, (1, 0)))))
        for n in (0, 1, 2):
            for lam in ((0, 0), (1, 0)):
                name_tail = "%s-n%d-lam%s" % (slug, n, _slug_lam(lam))
                reg.append(CheckSpec(
                    "duality-assignment-" + name_tail, 8, "gate",
                    lambda alg=alg, fam=fam, lam=lam, n=n: (
                        cf.duality_reduce(cf.duality_instance(alg, fam, 2),
                                          lam, _pts(n), 8, "assignment"),
                        _ext_oracle(alg, fam, 2, lam, _pts(n), 8))))
                reg.append(CheckSpec(
                    "duality-literal-" + name_tail, 8, "report",
                    lambda alg=alg, fam=fam, lam=lam, n=n: (
                        cf.duality_reduce(cf.duality_instance(alg, fam, 2),
                                          lam, _pts(n), 8, "literal"),
                        _ext_oracle(alg, fam, 2, lam, _pts(n), 8))))


_REGISTRY: Optional[List[CheckSpec]] = None


def registry() -> List[CheckSpec]:
    """The full default check registry, built once, ordered by name."""
    global _REGISTRY
    if _REGISTRY is None:
        reg: List[CheckSpec] = []
        _registry_identity(reg)
        _registry_correlation(reg)
        _registry_qdiff(reg)
        _registry_qdim(reg)
        _registry_duality(reg)
        reg.sort(key=lambda s: s.name)
        names = [s.name for s in reg]
        if len(set(names)) != len(names):
            raise RuntimeError("duplicate check names in registry")
        _REGISTRY = reg
    return list(_REGISTRY)
