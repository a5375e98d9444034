"""Seeded operation lists for the three benchmark workloads.

The workloads are fixed in shape; the seed only chooses the order of the
operations and, for ``cli-session``, the points each request carries.  The
program under test sees nothing but the lists built here.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

# Gate checks whose time is spent in the series kernel (qseries).
VERIFY_KERNEL = (
    "identity-ff-specializes-qdim", "identity-ff-u1", "identity-ff-u2",
    "prop-111-k0-t2.3", "prop-111-k0-t5.7", "prop-111-k1-t2.3",
    "prop-111-k1-t5.7", "prop-111-k3-t2.3", "prop-111-k3-t5.7",
    "exponential-left-1", "exponential-left-2", "exponential-right",
    "theta-triple-product",
    "lemma-222-i-l1", "lemma-222-i-l2", "lemma-222-i-l3", "lemma-222-i-l4",
    "lemma-222-i-l5", "lemma-222-ii-l3-i1", "lemma-222-ii-l3-i2",
    "lemma-222-ii-l5-i4",
    "eq-555-t2.3", "eq-555-t3.5",
    "qdim-c-poshalf-forms-lam0_0", "qdim-c-poshalf-forms-lam1_0",
    "qdim-c-poshalf-forms-lam2_1",
)

# Gate checks whose time is spent enumerating Fock states (fock, modesum).
VERIFY_ENUM = (
    "qdim-a-r1",
    "one-point-s2.3", "one-point-s3.5", "one-point-s5.7",
    "c-1pt-half-s2.3", "c-1pt-half-s3.5", "c-1pt-half-s5.7",
    "zzz-k-1-n1", "zzz-k-1-n2", "zzz-k0-n1", "zzz-k0-n2", "zzz-k2-n1",
    "zzz-k2-n2",
    "sector-c-m0", "sector-c-m1", "sector-c-m2",
    "sector-d-m0", "sector-d-m1", "sector-d-m2",
    "qdiff-a-n1", "qdiff-c-n1", "qdiff-a-n2", "qdiff-c-n2",
)

# (algebra, level) of the six module families at rank 1 and rank 2.
RANK1 = (("a", "-1"), ("c", "1/2"), ("c", "-1"), ("c", "-3/2"),
         ("d", "-1"), ("d", "-1/2"))
RANK2 = (("a", "-2"), ("c", "3/2"), ("c", "-2"), ("c", "-5/2"),
         ("d", "-2"), ("d", "-3/2"))

# Every reduced p/q with 0 < p < q <= 13.
POINT_POOL = tuple(sorted({Fraction(p, q) for q in range(2, 14)
                           for p in range(1, q)}))

WORKLOADS = ("verify-kernel", "verify-enum", "cli-session")


def _degenerate(points):
    """True when some signed product prod t_i^(+-1) over a nonempty subset
    equals 1: the pole where closedform.f_bo raises DegenerateParameter."""
    for size in range(1, len(points) + 1):
        for subset in combinations(points, size):
            for signs in product((1, -1), repeat=size - 1):
                value = subset[0]
                for t, e in zip(subset[1:], signs):
                    value = value * t if e == 1 else value / t
                if value == 1:
                    return True
    return False


class _PointDraw:
    """Draws points from a shuffled copy of the pool, without replacement
    until the pool is used up, so every run spreads the same pool over its
    requests and the seed only decides which request gets which point."""

    def __init__(self, rng):
        self.rng = rng
        self.deck = []

    def one(self):
        if not self.deck:
            self.deck = list(POINT_POOL)
            self.rng.shuffle(self.deck)
        return self.deck.pop()

    def points(self, n):
        while True:
            pts = [self.one() for _ in range(n)]
            if not _degenerate(pts):
                return pts


def _corr(alg, level, label, pts, mode, N):
    argv = ["corr", "--algebra", alg, "--level=" + level, "--lambda", label]
    if pts:
        argv += ["--points"] + [str(t) for t in pts]
    return argv + ["--mode", mode, "--N", str(N)]


def _qdim(alg, level, label, N, form="weyl"):
    return ["qdim", "--algebra", alg, "--level=" + level, "--lambda", label,
            "--form", form, "--N", str(N)]


def cli_pairs(seed):
    """The 54 request pairs of ``cli-session``; the two argv lists of a pair
    must print byte-identical output."""
    rng = random.Random(seed)
    draw = _PointDraw(rng)
    pairs = []
    for (alg, lev), label, shapes in (
            *((f, "1", ((1, 8), (2, 8), (3, 4))) for f in RANK1),
            *((f, "1,0", ((0, 6), (1, 6), (2, 4))) for f in RANK2)):
        for n, N in shapes:
            pts = draw.points(n)
            pairs.append((_corr(alg, lev, label, pts, "oracle", N),
                          _corr(alg, lev, label, pts, "assignment", N)))
    for label in ("0,0", "1,0", "2,0", "2,1"):
        pairs.append((_qdim("c", "3/2", label, 16, "weyl"),
                      _qdim("c", "3/2", label, 16, "product")))
    for alg, lev in RANK2:
        if (alg, lev) == ("c", "3/2"):
            continue
        for label in ("0,0", "1,0"):
            pairs.append((_qdim(alg, lev, label, 8),
                          _corr(alg, lev, label, [], "oracle", 8)))
    for _ in range(4):
        a = str(draw.one())
        pairs.append((["dump", "qhyper", "arg=" + a, "N=30"],
                      ["dump", "pochhammer", "a=" + a, "N=30"]))
    return pairs


def operations(workload, seed):
    """The operation list of one workload: check names for the verify
    workloads, and for ``cli-session`` a list of [pair index, argv] in
    request order."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "verify-kernel":
        ops = list(VERIFY_KERNEL)
    elif workload == "verify-enum":
        ops = list(VERIFY_ENUM)
    elif workload == "cli-session":
        ops = [[i, argv] for i, pair in enumerate(cli_pairs(seed))
               for argv in pair]
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(ops)
    return ops


def digest(ops):
    """Short hex digest of an operation list, logged with every run."""
    blob = json.dumps(ops, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
