"""Signed-permutation Weyl groups, rho-vectors and k-vectors.

Weyl elements act on weight vectors by (sigma v)_i = signs[i] * v[perm[i]];
the sign of an element is the determinant of its signed permutation matrix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .qseries import CapExceeded, QSeriesError, to2

WEYL_CAP = 6


# -- Weyl groups ------------------------------------------------------------


class WeylElement(NamedTuple):
    perm: Tuple[int, ...]          # 0-based permutation of range(l)
    signs: Tuple[int, ...]         # entries +-1; type A: all +1
    wtype: str                     # 'A', 'BC' or 'D'

    @property
    def l(self) -> int:
        return len(self.perm)

    @property
    def sign(self) -> int:
        s = _perm_sign(self.perm)
        for e in self.signs:
            s *= e
        return s

    def act(self, v: Sequence[Fraction]) -> List[Fraction]:
        """(sigma v)_i = signs[i] * v[perm[i]]."""
        return [self.signs[i] * v[self.perm[i]] for i in range(self.l)]


def _perm_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def weyl_group(wtype: str, l: int) -> Iterator[Tuple[WeylElement, int]]:
    """Yield (element, sign) over W(A_{l-1})=S_l, W(B_l)=W(C_l), or W(D_l)."""
    if l < 1:
        raise QSeriesError("rank must be >= 1")
    if l > WEYL_CAP:
        raise CapExceeded("Weyl rank %d exceeds cap %d" % (l, WEYL_CAP))
    if wtype not in ("A", "BC", "D"):
        raise QSeriesError("unknown Weyl type %r" % wtype)
    for perm in itertools.permutations(range(l)):
        if wtype == "A":
            w = WeylElement(perm, (1,) * l, wtype)
            yield w, w.sign
            continue
        for signs in itertools.product((1, -1), repeat=l):
            if wtype == "D" and signs.count(-1) % 2:
                continue
            w = WeylElement(perm, signs, wtype)
            yield w, w.sign


def rho_vector(kind: str, l: int) -> List[Fraction]:
    """rho (type A/D engine): l-i; rho_B: l-i+1/2; rho_C: l-i+1 (i=1..l)."""
    off = {"A": Fraction(0), "B": Fraction(1, 2), "C": Fraction(1)}[kind]
    return [Fraction(l - i) + off for i in range(1, l + 1)]


def k_vector(lam: Sequence[int], sigma: WeylElement,
             rho: Sequence[Fraction]) -> List[int]:
    """k_i = lambda_i + rho_i - (sigma rho)_i, read in doubled ints; always
    integral."""
    if not (len(lam) == sigma.l == len(rho)):
        raise QSeriesError("dimension mismatch")
    rho2 = [to2(r) for r in rho]
    out = []
    for li, r2, s2 in zip(lam, rho2, sigma.act(rho2)):
        k2 = 2 * li + r2 - s2
        if k2 % 2:
            raise QSeriesError("non-integral k-vector entry %s"
                               % Fraction(k2, 2))
        out.append(k2 // 2)
    return out
