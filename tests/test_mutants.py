"""The mutant kill matrix: one-line mutants of src/ that the gate checks of
``qfock verify`` must catch.

Each row of MUTANTS is (file, old text, new text, reason).  The test copies
src/ to a temporary directory, asserts that the old text occurs exactly once
in the file, replaces it, runs every gate check on the copy in a fresh
interpreter and asserts that at least one gate fails.  The gates each
mutant fails (the matrix so far):

- ``_over_codes``' accumulate sign: 9, the ``qdiff-a-*`` and
  ``qdim-charge-resolved-*`` gates, ``identity-ff-specializes-qdim`` and
  ``beta-negative-qval``;
- ``_over_one_minus``' scalar quotient ``g = B - A``: 10;
- ``_chain_list``'s product pass sign: 22 for B = 1 and 17 for B != 1;
- the sign of ``_over_one_minus``' mirror quotient at d < 0: 1,
  ``beta-negative-qval``, the one gate that divides by such a factor;
- the (-1)^(k-1) sign of ``closedform._f_bo_all``'s subset recursion: 7,
  ``zzz-k-1-n1``, ``zzz-k0-n1``, ``zzz-k2-n1`` and the four
  ``duality-assignment-c-lminushalf-*`` gates (at two points the flipped
  sign cancels, as S_2(1) = 0);
- its k! weight, the 1/2^k of k! S_k = R_k / (D 2^k): 10, the six
  ``zzz-*`` gates and the four ``duality-assignment-c-lminushalf-*``;
- ``fock._knapsack``'s A-rule sign on mu, ``(0, -1, ym)``: 16, the
  ``one-point-*``, ``gl-general-*``, ``qdiff-a-*`` and ``zzz-*`` gates and
  ``oracle-direct-a-negl``;
- its constant term doubled: 31, the 15 of the row above other than
  ``oracle-direct-a-negl``, the ``c-1pt-half-*`` and ``qdiff-c-*`` gates,
  the four ``duality-assignment-c-lminushalf-*`` and all six
  ``oracle-direct-*``;
- the C rule's charged constant scaled by 3, not 2: 9, the four
  ``duality-assignment-c-lminushalf-*`` (whose closed side is f_bo) and
  the five ``oracle-direct-*`` of types c and d;
- the C rule's sign on mu, ``(1, -1, ym)``: 25, those 9 and the 16
  ``duality-assignment-*`` of the boson families of types c and d at one
  and two points, whose closed side reads the slices at |k| while the
  oracle reads every charge.  The ``sector-c/d-*`` gates read the C rule
  on both sides at charges m >= 0, and no mutant of it fails them.  Were
  the closed side to read the signed charges, the pair's two reads would
  share one table and this row would fail only the 9;
- ``fock._trace_table``'s subset test ``True``, so a held table is
  served whatever buckets were asked: 47, 27 ``duality-assignment-*``
  (the boson families of types c and d, and c l-1/2 at lambda = (1, 0)),
  18 ``qdim-*`` gates of every family, ``oracle-direct-c-neglminushalf``
  and ``oracle-direct-d-neglplushalf``;
- the knapsack's largest part dropped, each side's parts starting one
  below the largest that fits: 54, the ``one-point-*``,
  ``c-1pt-half-*``, ``gl-general-*``, ``zzz-*`` and ``qdiff-*`` gates,
  ``qdim-*`` gates of every family, the four
  ``duality-assignment-c-lminushalf-*`` and ``oracle-direct-*``;
- the trie's leaf sign ignored, ``out[q2] += c``: 67, the
  ``duality-assignment-*`` of every family, the ``oracle-direct-*``,
  ``sector-*`` and ``qdim-*`` gates whose oracle reads the trie;
- the neutral C rule's sign, ``sides = [(1, 1, (1, 1, 0, 0))]``: 9, the
  ``c-1pt-half-*`` and ``qdiff-c-*`` gates and the three
  ``oracle-direct-*`` of the families with a neutral factor;
- ``combinat.rho_vector``'s C offset 1 -> 2, d -l's rho: 2, the
  ``rank1-base-d-negl-*`` gates, whose base reads no rho (the oracle and
  the fold of every other gate read the same rho; d -l's rho kind C -> B
  in ``closedform._FAMILIES`` fails the same two);
- the fold's type-D parity ignored, ``flip = False`` in
  ``closedform._alternant``: 14, the c -l ``duality-assignment-*``,
  ``qdim-c-negl-*``, ``qdim-c-r1-*`` and ``rank1-base-c-negl-*`` gates;
- type D's Weyl group swapped for its odd coset in
  ``combinat.weyl_group``: 12, the c -l ``duality-assignment-*``,
  ``qdim-c-negl-*`` and ``qdim-c-r1-*`` gates;
- the sign of ``qseries._inverse_list``'s z-free recurrence: 20, the
  ``prop-111-*``, ``identity-ff-*``, ``zzz-*`` gates,
  ``exponential-right`` and the four ``duality-assignment-c-lminushalf-*``
  at one and two points;
- ``fock.CENTRAL_CHARGE`` of the neutral boson, -1 for -1/2: 7, the
  ``qdim-c-poshalf-*`` gates and two ``qdim-c-neglminushalf-r2-*``, which
  find their family's rank from the level through it;
- ``qseries._product_slices``' product sign, ``+ an * bn`` -> ``-``: 42,
  28 ``qdim-*`` gates of every family, the six ``oracle-direct-*``, five
  ``qdiff-*``, ``beta-negative-qval``, ``exponential-right`` and
  ``identity-ff-specializes-qdim``;
- its slice read, ``map(sub, hw, h)`` -> ``add``: 3, the ``qdiff-a-*``;
- ``qseries._chain_codes``' charged product pass sign, ``- A * n`` ->
  ``+``: 3, ``identity-ff-specializes-qdim``,
  ``qdim-charge-resolved-r1-lam1`` and ``qdim-charge-resolved-r2-lam1_0``;
- ``modesum._cumulant_sum``'s ``+ betas[block[0]]`` -> ``-``: 6, the
  ``qdiff-a-*`` and ``qdiff-c-*``;
- ``modesum.a_cumulant_sum``'s sign ``(-1) ** len(G)`` ->
  ``(-1) ** (len(G) + 1)``: 3, the ``qdiff-a-*``;
- ``fock.eigenvalue``'s A rule sign on mu, ``v -= t_root ** (1 - 2 * p)``
  -> ``+=``: 6, the ``oracle-direct-*``, whose state enumeration is the
  one gate side that reads ``eigenvalue``;
- its C rule, ``v -= eig_a(`` -> ``+=``: 5, the ``oracle-direct-*`` of
  types c and d;
- ``fock.CENTRAL_CHARGE`` of the neutral fermion, 1 for 1/2: 3, the
  ``qdim-d-neglplushalf-r2-*``, which find their family's rank from the
  level through it;
- c l-1/2's rho kind B -> C in ``closedform._FAMILIES``: 3, the
  ``qdim-c-poshalf-forms-*``.

The counts were measured with the table memo serving any subset of a held
table's buckets, and every row's count equals the one measured with the
exact-key memo before it and with the uncached knapsack.  A mutant that no gate kills is a finding that
wants a new gate, not a row: the rho kind A -> C of c -l, and B -> C of
c -l-1/2 and of d -l+1/2, in ``closedform._FAMILIES`` fail none.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

MUTANTS = [
    ("qseries.py",
     "cur[k] = cur.get(k, 0) + (",
     "cur[k] = cur.get(k, 0) - (",
     "the charged quotient loop of Series.invert and _chain_codes"),
    ("qseries.py",
     "g = B - A  # s / (1 - A/B)",
     "g = B + A  # s / (1 - A/B)",
     "a quotient by a scalar factor 1 - p at d = 0"),
    ("qseries.py",
     "L = L[:d2] + [x - A * y for x, y in zip(L[d2:], L)]",
     "L = L[:d2] + [x + A * y for x, y in zip(L[d2:], L)]",
     "the z-free product pass by 1 - A q^d"),
    ("qseries.py",
     "[B * x - A * y",
     "[B * x + A * y",
     "the z-free product pass by 1 - A/B q^d, B != 1"),
    ("qseries.py",
     "(-A, B, d2, ze), t2)",
     "(A, B, d2, ze), t2)",
     "the mirror quotient by 1 - p of negative q-valuation"),
    ("closedform.py",
     "parts.append(((-1) ** (k - 1), den << k, T))",
     "parts.append(((-1) ** k, den << k, T))",
     "the (-1)^(k-1) sign of f_bo's subset recursion"),
    ("closedform.py",
     "parts.append(((-1) ** (k - 1), den << k, T))",
     "parts.append(((-1) ** (k - 1), den << (k - 1), T))",
     "the k! weight of f_bo's subset recursion, k! S_k = R_k / (D 2^k)"),
    ("fock.py",
     "(0, -1, ym)",
     "(0, 1, ym)",
     "the A rule's sign on mu in the Fock knapsack"),
    ("fock.py",
     "consts.append(csign * a * b",
     "consts.append(2 * csign * a * b",
     "the Fock knapsack's constant term"),
    ("fock.py",
     '(2 if kind in CHARGED and op_tag != "A"',
     '(3 if kind in CHARGED and op_tag != "A"',
     "the C rule's charged constant, 2 beta(t)"),
    ("fock.py",
     "(1, -1, ym)",
     "(1, 1, ym)",
     "the C rule's sign on mu, t^(p-1/2) - t^(-p+1/2)"),
    ("fock.py",
     "wanted is not None and wanted <= built",
     "True",
     "the table memo's subset test on the buckets a held table was built for"),
    ("fock.py",
     "for p in range((N2 - d2 + 1) // 2, 0, -1)",
     "for p in range((N2 - d2 + 1) // 2 - 1, 0, -1)",
     "the knapsack's largest part on each side"),
    ("fock.py",
     "out[q2] += sgn * c",
     "out[q2] += c",
     "the sign of each leaf of the duality trie"),
    ("fock.py",
     "sides = [(1, -1, (1, 1, 0, 0))]",
     "sides = [(1, 1, (1, 1, 0, 0))]",
     "the neutral C rule's sign, t^(p-1/2) - t^(-p+1/2)"),
    ("combinat.py",
     '"C": Fraction(1)}',
     '"C": Fraction(2)}',
     "rho_C's offset, l - i + 1"),
    ("closedform.py",
     'flip = inst.weyl == "D" and s < 0',
     "flip = False",
     "the type-D parity of the alternant's sign flips"),
    ("combinat.py",
     "signs.count(-1) % 2",
     "not signs.count(-1) % 2",
     "type D's Weyl group, not its odd coset"),
    ("qseries.py",
     "G.append(-sum(",
     "G.append(sum(",
     "the sign of the z-free inverse recurrence"),
    ("fock.py",
     '"boson_neutral": F(-1, 2),',
     '"boson_neutral": F(-1),',
     "the neutral boson's central charge, -1/2"),
    ("qseries.py",
     "out[k] = out.get(k, 0) + an * bn",
     "out[k] = out.get(k, 0) - an * bn",
     "the sign of each term pair in the product loop"),
    ("qseries.py",
     "rows.get(tuple(map(sub, hw, h)))",
     "rows.get(tuple(map(add, hw, h)))",
     "the charge difference of a slice read"),
    ("qseries.py",
     "cur[c] = cur.get(c, 0) - A * n",
     "cur[c] = cur.get(c, 0) + A * n",
     "the charged product pass by 1 - A q^d z^e"),
    ("modesum.py",
     "K[G] = K[G] + betas[block[0]]",
     "K[G] = K[G] - betas[block[0]]",
     "the beta term of a block's cumulant"),
    ("modesum.py",
     "down.scale((-1) ** len(G))",
     "down.scale((-1) ** (len(G) + 1))",
     "the sign of the cumulant sum's lower order"),
    ("fock.py",
     "v -= t_root ** (1 - 2 * p)",
     "v += t_root ** (1 - 2 * p)",
     "the eigenvalue's A rule sign on mu, t^(-p+1/2)"),
    ("fock.py",
     "v -= eig_a(",
     "v += eig_a(",
     "the eigenvalue's C rule, A(t) - A(t^(-1))"),
    ("fock.py",
     '"fermion_neutral": F(1, 2),',
     '"fermion_neutral": F(1),',
     "the neutral fermion's central charge, 1/2"),
    ("closedform.py",
     '("c", "l-1/2"): ("fermion_pair", "C", "BC", "B",',
     '("c", "l-1/2"): ("fermion_pair", "C", "BC", "C",',
     "c l-1/2's rho kind, B"),
]

GATES = """
import json
from qfock import verify
print(json.dumps([r.name for r in map(verify.run_check, verify.registry())
                  if r.mode == "gate" and r.status != "pass"]))
"""


@pytest.mark.parametrize("path,old,new,reason", MUTANTS,
                         ids=[row[3] for row in MUTANTS])
def test_mutant_fails_a_gate(tmp_path, path, old, new, reason):
    shutil.copytree(SRC, tmp_path / "src")
    target = tmp_path / "src" / "qfock" / path
    text = target.read_text()
    assert text.count(old) == 1
    target.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    out = subprocess.run([sys.executable, "-c", GATES], env=env,
                         capture_output=True, text=True, check=True,
                         cwd=tmp_path).stdout
    assert json.loads(out), reason
