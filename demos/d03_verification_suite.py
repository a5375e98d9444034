"""
Driving the verification suite
==============================

Every closed formula in the library is registered as a named check that
pits it against an independent oracle, coefficient by coefficient.  This
script runs a few slices of the registry and shows the reporting options.
"""

from qfock import verify

# ----------------------------------------------------------------------
# 1. The registry
# ----------------------------------------------------------------------
specs = verify.registry()
gates = [s for s in specs if s.mode == "gate"]
print("registered checks: %d (%d gating, %d report-only)"
      % (len(specs), len(gates), len(specs) - len(gates)))
print("sample names:")
for s in specs[:5]:
    print("   ", s.name)
print()

# ----------------------------------------------------------------------
# 2. Running a filtered slice
# ----------------------------------------------------------------------
# Filters are shell-style globs on check names.

results = verify.run_suite("one-point-*")
print(verify.report_table(results))
print()

# ----------------------------------------------------------------------
# 3. Exact failure localisation
# ----------------------------------------------------------------------
# When a check fails, the result records the first differing monomial and
# both exact coefficients.  Build a deliberately broken check to see it:

from fractions import Fraction as F
from qfock.qseries import Series

broken = verify.CheckSpec(
    name="demo-broken",
    N=4,
    mode="report",
    pair=lambda: (Series.const(F(1), 4), Series.const(F(2), 4)),
)
res = verify.run_check(broken)
print("broken check status:", res.status)
print("first discrepancy:  ", res.first_discrepancy)
print()

# ----------------------------------------------------------------------
# 4. Machine-readable output
# ----------------------------------------------------------------------
print(verify.report_json(verify.run_suite("qdiff-*")))
