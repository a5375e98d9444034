"""Source hygiene: every name a qfock module imports is used in it, every
function, class and method it defines is named again in src/ or demos/, no
module uses floating point, the closed forms enumerate no Weyl group and read
no table of the duality oracle nor keep state across calls, the Fock traces
have one engine, every quotient by (1 - p) factors goes through one
kernel and joins charges by integer codes, as products and inverses do, the
charged q-difference check builds no full z-graded trace, no code outside
qseries reads a Series' numerators, and importing the CLI and
building the check registry loads no dataclass machinery.  In tests/, no test
module imports another, and every name tests/reference.py defines is used."""

import ast
import collections
import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

import qfock

MODULES = sorted(pathlib.Path(qfock.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
# the package modules, then every test and demo module
SOURCES = MODULES + sorted(ROOT.glob("tests/*.py")) \
    + sorted(ROOT.glob("demos/*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name
                         if p in MODULES else str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" \
                or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted("%s (line %d)" % (name, line)
                    for name, line in imported.items() if name not in used)
    assert not unused, "unused imports in %s: %s" % (path.name, ", ".join(unused))


# Definitions that only tests call, each kept on purpose.
CALLED_FROM_TESTS_ONLY = {
    "truncation": "Series.truncation, documented API",
}


def test_every_definition_is_named_again():
    """A def or class whose name occurs nowhere in src/ or demos/ but in its
    own definition has no caller outside the unit tests, unless it is listed
    in CALLED_FROM_TESTS_ONLY."""
    names = collections.Counter()
    for sub in ("src", "demos"):
        for path in (ROOT / sub).rglob("*.py"):
            with tokenize.open(path) as fh:
                names.update(tok.string for tok in tokenize.generate_tokens(
                    fh.readline) if tok.type == tokenize.NAME)
    defined = collections.Counter()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("__"):
                defined[node.name] += 1
    unnamed = sorted(n for n, k in defined.items() if names[n] <= k)
    assert unnamed == sorted(CALLED_FROM_TESTS_ONLY), \
        "defined but never named outside tests/: %s" % ", ".join(unnamed)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    """Every coefficient is an exact Fraction: no float literal and no use
    of the name float anywhere in the package."""
    tree = ast.parse(path.read_text())
    found = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, (float, complex))
                   or isinstance(node, ast.Name) and node.id == "float")
    assert not found, "floating point in %s, lines %s" % (path.name, found)


def test_closed_forms_enumerate_no_weyl_group():
    """In closedform.py only the oracle-side ``_weyl_shifts`` names
    ``weyl_group`` or ``k_vector``; the closed-form Weyl sums are alternants,
    so the two sides of a gate share no sign convention."""
    path = ROOT / "src" / "qfock" / "closedform.py"
    users = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            # Attribute.attr, Name.id, and the name of an import or a def
            named = {getattr(node, f, None) for f in ("attr", "id", "name")}
            if named & {"weyl_group", "k_vector"}:
                users.add(getattr(top, "name", "<module>"))
    assert users == {"_weyl_shifts"}


def test_closed_forms_read_no_oracle_table():
    """In closedform.py only ``extract_dominant`` names ``duality_trace``,
    and nothing names the knapsack ``_trace_table`` or the oracle's
    per-factor tables (``_factor_subset_traces``): the closed forms reach
    the knapsack only through ``fock.a_sector_rows`` and ``_neutral_rows``.
    Their boson-pair blocks read the side rule (A, or C/D) that the trie
    reads too, so the sector and duality gates miss some wrong rules;
    the ``oracle-direct-*`` gates check it against state enumeration, which
    reads ``fock.eigenvalue`` and no knapsack."""
    path = ROOT / "src" / "qfock" / "closedform.py"
    users = collections.defaultdict(set)
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            named = {getattr(node, f, None) for f in ("attr", "id", "name")}
            for name in named & {"duality_trace", "_trace_table",
                                 "_factor_subset_traces"}:
                users[name].add(getattr(top, "name", "<module>"))
    assert dict(users) == {"duality_trace": {"extract_dominant"}}


def test_rows_have_one_format():
    """fock.Row is the one integer-row format from the Fock knapsack to the
    closed-form fold: ``Row`` and its one converter ``row_series`` are
    defined in fock.py alone, and neither fock.py nor closedform.py
    defines the series views and row converters it replaced."""
    defined = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, set()).add(path.name)
        for node in tree.body:
            for target in getattr(node, "targets", ()):
                if isinstance(target, ast.Name):
                    defined.setdefault(target.id, set()).add(path.name)
    assert defined["Row"] == defined["row_series"] == {"fock.py"}
    gone = {"a_sector_traces", "_neutral_traces", "_rows", "_series",
            "_factor_subset_traces", "_fold_row"}
    assert sorted(name for name in gone if defined.get(name, set())
                  & {"fock.py", "closedform.py"}) == []


def test_fock_keeps_one_trace_engine():
    """fock.py builds every trace with the one knapsack ``_trace_table``:
    the side tables and pair pass it replaced are not defined beside it
    (their enumerated form is the reference in tests/reference.py)."""
    path = ROOT / "src" / "qfock" / "fock.py"
    defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "_trace_table" in defined
    assert not defined & {"_side_table", "_charged_sides", "_pair_traces",
                          "_z_free_traces", "_a_trace"}


def test_tables_fill_every_mask_and_qdims_fold_one_way():
    """The knapsack fills every point mask, so no def in fock.py or
    closedform.py takes a ``masks`` list to pick rows from it, and every
    q-dimension, the fermion family's included, is the one Weyl fold in
    ``qdim_closed``: ``_c_positive_half_qdim`` is not defined."""
    takes, defined = set(), set()
    for name in ("fock.py", "closedform.py"):
        tree = ast.parse((ROOT / "src" / "qfock" / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
                args = node.args.posonlyargs + node.args.args \
                    + node.args.kwonlyargs
                if "masks" in {a.arg for a in args}:
                    takes.add(node.name)
    assert takes == set()
    assert "_c_positive_half_qdim" not in defined


@pytest.mark.parametrize("module,func", [("fock", "duality_trace"),
                                         ("closedform", "duality_reduce")])
def test_duality_sides_enumerate_no_point_map(module, func):
    """Neither side of the duality gates names ``product`` or
    ``iter_product``: the oracle sums the maps from points to factors over
    its charge-prefix trie and the closed form in its alternant's point-mask
    fold, and no map-by-map loop runs beside them (it is the reference in
    tests/)."""
    tree = ast.parse((ROOT / "src" / "qfock" / (module + ".py")).read_text())
    (top,) = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == func]
    named = set()
    for node in ast.walk(top):
        named |= {getattr(node, f, None) for f in ("attr", "id", "name")}
    assert not named & {"product", "iter_product"}


def test_quotients_by_one_minus_factors_have_one_path():
    """In qseries.py, closedform.py and modesum.py no ``.invert()`` is
    applied to an expression that builds ``_one_minus``, ``pochhammer_n``
    or ``pochhammer_inf``, ``_over_one_minus`` included: every quotient by
    (1 - p) factors and Pochhammer symbols is a pass of the chain kernel,
    with no generic fallback."""
    factors = {"_one_minus", "pochhammer_n", "pochhammer_inf"}
    users = set()
    for name in ("qseries", "closedform", "modesum"):
        tree = ast.parse((ROOT / "src" / "qfock" / (name + ".py")).read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Attribute)
                        and node.attr == "invert"):
                    continue
                built = {n.func.id for n in ast.walk(node.value)
                         if isinstance(n, ast.Call)
                         and isinstance(n.func, ast.Name)}
                if built & factors:
                    users.add("%s.%s" % (name, getattr(top, "name", "?")))
    assert users == set()


def _names_in(module, funcs):
    """{function: the names (Name.id, Attribute.attr, def and import
    names) its top-level definition in module uses, or a method's, named
    Class.method}; a missing def fails."""
    tree = ast.parse((ROOT / "src" / "qfock" / (module + ".py")).read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    defs.update(("%s.%s" % (cls.name, node.name), node) for cls in tree.body
                if isinstance(cls, ast.ClassDef) for node in cls.body
                if isinstance(node, ast.FunctionDef))
    assert set(funcs) <= set(defs), sorted(set(funcs) - set(defs))
    out = {}
    for func in funcs:
        named = set()
        for node in ast.walk(defs[func]):
            named |= {getattr(node, f, None) for f in ("attr", "id", "name")}
        out[func] = named
    return out


def test_charged_quotients_join_charge_codes():
    """``_over_one_minus``, ``_over_pochhammer``, ``_pochhammer_chain``, the
    chain kernels ``_chain`` and ``_chain_sum``, the code kernel
    ``_chain_codes`` and its quotient loop ``_over_codes`` name no
    ``_zmul``: a charged quotient, product or term-by-term sum adds integer
    charge codes, as ``Series.invert`` does, and has no z-key path beside
    them."""
    named = _names_in("qseries", ("_over_one_minus", "_over_pochhammer",
                                  "_pochhammer_chain", "_chain",
                                  "_chain_sum", "_chain_codes",
                                  "_over_codes"))
    assert {f for f, names in named.items() if "_zmul" in names} == set()


def test_charged_inverse_and_chain_share_one_quotient_loop():
    """``Series.invert`` and ``_chain_codes`` both run their charged
    quotients through ``_over_codes`` and decode through ``_from_codes``,
    and neither decodes charge codes itself with ``_zdecode``."""
    named = _names_in("qseries", ("Series.invert", "_chain_codes"))
    for func, names in named.items():
        assert {"_over_codes", "_from_codes"} <= names, func
        assert "_zdecode" not in names, func


def test_products_and_inverses_join_charge_codes():
    """``Series.__mul__`` and ``Series.invert`` name no ``_zmul``: a charged
    product or inverse adds integer keys built from charge codes, with no
    z-key path beside them."""
    named = _names_in("qseries", ("Series.__mul__", "Series.invert"))
    assert {f for f, names in named.items() if "_zmul" in names} == set()


def test_qdiff_reads_one_charge_of_the_trace():
    """``closedform.qdiff_residual`` and the z^1 slice it reads
    (``_a_trace_z1``) name no ``a_generalized_trace``: the charged left side
    is one slice of a product, not a slice of the full z-graded trace
    (which is its reference in tests/test_modesum.py)."""
    named = _names_in("closedform", ("qdiff_residual", "_a_trace_z1"))
    assert {f for f, names in named.items()
            if "a_generalized_trace" in names} == set()


def test_only_entry_reads_numerators_outside_qseries():
    """Outside qseries.py no code reads a Series' ``nums``: a weighted sum
    of z-slices is read by ``qseries._product_slices``, not by a loop over
    the numerators beside it, and the alternant's fermion-pair rows come
    from integer lists, not from a series read term by term."""
    users = set()
    for path in MODULES:
        if path.name == "qseries.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "nums":
                    users.add("%s.%s" % (path.stem,
                                         getattr(top, "name", "<module>")))
    assert users == set()


def test_products_by_one_minus_factors_have_one_path():
    """In qseries.py, closedform.py and modesum.py no Series is multiplied
    by an expression that builds ``_one_minus``, ``pochhammer_n`` or
    ``pochhammer_inf``: every product by (1 - p) factors and Pochhammer
    symbols is one pass of the chain kernel per factor, or at a scalar point
    of d = 0 a product with the number 1 - p."""
    factors = {"_one_minus", "pochhammer_n", "pochhammer_inf"}
    users = set()
    for name in ("qseries", "closedform", "modesum"):
        tree = ast.parse((ROOT / "src" / "qfock" / (name + ".py")).read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.BinOp):
                    operands = (node.left, node.right)
                elif isinstance(node, ast.AugAssign):
                    operands = (node.value,)
                else:
                    continue
                if not isinstance(node.op, ast.Mult):
                    continue
                built = {n.func.id for operand in operands
                         for n in ast.walk(operand)
                         if isinstance(n, ast.Call)
                         and isinstance(n.func, ast.Name)}
                if built & factors:
                    users.add("%s.%s" % (name, getattr(top, "name", "?")))
    assert users == set()


def test_closed_forms_keep_no_hidden_state():
    """closedform.py imports neither ``threading`` nor ``contextlib`` and
    has no ``global`` statement: a memo such as the theta data of a batch
    of f_bo lists lives inside one call and is freed when it returns."""
    path = ROOT / "src" / "qfock" / "closedform.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Global):
            found.add("global")
    assert not found & {"threading", "contextlib", "global"}


def test_cli_import_loads_no_dataclass_machinery():
    """In a fresh interpreter, ``import qfock.cli`` and
    ``verify.registry()`` load none of ``dataclasses``, ``inspect``,
    ``argparse`` and ``gettext``: importing the first two pulls in ``ast``,
    ``dis`` and ``tokenize`` too, about half of the CLI's import time, and
    argparse (with the gettext it imports) was a sixth of it."""
    probe = ("import sys\n"
             "import qfock.cli\n"
             "from qfock import verify\n"
             "verify.registry()\n"
             "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'}"
             " & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_trace_engine_computes_beta_apart_from_its_cross_check():
    """``fock._trace_table`` builds beta(t) from the integers of t^(1/2)
    and names neither ``beta_scalar`` nor ``scalar_pow``: the brute-force
    ``duality_trace_direct`` reads beta through ``eigenvalue`` and
    ``beta_scalar``, so the two sides of that check share no beta code."""
    tree = ast.parse((ROOT / "src" / "qfock" / "fock.py").read_text())
    (top,) = [node for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name == "_trace_table"]
    named = set()
    for node in ast.walk(top):
        named |= {getattr(node, f, None) for f in ("attr", "id", "name")}
    assert not named & {"beta_scalar", "scalar_pow"}


def test_tests_import_no_test_module():
    """No module in tests/ imports a ``test_*`` module: what the tests share
    lives in tests/reference.py."""
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += ["%s imports %s" % (path.name, mod) for mod in mods
                      if mod.split(".")[0].startswith("test_")]
    assert not found, found


def test_every_reference_is_used():
    """Every top-level def, class or assignment of tests/reference.py is
    named in a test module, or in the definition of a name that is: the
    module keeps no reference that no test reads."""
    uses = {}
    for top in ast.parse((ROOT / "tests" / "reference.py").read_text()).body:
        names = [top.name] if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
            else [t.id for t in getattr(top, "targets", ())
                  if isinstance(t, ast.Name)]
        for name in names:
            uses[name] = {getattr(node, f, None) for node in ast.walk(top)
                          for f in ("id", "attr")} - {name}
    todo = []
    for path in (ROOT / "tests").glob("test_*.py"):
        with tokenize.open(path) as fh:
            todo += [tok.string for tok in tokenize.generate_tokens(fh.readline)
                     if tok.type == tokenize.NAME and tok.string in uses]
    reached = set(todo)
    while todo:
        new = (uses[todo.pop()] & set(uses)) - reached
        reached |= new
        todo += new
    assert sorted(set(uses) - reached) == []
