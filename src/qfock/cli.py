"""Command-line front end.

Subcommands:

* ``corr``      — n-point correlation functions of the negative-level
                  modules (oracle extraction, or the assignment/literal
                  Weyl-group reductions).
* ``qdim``      — graded dimensions from the closed formulas.
* ``identity``  — run one named identity check and report it.
* ``verify``    — run the registered verification suite.
* ``dump``      — serialize registered generating functions.

All rationals are entered and printed exactly; levels and truncation
orders accept half-integers as strings like ``-3/2``.  Exit status: 0 on
success and for ``-h``, 1 when a requested check fails or the reader
closes stdout early (``qfock ... | head``), 2 on usage or parameter errors.
"""

import json
import os
import sys
from fractions import Fraction as F
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

from . import closedform as cf
from . import verify
from .qseries import (
    Param,
    QSeriesError,
    Series,
    _monomial_str,
    _ratio_str,
    half_str,
    parse_half,
    pochhammer_inf,
    qhyper,
    series_to_json,
    theta,
)


class UsageError(Exception):
    pass


def _parse_rational(text: str) -> F:
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("not a rational number: %r" % text)


def _parse_point(text: str) -> Param:
    """A point is an s-value "p/q", optionally with a q-shift: "p/q:d"."""
    s, colon, shift = text.partition(":")
    sval = _parse_rational(s)
    if sval == 0:
        raise UsageError("point value must be nonzero")
    if not colon:
        return Param(sval)
    try:
        d2 = parse_half(shift)
    except QSeriesError:
        raise UsageError("bad q-shift %r (use an integer or k/2)" % shift)
    return Param(sval, F(d2, 2))


def _parse_points(texts: Sequence[str]) -> List[Param]:
    return [_parse_point(t) for t in texts]


def _parse_point_list(text: str) -> List[Param]:
    """A comma list of points; "" is none, and an empty entry is refused."""
    entries = text.split(",") if text else []
    if "" in entries:
        raise UsageError("empty entry in point list %r" % text)
    return _parse_points(entries)


def _parse_label(text: str) -> Tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("bad weight label %r (comma-separated integers)"
                         % text)


def _parse_count(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError("not an integer: %r" % text)


def _parse_order(text: str) -> F:
    try:
        n2 = parse_half(text)
    except QSeriesError:
        raise UsageError("bad truncation order %r" % text)
    if n2 < 0:
        raise UsageError("truncation order N must be nonnegative, got %s"
                         % text)
    return F(n2, 2)


# -- output ------------------------------------------------------------------


def _emit_series(s: Series, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(series_to_json(s), sort_keys=True) + "\n")
    elif fmt == "csv":
        out.write("q_num,z,coeff_num,coeff_den\n")
        for (q2, zk), n, d in s.reduced_terms():
            zcol = ";".join("%d:%s" % (v, half_str(e2)) for v, e2 in zk)
            out.write("%d,%s,%d,%d\n" % (q2, zcol, n, d))
    else:  # "pretty"; _parse_args admits no other format
        rows = [(_monomial_str(q2, zk), _ratio_str(n, d))
                for (q2, zk), n, d in s.reduced_terms()]
        width = max([len(m) for m, _ in rows] + [4])
        for mono, c in rows:
            out.write("%-*s  %s\n" % (width, mono, c))
        if not rows:
            out.write("0\n")


# -- subcommands -------------------------------------------------------------


def _cmd_corr(args, out) -> int:
    inst = cf.module_instance(args.algebra, _parse_rational(args.level))
    lam = _parse_label(getattr(args, "lambda"))
    points = _parse_points(args.points)
    N = _parse_order(args.N)
    if args.mode == "oracle":
        series = cf.extract_dominant(inst, lam, points, N)
    else:  # "assignment" or "literal"; _parse_args admits no other mode
        series = cf.duality_reduce(inst, lam, points, N, args.mode)
    _emit_series(series, args.format, out)
    return 0


def _cmd_qdim(args, out) -> int:
    lam = _parse_label(getattr(args, "lambda"))
    N = _parse_order(args.N)
    series = cf.qdim_closed(args.algebra, _parse_rational(args.level), lam,
                            N, args.form)
    _emit_series(series, args.format, out)
    return 0


def _cmd_identity(args, out) -> int:
    specs = [s for s in verify.registry() if s.name == args.name]
    if not specs:
        raise UsageError("unknown check name %r" % args.name)
    results = [verify.run_check(specs[0])]
    if args.format == "json":
        out.write(verify.report_json(results) + "\n")
    else:
        out.write(verify.report_table(results) + "\n")
    return verify.suite_exit_status(results)


def _cmd_verify(args, out) -> int:
    results = verify.run_suite(args.filter)
    if not results:
        raise UsageError("no checks match filter %r" % args.filter)
    if args.format == "json":
        out.write(verify.report_json(results) + "\n")
    else:
        out.write(verify.report_table(results) + "\n")
        npass = sum(1 for r in results if r.status == "pass")
        out.write("%d/%d checks passed\n" % (npass, len(results)))
    return verify.suite_exit_status(results)


def _kv(pairs: Sequence[str]) -> dict:
    out = {}
    for item in pairs:
        key, eq, val = item.partition("=")
        if not eq:
            raise UsageError("dump parameters are key=value, got %r" % item)
        if key in out:
            raise UsageError("dump parameter %r given twice" % key)
        out[key] = val
    return out


def _cmd_dump(args, out) -> int:
    kv = _kv(args.params)
    N = _parse_order(kv.pop("N", "10"))
    name = args.name
    if name == "theta":
        series = theta(_parse_point(kv.pop("t", "2/3")), N)
    elif name == "f_bo":
        pts = _parse_point_list(kv.pop("t", ""))
        n = kv.pop("n", None)
        if n is not None and _parse_count(n) != len(pts):
            raise UsageError("n=%s does not match %d point(s)"
                             % (n, len(pts)))
        series = cf.f_bo(pts, N)
    elif name == "pochhammer":
        series = pochhammer_inf(_parse_point(kv.pop("a", "2/3:1")), N)
    elif name == "qhyper":
        upper = _parse_point_list(kv.pop("upper", ""))
        lower = _parse_point_list(kv.pop("lower", ""))
        series = qhyper(upper, lower, _parse_point(kv.pop("arg", "1:1")), N)
    else:
        raise UsageError("unknown dump name %r (theta, f_bo, pochhammer, "
                         "qhyper)" % name)
    if kv:
        raise UsageError("unused dump parameters: %s" % ", ".join(sorted(kv)))
    _emit_series(series, args.format, out)
    return 0


# -- argument parsing --------------------------------------------------------


# Each command's flags, as name -> (default, choices); a default of None
# marks a required flag.  --points is the one flag that reads several words
# and may be repeated; dump also reads a name and key=value parameters.
_FORMATS, _REPORTS = ("json", "csv", "pretty"), ("json", "pretty")
_COMMANDS = {
    "corr": {"algebra": (None, ()), "level": (None, ()), "lambda": ("", ()),
             "points": ([], ()),
             "mode": ("oracle", ("oracle", "assignment", "literal")),
             "N": ("10", ()), "format": ("pretty", _FORMATS)},
    "qdim": {"algebra": (None, ()), "level": (None, ()), "lambda": ("", ()),
             "form": ("weyl", ("weyl", "product")),
             "N": ("10", ()), "format": ("pretty", _FORMATS)},
    "identity": {"name": (None, ()), "format": ("pretty", _REPORTS)},
    "verify": {"filter": ("", ()), "format": ("pretty", _REPORTS)},
    "dump": {"format": ("json", _FORMATS)},
}


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read argv as a command, then --flag value or --flag=value words and,
    for dump, a name and key=value parameters; the word after a spaced flag
    is its value unless it starts with "--", so -3/2 needs no "=".  -h or
    --help in place of a flag asks for the ``help`` command."""
    if not argv:
        raise UsageError("no command given (%s)" % ", ".join(_COMMANDS))
    command, words = argv[0], argv[1:]
    if command in ("-h", "--help"):
        return SimpleNamespace(command="help", name=None)
    if command not in _COMMANDS:
        raise UsageError("unknown command %r (%s)"
                         % (command, ", ".join(_COMMANDS)))
    flags, got, loose, i = _COMMANDS[command], {}, [], 0
    while i < len(words):
        word = words[i]
        i += 1
        if word in ("-h", "--help"):
            return SimpleNamespace(command="help", name=command)
        if not word.startswith("--"):
            if command != "dump":
                raise UsageError("%s: unexpected word %r" % (command, word))
            loose.append(word)
            continue
        flag, eq, value = word[2:].partition("=")
        if flag not in flags:
            raise UsageError("%s: unknown flag %r" % (command, "--" + flag))
        if flag == "points":
            points = got.setdefault(flag, [])
            if eq:
                points.append(value)
            while i < len(words) and not words[i].startswith("--"):
                points.append(words[i])
                i += 1
            continue
        if flag in got:
            raise UsageError("%s: --%s given twice" % (command, flag))
        if not eq:
            if i == len(words) or words[i].startswith("--"):
                raise UsageError("%s: --%s needs a value" % (command, flag))
            value = words[i]
            i += 1
        choices = flags[flag][1]
        if choices and value not in choices:
            raise UsageError("%s: --%s %r is not one of %s"
                             % (command, flag, value, ", ".join(choices)))
        got[flag] = value
    for flag, (default, _) in flags.items():
        if default is None and flag not in got:
            raise UsageError("%s: --%s is required" % (command, flag))
        got.setdefault(flag, [] if flag == "points" else default)
    if command == "dump":
        if not loose:
            raise UsageError("dump: no name given (theta, f_bo, pochhammer, "
                             "qhyper)")
        got["name"], got["params"] = loose[0], loose[1:]
    return SimpleNamespace(command=command, **got)


def _cmd_help(args, out) -> int:
    """Every command's flags, or one command's, with choices and defaults."""
    out.write("usage: qfock %s [--FLAG VALUE | --FLAG=VALUE ...]\n"
              % (args.name or "COMMAND"))
    for command in [args.name] if args.name else _COMMANDS:
        out.write("%s%s\n" % (command, " NAME [KEY=VALUE ...]"
                                        if command == "dump" else ""))
        for flag, (default, choices) in _COMMANDS[command].items():
            text = "required" if default is None else "default %r" % (default,)
            out.write("  --%-8s %s%s\n" % (
                flag, " | ".join(choices) + "; " if choices else "", text))
    return 0


_DISPATCH = {"corr": _cmd_corr, "qdim": _cmd_qdim, "identity": _cmd_identity,
             "verify": _cmd_verify, "dump": _cmd_dump, "help": _cmd_help}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        status = _DISPATCH[args.command](args, out)
        if out is sys.stdout:
            out.flush()  # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader stopped early (`qfock ... | head`).  Point stdout at
        # devnull so that the flush at exit is quiet, and fail.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except QSeriesError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
