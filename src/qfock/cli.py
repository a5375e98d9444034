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
success, 1 when a requested check fails or the reader closes stdout early
(``qfock ... | head``), 2 on usage or parameter errors.
"""

import argparse
import json
import os
import sys
from fractions import Fraction as F
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from . import closedform as cf
from . import verify
from .qseries import (
    Param,
    QSeriesError,
    Series,
    _monomial_str,
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
        for (q2, zk), c in s.sorted_terms():
            zcol = ";".join("%d:%s" % (v, half_str(e2)) for v, e2 in zk)
            out.write("%d,%s,%d,%d\n"
                      % (q2, zcol, c.numerator, c.denominator))
    elif fmt == "pretty":
        rows = [(_monomial_str(q2, zk), str(c))
                for (q2, zk), c in s.sorted_terms()]
        width = max([len(m) for m, _ in rows] + [4])
        for mono, c in rows:
            out.write("%-*s  %s\n" % (width, mono, c))
        if not rows:
            out.write("0\n")
    else:
        raise UsageError("unknown format %r" % fmt)


# -- subcommands -------------------------------------------------------------


def _cmd_corr(args, out) -> int:
    inst = cf.module_instance(args.algebra, _parse_rational(args.level))
    lam = _parse_label(getattr(args, "lambda"))
    points = _parse_points(args.points)
    N = _parse_order(args.N)
    if args.mode == "oracle":
        series = cf.extract_dominant(inst, lam, points, N)
    elif args.mode in ("assignment", "literal"):
        series = cf.duality_reduce(inst, lam, points, N, args.mode)
    else:
        raise UsageError("unknown mode %r" % args.mode)
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
        tspec = kv.pop("t", "")
        pts = _parse_points([x for x in tspec.split(",") if x])
        n = kv.pop("n", None)
        if n is not None and _parse_count(n) != len(pts):
            raise UsageError("n=%s does not match %d point(s)"
                             % (n, len(pts)))
        series = cf.f_bo(pts, N)
    elif name == "pochhammer":
        series = pochhammer_inf(_parse_point(kv.pop("a", "2/3:1")), N)
    elif name == "qhyper":
        upper = _parse_points([x for x in kv.pop("upper", "").split(",") if x])
        lower = _parse_points([x for x in kv.pop("lower", "").split(",") if x])
        series = qhyper(upper, lower, _parse_point(kv.pop("arg", "1:1")), N)
    else:
        raise UsageError("unknown dump name %r (theta, f_bo, pochhammer, "
                         "qhyper)" % name)
    if kv:
        raise UsageError("unused dump parameters: %s" % ", ".join(sorted(kv)))
    _emit_series(series, args.format, out)
    return 0


# -- argument parsing --------------------------------------------------------


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


def _bind_negative_values(argv: Sequence[str]) -> List[str]:
    """Write "--level -3/2" as "--level=-3/2" (and likewise for --lambda and
    --N), and every value after --points as its own "--points=v": argparse
    reads a word that starts with '-' as an option unless it is a plain
    negative number, so values such as -3/2 or -1,-2 need the '=' form, and
    the '=' form binds one value, which --points (action="extend") collects
    in order.
    """
    out: List[str] = []
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


_DISPATCH = {
    "corr": _cmd_corr,
    "qdim": _cmd_qdim,
    "identity": _cmd_identity,
    "verify": _cmd_verify,
    "dump": _cmd_dump,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(_bind_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
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
