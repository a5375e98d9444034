"""qfock benchmark: seeded workloads timed end to end and per layer.

Run from the root of a qfock source tree:

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 15 \\
        --trace 0

Each pass of a workload runs in a fresh interpreter (bench_worker.py), so the
package's memo caches start cold, as they do for a ``qfock`` user; one
process and one thread drive it in a closed loop.  Without tracing, passes
repeat until ``--seconds`` have been measured, at least MIN_PASSES times;
``wall_s`` and ``peak_rss_mb`` are medians over passes, the latency
percentiles pool the operations of all passes, and ``setup_s`` is the median
of SETUP_PROBES set-up-only interpreters.  Times are rescaled to the
baseline machine speed (see bench_worker).  With ``--trace 1`` one untraced
and one traced pass run, whatever ``--seconds`` says, and the per-layer
metrics come from the traced one.  Every operation's result is checked.  A
summary goes to standard error; the last line of standard output is the
JSON result.  The exit status is 0 only when every operation passed.

The tests of the benchmark itself run with
``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench_requests import WORKLOADS, digest, operations  # noqa: E402

SETUP_PROBES = 7     # set-up-only interpreters per untraced run
MIN_PASSES = 2       # so that an untraced run's figures are medians
TIME_LIMIT_S = 170   # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _worker(root, workload, ops, deadline, extra=()):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "bench_worker.py"), workload,
           *extra]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("time limit reached before a pass could start")
    try:
        proc = subprocess.run(cmd, input=json.dumps(ops), cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass of %s ran past the time limit" % workload)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s"
                         % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentiles_ms(op_s):
    """Median and 90th percentile, in ms, of the operation times of all
    passes together."""
    qs = statistics.quantiles(op_s, n=10, method="inclusive")
    return statistics.median(op_s) * 1e3, qs[8] * 1e3


def _scaled_ops(p):
    """Operation times of a pass at the baseline machine speed."""
    return [t * f for t, f in zip(p["op_s"], p["op_speed_factor"])]


def measure(root, workload, ops, seconds, deadline):
    """Set-up probes, then untraced passes until ``seconds`` have been
    measured and at least MIN_PASSES have run; returns (passes, end-to-end
    metrics)."""
    _worker(root, workload, [], deadline, ["--setup-only"])  # compile .pyc
    setups = []
    for _ in range(SETUP_PROBES):
        probe = _worker(root, workload, [], deadline, ["--setup-only"])
        setups.append(probe["setup_s"] * probe["speed_factor"])
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(_worker(root, workload, ops, deadline))
    scaled = [_scaled_ops(p) for p in passes]
    p50, p90 = _percentiles_ms([t for op_s in scaled for t in op_s])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(op_s) for op_s in scaled),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }
    return passes, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()}


def _layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def measure_traced(root, workload, ops, seed, deadline):
    """One untraced and one traced pass; returns (passes, per-layer
    metrics).  The two passes must produce identical outputs."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s-seed%d.bin" % (workload, seed))
    plain = _worker(root, workload, ops, deadline)
    traced = _worker(root, workload, ops, deadline, ["--trace", spans])
    if traced["digest"] != plain["digest"]:
        traced["failed"] += 1
        traced["failures"].append("traced outputs differ from untraced")
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = (sum(_scaled_ops(traced))
                                  - sum(_scaled_ops(plain)))
    return [plain, traced], {k: {"value": v, "unit": _layer_unit(k)}
                             for k, v in layers.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qfock", "__init__.py")):
        print("error: no qfock source tree (src/qfock) under %s" % root,
              file=sys.stderr)
        return 2
    ops = operations(args.workload, args.seed)
    print("workload %s seed %d: %d operations, argv digest %s"
          % (args.workload, args.seed, len(ops), digest(ops)),
          file=sys.stderr)
    try:
        if args.trace:
            passes, metrics = measure_traced(root, args.workload, ops,
                                             args.seed, deadline)
        else:
            passes, metrics = measure(root, args.workload, ops,
                                      args.seconds, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for line in p["failures"]:
            print("FAILED %s" % line, file=sys.stderr)
    print("%d pass(es), %d operations per pass, %d latency samples, "
          "fail_ratio %.4g" % (len(passes), len(ops), attempted,
                               failed / attempted), file=sys.stderr)
    for p in passes:
        print("  pass: measured wall %.3f s, at baseline speed %.3f s"
              % (p["wall_s"], sum(_scaled_ops(p))), file=sys.stderr)
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]),
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
