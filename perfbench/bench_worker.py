"""One benchmark pass in a fresh interpreter.

Usage: bench_worker.py WORKLOAD [--setup-only] [--trace SPANS_PATH]

Times the set-up (``import qfock.cli``, plus ``verify.registry()`` for the
verify workloads), then reads the operation list as JSON from standard
input, runs every operation once in order in this process and thread,
checks each result, and prints one JSON line with the timings.

The machine this runs on is shared, and its speed drifts by a quarter over
minutes and by a third from one tenth of a second to the next.  So the
pass times a fixed reference loop right before and after every operation,
and every SAMPLE_EVERY_S seconds during long ones, and reports for each
operation a speed factor: the reference time on the baseline machine over
the mean of the samples around and inside the operation.  An operation
time multiplied by its factor is in seconds at the baseline machine's
speed.  With ``--setup-only`` the reference is sampled right after set-up.

With ``--trace`` the package is wrapped by ``bench_tracer`` after set-up, the
per-layer metrics are added to the result, and the spans are written to
SPANS_PATH; that pass samples the reference only between operations, where
no span is open.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402


def _setup(workload):
    import qfock.cli
    checks = None
    if workload.startswith("verify-"):
        from qfock import verify
        checks = {spec.name: spec for spec in verify.registry()}
    return qfock.cli, checks


if __name__ == "__main__":
    CLI, CHECKS = _setup(sys.argv[1])
    SETUP_S = perf_counter() - T0

import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

# Machine-speed reference: a sparse product of two Fraction-valued dicts keyed
# like Series terms, written here so that no change to qfock alters it.
# REFERENCE_S is its time per sample on the machine the baseline was
# recorded on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11), at its fastest.
_REF_A = {(i, ((1, 2 * (i % 3 - 1)),) if i % 3 != 1 else ()):
          Fraction(i * i + 1, 3 ** (i % 7) + 2) for i in range(40)}
_REF_B = {(i, ((1, 2 * (i % 5 - 2)),) if i % 5 != 2 else ()):
          Fraction(7 - i, 5 ** (i % 5) + 1) for i in range(40)}
REFERENCE_S = 0.010
SAMPLE_EVERY_S = 0.25


def reference_sample():
    """Time one run of the reference product, with the collector off so the
    program's heap size does not enter the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    try:
        for _ in range(3):
            out = {}
            for (a2, az), ac in _REF_A.items():
                for (b2, bz), bc in _REF_B.items():
                    if a2 + b2 <= 40:
                        k = (a2 + b2, az + bz)
                        n = out.get(k, 0) + ac * bc
                        if n:
                            out[k] = n
                        else:
                            out.pop(k, None)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples):
    """Reference time on the baseline machine over the mean sample."""
    return REFERENCE_S * len(samples) / sum(samples)


class Speedometer:
    """Reference samples taken by ``sample`` and, while entered, by a
    SIGALRM handler every SAMPLE_EVERY_S seconds.  ``clock`` leaves out the
    time spent sampling."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def sample(self):
        if self._busy:  # an alarm during a sample
            return
        self._busy = True
        start = perf_counter()
        try:
            self.samples.append(reference_sample())
        finally:
            self.spent += perf_counter() - start
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def clock(self):
        return perf_counter() - self.spent

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def _error(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def _run_ops(ops, call, tracer=None, speed=None):
    """Run ``call(op)`` for each op; returns (outcomes, seconds per op,
    speed factor per op or None, wall seconds)."""
    clock = perf_counter if speed is None else speed.clock
    outcomes, times, factors = [], [], []
    if speed is not None:
        speed.sample()
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        first = len(speed.samples) - 1 if speed is not None else 0
        t = clock()
        try:
            outcomes.append(call(op))
        except Exception as exc:  # the pass must go on to count the rest
            outcomes.append(_error(exc))
        times.append(clock() - t)
        if speed is not None:
            speed.sample()
            factors.append(speed_factor(speed.samples[first:]))
    return outcomes, times, factors if speed is not None else None, \
        clock() - start


def run_checks(checks, names, tracer=None, speed=None):
    """Run registry checks by name; a check fails unless its status is
    ``pass``.  Returns (timings, failures, outcome digest)."""
    from qfock import verify
    statuses, *timing = _run_ops(
        names, lambda name: verify.run_check(checks[name]).status,
        tracer, speed)
    failures = ["%s: %s" % (n, s) for n, s in zip(names, statuses)
                if s != "pass"]
    blob = json.dumps(sorted(zip(names, statuses))).encode()
    return timing, failures, hashlib.sha256(blob).hexdigest()


def _cli_call(cli):
    def call(op):
        out = io.StringIO()
        return cli.main(op[1], out), out.getvalue()
    return call


def run_cli(cli, ops, tracer=None, speed=None):
    """Run ``[pair index, argv]`` requests through ``cli.main``.  Both calls
    of a pair must exit 0 and print byte-identical output; otherwise both
    count as failed.  Returns (timings, failures, output digest)."""
    outcomes, *timing = _run_ops(ops, _cli_call(cli), tracer, speed)
    results = {}
    for (pair, argv), outcome in zip(ops, outcomes):
        code, text = outcome if isinstance(outcome, tuple) else (outcome, "")
        results.setdefault(pair, []).append((argv, code, text))
    failures = []
    digest = hashlib.sha256()
    for pair in sorted(results):
        calls = results[pair]
        for argv, code, text in calls:
            digest.update(json.dumps([argv, code, text]).encode())
        codes = [code for _, code, _ in calls]
        if len(calls) != 2:
            why = "%d calls in the pair" % len(calls)
        elif codes != [0, 0]:
            why = "exit %s / %s" % tuple(codes)
        elif calls[0][2] != calls[1][2]:
            why = "outputs differ"
        else:
            continue
        failures.extend("pair %d %s: %s" % (pair, " ".join(argv), why)
                        for argv, _, _ in calls)
    return timing, failures, digest.hexdigest()


def run_pass(cli, checks, ops, tracer=None, speed=None):
    """Run one operation list: check names when ``checks`` (the registry by
    name) is given, otherwise cli requests."""
    if checks is not None:
        timing, failures, digest = run_checks(checks, ops, tracer, speed)
    else:
        timing, failures, digest = run_cli(cli, ops, tracer, speed)
    times, factors, wall = timing
    return {"wall_s": wall, "op_s": times, "op_speed_factor": factors,
            "attempted": len(ops), "failed": len(failures),
            "failures": failures[:20], "digest": digest}


def main(argv):
    result = {"setup_s": SETUP_S}
    if "--setup-only" in argv:
        result["speed_factor"] = speed_factor(
            [reference_sample() for _ in range(5)])
    elif "--trace" in argv:
        from bench_tracer import Tracer
        ops = json.load(sys.stdin)
        tracer = Tracer()
        speed = Speedometer()  # not entered: samples between operations only
        with tracer:
            result.update(run_pass(CLI, CHECKS, ops, tracer, speed))
        result["layers"] = tracer.metrics(result["wall_s"])
        tracer.write_spans(argv[argv.index("--trace") + 1])
    else:
        ops = json.load(sys.stdin)
        with Speedometer() as speed:
            result.update(run_pass(CLI, CHECKS, ops, speed=speed))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main(sys.argv)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
