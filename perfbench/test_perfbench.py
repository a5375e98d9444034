"""Tests of the benchmark itself: request generation, result checking and
the outside-in tracer.  They run small inputs in this process and restore
every patched attribute."""

from fractions import Fraction as F

import bench_requests
import bench_worker
from bench_tracer import Tracer, fock_states

from qfock import closedform, fock, qseries, verify
from qfock import cli
from qfock.qseries import Param, to2


def _small_cli_ops(seed=3):
    """The dump pairs and one rank-1 corr pair of a generated session."""
    pairs = bench_requests.cli_pairs(seed)
    picked = [p for p in pairs if p[0][0] == "dump"] + [pairs[0]]
    return [[i, argv] for i, pair in enumerate(picked) for argv in pair]


class TestRequests:
    def test_same_seed_same_argv_lists(self):
        for workload in bench_requests.WORKLOADS:
            a = bench_requests.operations(workload, 7)
            assert a == bench_requests.operations(workload, 7)
            assert bench_requests.digest(a) == bench_requests.digest(
                bench_requests.operations(workload, 7))

    def test_seed_changes_order_and_points(self):
        a = bench_requests.operations("cli-session", 1)
        b = bench_requests.operations("cli-session", 2)
        assert a != b
        assert bench_requests.cli_pairs(1) != bench_requests.cli_pairs(2)

    def test_session_shape(self):
        pairs = bench_requests.cli_pairs(5)
        assert len(pairs) == 54
        ops = bench_requests.operations("cli-session", 5)
        assert sorted(i for i, _ in ops) == sorted(list(range(54)) * 2)
        for a, b in pairs:
            for argv in (a, b):
                assert "--level" not in argv  # always --level=VALUE

    def test_point_sets_avoid_unit_products(self):
        assert bench_requests._degenerate([F(1, 2), F(2, 3), F(1, 3)])
        assert not bench_requests._degenerate([F(1, 2), F(2, 3)])
        for seed in range(20):
            for a, _ in bench_requests.cli_pairs(seed):
                if a[0] == "corr" and "--points" in a:
                    i = a.index("--points") + 1
                    pts = [F(x) for x in a[i:a.index("--mode")]]
                    assert not bench_requests._degenerate(pts)

    def test_verify_names_are_gate_checks(self):
        specs = {s.name: s for s in verify.registry()}
        for name in (bench_requests.VERIFY_KERNEL
                     + bench_requests.VERIFY_ENUM):
            assert specs[name].mode == "gate"


class TestChecking:
    def test_mismatched_pair_counts_as_failed(self):
        argv = ["dump", "pochhammer", "a=2/3", "N=6"]
        other = ["dump", "pochhammer", "a=3/5", "N=6"]
        _, failures, _ = bench_worker.run_cli(cli, [[0, argv], [0, other]])
        assert len(failures) == 2
        _, failures, _ = bench_worker.run_cli(cli, [[0, argv], [0, argv]])
        assert failures == []

    def test_nonzero_exit_counts_as_failed(self):
        bad = ["corr", "--algebra", "a", "--level", "-3/2", "--N", "4"]
        _, failures, _ = bench_worker.run_cli(cli, [[0, bad], [0, bad]])
        assert len(failures) == 2

    def test_failing_check_counts_as_failed(self):
        specs = {s.name: s for s in verify.registry()}
        _, failures, _ = bench_worker.run_checks(
            specs, ["lemma-222-i-l1", "no-such-check"])
        assert len(failures) == 1


class TestTracer:
    def test_traced_and_untraced_outputs_identical(self):
        ops = _small_cli_ops()
        _, fail_plain, plain = bench_worker.run_cli(cli, ops)
        tracer = Tracer()
        with tracer:
            _, fail_traced, traced = bench_worker.run_cli(cli, ops, tracer)
        assert fail_plain == fail_traced == []
        assert plain == traced
        m = tracer.metrics(1.0)
        assert m["cli.calls"] == len(ops)
        assert m["qseries.qhyper.s"] > 0

    def test_by_name_import_is_counted(self):
        original = qseries.pochhammer_inf
        tracer = Tracer()
        with tracer:
            assert closedform.pochhammer_inf is not original
            closedform.pochhammer_inf(Param(F(2, 3)), 4)
        assert closedform.pochhammer_inf is original
        assert qseries.Series.__rmul__ is qseries.Series.__mul__
        nid = tracer.names.index("qseries.pochhammer_inf")
        assert tracer.calls[nid] == 1
        assert tracer.metrics(1.0)["qseries.mul.calls"] > 0

    def test_spans_nest_and_self_times_add_up(self, tmp_path):
        tracer = Tracer()
        with tracer:
            closedform.qdim_closed("c", "3/2", (1, 0), 4, "product")
        spans = len(tracer.span_name)
        assert spans >= sum(tracer.calls) > 1
        assert tracer.span_parent[0] == -1
        root = tracer.span_end[0] - tracer.span_start[0]
        assert abs(sum(tracer.self_s) - root) < 1e-9
        path = tmp_path / "spans.bin"
        tracer.write_spans(str(path))
        assert path.stat().st_size > 40 * spans

    def test_state_counts_match_enumeration(self):
        for kind in ("boson_pair", "fermion_pair", "boson_neutral",
                     "fermion_neutral"):
            args = {"factors": (kind,), "N": 3}
            assert fock_states("duality_trace", args, to2) == len(
                fock.factor_states(kind, 6))
        states = fock.factor_states("boson_pair", 6)
        for m in (-1, 0, 2):
            want = sum(1 for _, ch, _ in states if ch == m)
            assert fock_states("a_sector_trace", {"m": m, "N": 3}, to2) \
                == want
