"""The benchmark's own arithmetic: percentiles, self times, open-loop
latency and seed-derived inputs.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench.loadgen import poisson_arrivals, run_open_loop
from perfbench.stats import derive_seed, nearest_rank, summarize, tail_percent
from perfbench.tracing import LAYER_METRICS, Instrumentation, self_times

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# percentiles under the ten-samples-beyond rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, percent", [
    (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0),
    (99, 80.0), (50, 80.0), (40, 75.0), (39, None), (1, None)])
def test_tail_percentile_keeps_ten_samples_beyond(count, percent):
    assert tail_percent(count) == percent
    if percent is not None:
        ranked = nearest_rank(list(range(count)), percent)
        assert count - 1 - ranked >= 10


def test_summary_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 101)]  # 1..100
    summary = summarize(values)
    assert summary == {"n": 100, "p50": 50.5, "tail_percent": 90.0,
                       "tail": 90.0}
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}
    assert nearest_rank([5.0, 1.0, 3.0], 50.0) == 3.0


# ----------------------------------------------------------------------
# spans: nesting, causes and self time
# ----------------------------------------------------------------------
def _span(span_id, parent, dur, name="x"):
    return {"name": name, "dur": dur,
            "args": {"id": span_id, "parent": parent, "op": 0}}


def test_self_time_subtracts_direct_children_only():
    spans = [_span(1, 0, 10.0), _span(2, 1, 3.0), _span(3, 2, 1.0),
             _span(4, 1, 2.0), _span(5, 0, 4.0)]
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 4.0}


def test_layer_metrics_report_exactly_the_declared_names():
    from perfbench.tracing import layer_metrics

    values = layer_metrics([_span(1, 0, 2.0, name="serving.cluster.sim")], 2)
    assert list(values) == [name for name, _, _ in LAYER_METRICS]
    assert values["serving.cluster.sim.self_s"] == 1.0
    with pytest.raises(KeyError):
        layer_metrics([], 1, facts={"no.such_metric": 1.0})


def test_instrumentation_records_causes_and_self_time():
    from repro.obs import Tracer

    now = [0.0]

    def work(seconds, inner=None):
        now[0] += seconds
        if inner is not None:
            inner()
        now[0] += seconds

    instrumentation = Instrumentation(Tracer(clock=lambda: now[0]))
    leaf = instrumentation.traced("leaf", lambda: work(1.0))
    middle = instrumentation.traced("middle", lambda: work(2.0, leaf))
    outer = instrumentation.traced("outer", lambda: work(0.5, middle))
    instrumentation.op = 7
    outer()
    spans = {span["name"]: span for span in instrumentation.spans()}
    assert spans["outer"]["args"]["parent"] == 0
    assert spans["middle"]["args"]["parent"] == spans["outer"]["args"]["id"]
    assert spans["leaf"]["args"]["parent"] == spans["middle"]["args"]["id"]
    assert {span["args"]["op"] for span in spans.values()} == {7}
    selfs = self_times(spans.values())
    assert selfs[spans["outer"]["args"]["id"]] == pytest.approx(1.0)
    assert selfs[spans["middle"]["args"]["id"]] == pytest.approx(4.0)
    assert selfs[spans["leaf"]["args"]["id"]] == pytest.approx(2.0)


def test_instrumentation_restores_every_entry_point():
    import repro.experiments as experiments
    from repro.tensor import functional
    from repro.tensor.backend import ComputeBackend

    before = (experiments.run_experiment, functional.fused_conv2d,
              ComputeBackend.__dict__["gemm"])
    with Instrumentation():
        assert experiments.run_experiment is not before[0]
        assert ComputeBackend.__dict__["gemm"] is not before[2]
    assert (experiments.run_experiment, functional.fused_conv2d,
            ComputeBackend.__dict__["gemm"]) == before


# ----------------------------------------------------------------------
# open loop: latency runs from the due time
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class _StallingEngine:
    """Answers everything it holds on each pump; the first busy pump
    stalls the clock for ``stall`` seconds."""

    class _Batcher:
        def next_due_at(self):
            return None

    def __init__(self, clock, stall, refuse=()):
        self.clock, self.stall, self.refuse = clock, stall, set(refuse)
        self.batcher = self._Batcher()
        self.held = []
        self.stalled = False

    def submit(self, request):
        if request.request_id in self.refuse:
            return False
        self.held.append(request)
        return True

    def pump(self):
        if self.held and not self.stalled:
            self.stalled = True
            self.clock.now += self.stall
        answered = [type("Response", (), {"request_id": r.request_id})()
                    for r in self.held]
        self.held = []
        return answered


def _requests(count):
    return [type("Request", (), {"request_id": i})() for i in range(count)]


def test_open_loop_charges_a_stall_to_every_request_due_during_it():
    clock = _FakeClock()
    engine = _StallingEngine(clock, stall=1.0)
    outcomes = run_open_loop(engine, _requests(5), [0.0, 0.2, 0.4, 0.6, 1.5],
                             clock=clock, sleep=clock.sleep)
    assert [o.latency for o in outcomes] == pytest.approx(
        [1.0, 0.8, 0.6, 0.4, 0.0])
    assert [o.lateness for o in outcomes] == pytest.approx(
        [0.0, 0.8, 0.6, 0.4, 0.0])


def test_open_loop_leaves_refused_requests_unanswered():
    clock = _FakeClock()
    engine = _StallingEngine(clock, stall=0.0, refuse={1})
    outcomes = run_open_loop(engine, _requests(3), [0.0, 0.1, 0.2],
                             clock=clock, sleep=clock.sleep)
    assert [o.admitted for o in outcomes] == [True, False, True]
    assert outcomes[1].latency is None
    assert outcomes[2].latency == pytest.approx(0.0)


# ----------------------------------------------------------------------
# closed loop: op times scaled by the host-speed probes around each op
# ----------------------------------------------------------------------
class _Readings:
    """A host-speed probe that reads the given slowdowns in turn."""

    def __init__(self, *slowdowns):
        self.slowdowns = iter(slowdowns)

    def slowdown(self):
        return next(self.slowdowns)


def test_closed_loop_scales_each_op_by_the_probes_on_either_side(monkeypatch):
    from perfbench import workloads
    from perfbench.hostspeed import BetweenOps

    now = [0.0]
    monkeypatch.setattr(workloads, "clock", lambda: now[0])

    def op(index):
        now[0] += 1.0
        return workloads.OpRecord(seconds=1.0, ok=True)

    window = workloads.closed_loop(op, seconds=3.0,
                                   probe=BetweenOps(_Readings(1.0, 3.0, 1.0, 2.0)))
    assert [r.slowdown for r in window.records] == [2.0, 2.0, 1.5]
    assert [r.seconds for r in window.records] == [1.0, 1.0, 1.0]
    assert window.op_s == pytest.approx(0.5)
    assert window.seconds == pytest.approx(0.5 + 0.5 + 1.0 / 1.5)
    unscaled = workloads.closed_loop(op, seconds=0.0)
    assert unscaled.op_s == 1.0 and unscaled.records[0].slowdown == 1.0


def test_timer_probes_run_during_a_long_op_and_leave_its_time():
    import signal
    import time

    from perfbench.hostspeed import DuringOps

    class Slow:
        """Reads 2x and takes 1 ms per probe."""

        def slowdown(self):
            time.sleep(0.001)
            return 2.0

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    probe = DuringOps(Slow(), every=0.01)
    with probe.around() as reading:
        busy(0.1)
    assert reading.slowdown == 2.0
    assert 0.003 < reading.seconds < 0.1
    with probe.around() as short:  # shorter than the interval
        pass
    assert short.slowdown == 2.0 and short.seconds == 0.0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_speed_probe_reports_a_slowdown():
    from perfbench.hostspeed import PARTS, HostSpeed

    speed = HostSpeed(list(PARTS))
    assert speed.reference == pytest.approx(sum(PARTS.values()))
    assert 0 < speed.slowdown() < 100


# ----------------------------------------------------------------------
# every generated input follows the seed
# ----------------------------------------------------------------------
def test_derived_seeds_and_arrivals_follow_the_seed():
    assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
    assert len({derive_seed(3, 1, 2), derive_seed(4, 1, 2),
                derive_seed(3, 2, 2), derive_seed(3, 1, 3)}) == 4
    first = poisson_arrivals(5.0, 20.0, np.random.default_rng(1))
    assert len(first) == 100
    assert np.all(np.diff(first) >= 0) and 0 <= first[0] and first[-1] < 20
    assert np.array_equal(first,
                          poisson_arrivals(5.0, 20.0, np.random.default_rng(1)))
    assert not np.array_equal(
        first, poisson_arrivals(5.0, 20.0, np.random.default_rng(2)))


def _serve_traffic(seed):
    from perfbench.workloads import Dirs, Serve
    from repro.serving.cluster import default_cluster_router

    workload = Serve(seed, Dirs(ROOT / ".perfbench"))
    workload.router = default_cluster_router()
    requests, offsets = workload.traffic(4.0, window=0)
    return [(r.model, r.prompt, r.latency_slo, r.seed, r.tier,
             None if r.plan is None else r.plan.fingerprint())
            for r in requests], list(offsets)


def _fleet_trace(seed):
    from perfbench.workloads import Dirs, Fleet

    workload = Fleet(seed, Dirs(ROOT / ".perfbench"))
    workload.setup()
    return workload.trace.fingerprint()


def _generate_inputs(seed):
    from perfbench.workloads import Dirs, Generate

    workload = Generate(seed, Dirs(ROOT / ".perfbench"))
    return (workload.weights_rng().standard_normal(8).tolist(),
            [workload.image_seed(index) for index in range(3)])


def _ptq_rows(seed):
    from perfbench.workloads import PTQ, Dirs

    workload = PTQ(seed, Dirs(ROOT / ".perfbench"))
    return [workload.spec(index).fingerprint() for index in range(2)]


@pytest.mark.parametrize("inputs", [_serve_traffic, _fleet_trace,
                                    _generate_inputs, _ptq_rows])
def test_generated_inputs_repeat_per_seed_and_differ_across_seeds(inputs):
    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_serve_traffic_mixes_every_model_tier_and_plan():
    requests, _ = _serve_traffic(5)
    assert {(model, tier, plan is not None)
            for model, _, _, _, tier, plan in requests} == {
        (model, tier, guided) for model in ("stable-diffusion", "sdxl")
        for tier in ("loose", "medium", "tight", None)
        for guided in (False, True)}


def test_source_hash_follows_the_code(tmp_path):
    from perfbench.harness import source_hash

    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    program = tmp_path / "src" / "repro" / "a.py"
    program.write_text("x = 1\n")
    (tmp_path / "perfbench" / "b.py").write_text("y = 2\n")
    first = source_hash(tmp_path)
    assert source_hash(tmp_path) == first
    program.write_text("x = 2\n")
    assert source_hash(tmp_path) != first


# ----------------------------------------------------------------------
# BENCHMARK.json declares exactly what the code reports
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    from perfbench.harness import END_TO_END
    from perfbench.run import WORKLOAD_NAMES
    from perfbench.workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(metric) for metric in LAYER_METRICS]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert name.match(metric["name"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
