"""Tests for the interprocedural analysis layer.

Covers the call-graph/taint engine (2-hop determinism chains) and the
interprocedural rules (``race-discipline``, ``hot-path-alloc``,
``schema-discipline``) on planted violations.
"""

import textwrap
from pathlib import Path

from repro.analysis import Project, run_analysis


def write_tree(root: Path, files) -> Path:
    """Write ``{relative_path: source}`` under a src/repro-shaped tree."""
    for rel, source in files.items():
        path = root / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for package in {parent for rel in files
                    for parent in (Path(rel).parents)}:
        init = root / "src" / "repro" / package / "__init__.py"
        if not init.exists():
            init.parent.mkdir(parents=True, exist_ok=True)
            init.write_text("")
    return root / "src"


def analyze(root: Path, files, rules=None):
    src = write_tree(root, files)
    project = Project.load([src], repo_root=root)
    run = run_analysis(project, rules)
    return run.findings, run.suppressed


# ----------------------------------------------------------------------
# race-discipline
# ----------------------------------------------------------------------
class TestRaceDiscipline:
    def test_unlocked_global_write_from_spawned_worker(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/jobs.py": """
                from concurrent.futures import ThreadPoolExecutor

                RESULTS = {}

                def worker(item):
                    RESULTS[item] = item * 2

                def fan_out(items):
                    with ThreadPoolExecutor() as pool:
                        for item in items:
                            pool.submit(worker, item)
            """,
        }, rules=["race-discipline"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "race-discipline"
        assert finding.symbol == "worker"
        assert "'RESULTS'" in finding.message
        assert "without holding a lock" in finding.message

    def test_lock_guarded_write_is_clean(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/jobs.py": """
                import threading
                from concurrent.futures import ThreadPoolExecutor

                RESULTS = {}
                LOCK = threading.Lock()

                def worker(item):
                    with LOCK:
                        RESULTS[item] = item * 2

                def fan_out(items):
                    with ThreadPoolExecutor() as pool:
                        for item in items:
                            pool.submit(worker, item)
            """,
        }, rules=["race-discipline"])
        assert findings == []

    def test_thread_local_state_is_clean(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/jobs.py": """
                import threading
                from concurrent.futures import ThreadPoolExecutor

                SCRATCH = threading.local()

                def worker(item):
                    SCRATCH.value = item

                def fan_out(items):
                    with ThreadPoolExecutor() as pool:
                        for item in items:
                            pool.submit(worker, item)
            """,
        }, rules=["race-discipline"])
        assert findings == []

    def test_configured_worker_entry_seeds_reachability(self, tmp_path):
        # No executor in sight: ServingEngine.pump is worker-reachable by
        # config (the real pump runs on the engine's worker thread).
        findings, _ = analyze(tmp_path, {
            "serving/engine.py": """
                EVENTS = []

                class ServingEngine:
                    def pump(self):
                        self._drain()

                    def _drain(self):
                        EVENTS.append("tick")
            """,
        }, rules=["race-discipline"])
        assert len(findings) == 1
        assert findings[0].symbol == "ServingEngine._drain"
        assert "'EVENTS'" in findings[0].message

    def test_method_call_on_constructed_local_is_worker_reachable(
            self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                from repro.metrics.registry import Registry

                def add_stage(graph):
                    registry = Registry()
                    registry.record("stage")
            """,
            "metrics/registry.py": """
                RECORDS = []

                class Registry:
                    def record(self, name):
                        RECORDS.append(name)
            """,
        }, rules=["race-discipline"])
        assert len(findings) == 1
        assert findings[0].symbol == "Registry.record"
        assert "'RECORDS'" in findings[0].message

    def test_pragma_suppresses_with_reason(self, tmp_path):
        findings, suppressed = analyze(tmp_path, {
            "serving/jobs.py": """
                from concurrent.futures import ThreadPoolExecutor

                RESULTS = {}

                def worker(item):
                    # repro: allow[race-discipline] -- items are unique per worker
                    RESULTS[item] = item * 2

                def fan_out(items):
                    with ThreadPoolExecutor() as pool:
                        for item in items:
                            pool.submit(worker, item)
            """,
        }, rules=["race-discipline"])
        assert findings == []
        assert suppressed == 1


# ----------------------------------------------------------------------
# hot-path-alloc
# ----------------------------------------------------------------------
class TestHotPathAlloc:
    def test_ndarray_alloc_in_hot_loop(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/kernels.py": """
                import numpy as np

                # repro: hot
                def step_all(xs):
                    out = []
                    for x in xs:
                        buf = np.zeros(x.shape)
                        out.append(buf + x)
                    return out
            """,
        }, rules=["hot-path-alloc"])
        assert len(findings) == 1
        assert "np.zeros" in findings[0].message or "zeros" in findings[0].message
        assert "preallocate" in findings[0].message

    def test_unmarked_function_is_not_policed(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/kernels.py": """
                import numpy as np

                def step_all(xs):
                    return [np.zeros(x.shape) for x in xs]
            """,
        }, rules=["hot-path-alloc"])
        assert findings == []

    def test_tensor_outside_inference_mode(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/forward.py": """
                from repro.tensor import Tensor, inference_mode

                # repro: hot
                def slow_forward(x):
                    return Tensor(x)

                # repro: hot
                def fast_forward(x):
                    with inference_mode():
                        return Tensor(x)
            """,
        }, rules=["hot-path-alloc"])
        assert len(findings) == 1
        assert findings[0].symbol == "slow_forward"
        assert "inference_mode" in findings[0].message

    def test_closure_allocation_in_hot_loop(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/loops.py": """
                # repro: hot
                def drive(items):
                    hooks = []
                    for item in items:
                        hooks.append(lambda: item)
                    return hooks
            """,
        }, rules=["hot-path-alloc"])
        assert len(findings) == 1
        assert "closure" in findings[0].message or "define it once" in findings[0].message

    def test_hotness_propagates_to_same_module_callees(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/pipeline.py": """
                import numpy as np

                # repro: hot
                def outer(xs):
                    return _inner(xs)

                def _inner(xs):
                    acc = []
                    for x in xs:
                        acc.append(np.empty(x.shape))
                    return acc
            """,
        }, rules=["hot-path-alloc"])
        assert len(findings) == 1
        assert findings[0].symbol == "_inner"


# ----------------------------------------------------------------------
# schema-discipline
# ----------------------------------------------------------------------
class TestSchemaDiscipline:
    def test_inline_tag_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "obs/export.py": """
                def dump():
                    return {"schema": "demo.report/v1", "rows": []}
            """,
        }, rules=["schema-discipline"])
        assert len(findings) == 1
        assert "'demo.report/v1'" in findings[0].message
        assert "repro.schemas" in findings[0].message

    def test_registered_constant_is_clean(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "obs/export.py": """
                from repro import schemas

                def dump():
                    return {"schema": schemas.OBS_METRICS, "rows": []}
            """,
        }, rules=["schema-discipline"])
        assert findings == []

    def test_registry_module_itself_is_exempt(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "schemas.py": """
                DEMO = "demo.report/v1"
            """,
        }, rules=["schema-discipline"])
        assert findings == []


# ----------------------------------------------------------------------
# interprocedural determinism taint
# ----------------------------------------------------------------------
class TestInterproceduralDeterminism:
    def test_two_hop_wall_clock_chain(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/loop.py": """
                from repro.util.helpers import stamp

                def tick(events):
                    events.append(stamp())
            """,
            "util/helpers.py": """
                import time

                def stamp():
                    return fmt()

                def fmt():
                    return time.time()
            """,
        }, rules=["determinism"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path.endswith("serving/loop.py")
        assert finding.symbol == "tick"
        assert "helpers.stamp" in finding.message
        assert "wall-clock 'time.time'" in finding.message

    def test_method_call_on_constructed_local_is_followed(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/engine.py": """
                from repro.util.stamps import Stamper

                def tick(events):
                    stamper = Stamper()
                    events.append(stamper.now())
            """,
            "util/stamps.py": """
                import time

                class Stamper:
                    def now(self):
                        return time.time()
            """,
        }, rules=["determinism"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.symbol == "tick"
        assert "call into 'Stamper.now'" in finding.message
        assert "wall-clock 'time.time'" in finding.message

    def test_clock_boundary_stops_the_taint(self, tmp_path):
        # profiling/latency.py owns the real clock; calls into it are the
        # sanctioned way to measure, not a determinism leak.
        findings, _ = analyze(tmp_path, {
            "serving/loop.py": """
                from repro.profiling.latency import measure

                def tick(events):
                    events.append(measure())
            """,
            "profiling/latency.py": """
                import time

                def measure():
                    return time.time()
            """,
        }, rules=["determinism"])
        assert findings == []

    def test_local_findings_keep_v1_message(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/loop.py": """
                import time

                def tick():
                    return time.time()
            """,
        }, rules=["determinism"])
        assert len(findings) == 1
        assert findings[0].message == (
            "wall-clock 'time.time' used in a virtual-time module; "
            "inject a clock parameter instead")
