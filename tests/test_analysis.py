"""Tests for the repro.analysis static-analysis subsystem.

Each rule gets a fixture tree with a planted violation (mirroring the
``src/repro`` layout so the path-glob config applies), plus tests for
pragma suppression, the CLI contract, and a self-check that the shipped
source tree is gate-clean.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisReport,
    Finding,
    Project,
    available_checkers,
    run_analysis,
)
from repro.analysis.findings import REPORT_SCHEMA

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(root: Path, files) -> Path:
    """Write ``{relative_path: source}`` under a src/repro-shaped tree."""
    for rel, source in files.items():
        path = root / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    # Package __init__ files so dotted names resolve.
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


def rules_of(findings):
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# rule: determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_wall_clock_in_virtual_time_module_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/cluster/sim.py": """
                import time

                def tick():
                    return time.time()
            """,
        }, rules=["determinism"])
        assert len(findings) == 1
        assert findings[0].rule == "determinism"
        assert "time.time" in findings[0].message
        assert findings[0].symbol == "tick"

    def test_from_import_and_alias_are_resolved(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/engine.py": """
                from time import perf_counter
                import numpy as np

                def sample():
                    started = perf_counter()
                    noise = np.random.rand(4)
                    return started, noise
            """,
        }, rules=["determinism"])
        assert len(findings) == 2
        messages = " ".join(finding.message for finding in findings)
        assert "time.perf_counter" in messages
        assert "numpy.random.rand" in messages

    def test_signature_default_injection_is_allowed(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/pool.py": """
                import time

                class Pool:
                    def __init__(self, clock=time.perf_counter):
                        self.clock = clock

                    def now(self):
                        return self.clock()
            """,
        }, rules=["determinism"])
        assert findings == []

    def test_unseeded_rng_factory_is_flagged_seeded_is_not(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "diffusion/samplers.py": """
                import numpy as np

                def good(seed):
                    return np.random.default_rng(seed)

                def bad():
                    return np.random.default_rng()
            """,
        }, rules=["determinism"])
        assert len(findings) == 1
        assert findings[0].symbol == "bad"

    def test_clock_boundary_modules_are_exempt(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "profiling/latency.py": """
                import time

                def stamp():
                    return time.perf_counter()
            """,
        }, rules=["determinism"])
        assert findings == []

    def test_non_virtual_time_modules_are_out_of_scope(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "bench/runner.py": """
                import time

                def stamp():
                    return time.time()
            """,
        }, rules=["determinism"])
        assert findings == []


# ----------------------------------------------------------------------
# rule: stage-purity
# ----------------------------------------------------------------------
class TestStagePurityRule:
    def test_open_reachable_from_stage_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                from .helpers import load_side_channel

                def add_generate_stage(graph):
                    def compute():
                        return load_side_channel()
                    graph.append(compute)
            """,
            "experiments/helpers.py": """
                def load_side_channel():
                    with open("/tmp/extra.json") as handle:
                        return handle.read()
            """,
        }, rules=["stage-purity"])
        assert len(findings) == 1
        assert findings[0].path.endswith("experiments/helpers.py")
        assert "open()" in findings[0].message

    def test_environment_read_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                import os

                def add_stage(graph):
                    def compute():
                        return os.environ.get("REPRO_FAST", "0")
                    graph.append(compute)
            """,
        }, rules=["stage-purity"])
        assert len(findings) == 1
        assert "os.environ" in findings[0].message

    def test_module_global_mutation_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                _CACHE = {}

                def add_stage(graph):
                    def compute(key):
                        _CACHE[key] = 1
                        return _CACHE
                    graph.append(compute)
            """,
        }, rules=["stage-purity"])
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message

    def test_purity_boundary_modules_terminate_the_walk(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                from .store import save_artifact

                def add_stage(graph):
                    def compute(payload):
                        return save_artifact(payload)
                    graph.append(compute)
            """,
            "experiments/store.py": """
                def save_artifact(payload):
                    with open("/tmp/artifact.json", "w") as handle:
                        handle.write(payload)
            """,
        }, rules=["stage-purity"])
        assert findings == []

    def test_method_calls_through_constructed_locals_are_followed(
            self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                from ..diffusion.pipeline import Pipeline

                def add_stage(graph):
                    def compute():
                        pipeline = Pipeline()
                        return pipeline.generate()
                    graph.append(compute)
            """,
            "diffusion/pipeline.py": """
                import os

                class Pipeline:
                    def generate(self):
                        return os.getenv("HIDDEN_KNOB")
            """,
        }, rules=["stage-purity"])
        assert len(findings) == 1
        assert findings[0].symbol == "Pipeline.generate"

    def test_global_declaration_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                _LAST = None

                def add_stage(graph):
                    def compute(value):
                        global _LAST
                        _LAST = value
                        return value
                    graph.append(compute)
            """,
        }, rules=["stage-purity"])
        assert len(findings) == 1
        assert "'global'" in findings[0].message

    def test_pickle_and_subprocess_calls_are_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                import pickle
                import subprocess

                def add_stage(graph):
                    def compute(payload, handle):
                        pickle.dump(payload, handle)
                        subprocess.run(["true"])
                    graph.append(compute)
            """,
        }, rules=["stage-purity"])
        messages = sorted(finding.message for finding in findings)
        assert len(messages) == 2
        assert "'pickle.dump'" in messages[0]
        assert "'subprocess.run'" in messages[1]

    def test_item_deletion_from_module_dict_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                _CACHE = {}

                def add_stage(graph):
                    def compute(key):
                        del _CACHE[key]
                    graph.append(compute)
            """,
        }, rules=["stage-purity"])
        assert len(findings) == 1
        assert "'_CACHE'" in findings[0].message

    def test_closure_returned_by_reached_helper_is_scanned(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                from .loaders import make_loader

                def add_stage(graph):
                    def compute():
                        return make_loader()()
                    graph.append(compute)
            """,
            "experiments/loaders.py": """
                import os

                def make_loader():
                    def load():
                        return os.getenv("DATA_ROOT")
                    return load
            """,
        }, rules=["stage-purity"])
        assert len(findings) == 1
        assert findings[0].path.endswith("experiments/loaders.py")
        assert "os.getenv" in findings[0].message

    def test_constructed_local_used_in_nested_closure_is_followed(
            self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                from ..diffusion.pipeline import Pipeline

                def add_stage(graph):
                    pipeline = Pipeline()
                    def compute():
                        return pipeline.generate()
                    graph.append(compute)
            """,
            "diffusion/pipeline.py": """
                import os

                class Pipeline:
                    def generate(self):
                        return os.getenv("HIDDEN_KNOB")
            """,
        }, rules=["stage-purity"])
        assert len(findings) == 1
        assert findings[0].symbol == "Pipeline.generate"

    def test_boundary_class_reached_through_constructed_local_is_clean(
            self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                from .store import Store

                def add_stage(graph):
                    def compute(payload):
                        store = Store()
                        store.save(payload)
                    graph.append(compute)
            """,
            "experiments/store.py": """
                class Store:
                    def save(self, payload):
                        with open("/tmp/artifact.json", "w") as handle:
                            handle.write(payload)
            """,
        }, rules=["stage-purity"])
        assert findings == []

    def test_filesystem_method_on_named_receiver_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                def add_stage(graph, path):
                    def compute():
                        path.write_text("x")
                    graph.append(compute)
            """,
        }, rules=["stage-purity"])
        assert len(findings) == 1
        assert "'.write_text()'" in findings[0].message

    def test_os_and_pathlib_filesystem_calls_are_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "experiments/stages.py": """
                import os
                from pathlib import Path

                def add_stage(graph, root):
                    def compute():
                        os.makedirs(root, exist_ok=True)
                        Path.mkdir(Path(root))
                        os.remove(root)
                    graph.append(compute)
            """,
        }, rules=["stage-purity"])
        messages = sorted(finding.message for finding in findings)
        assert len(messages) == 3
        assert "'.mkdir()'" in messages[0]
        assert "'os.makedirs'" in messages[1]
        assert "'os.remove'" in messages[2]


# ----------------------------------------------------------------------
# rule: fingerprint-coverage
# ----------------------------------------------------------------------
class TestFingerprintCoverageRule:
    def test_field_missing_from_hand_built_payload_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/config.py": """
                from dataclasses import dataclass

                @dataclass
                class Config:
                    bits: int = 8
                    rounding: str = "nearest"

                    def fingerprint(self):
                        return hash(("config", self.bits))
            """,
        }, rules=["fingerprint-coverage"])
        assert len(findings) == 1
        assert findings[0].symbol == "Config.rounding"

    def test_coverage_through_to_dict_helper(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/config.py": """
                from dataclasses import dataclass

                @dataclass
                class Config:
                    bits: int = 8
                    rounding: str = "nearest"

                    def to_dict(self):
                        return {"bits": self.bits, "rounding": self.rounding}

                    def fingerprint(self):
                        return hash(str(self.to_dict()))
            """,
        }, rules=["fingerprint-coverage"])
        assert findings == []

    def test_asdict_covers_everything(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/config.py": """
                from dataclasses import asdict, dataclass

                @dataclass
                class Config:
                    bits: int = 8
                    rounding: str = "nearest"

                    def fingerprint(self):
                        return hash(str(asdict(self)))
            """,
        }, rules=["fingerprint-coverage"])
        assert findings == []

    def test_dataclasses_without_fingerprint_are_ignored(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/config.py": """
                from dataclasses import dataclass

                @dataclass
                class Plain:
                    bits: int = 8
            """,
        }, rules=["fingerprint-coverage"])
        assert findings == []


# ----------------------------------------------------------------------
# rule: tracer-discipline
# ----------------------------------------------------------------------
class TestTracerDisciplineRule:
    def test_unguarded_dict_payload_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/engine.py": """
                class Engine:
                    def __init__(self, tracer=None):
                        self.tracer = tracer

                    def step(self, start, end):
                        self.tracer.add_span("step", start, end,
                                             attrs={"kind": "step"})
            """,
        }, rules=["tracer-discipline"])
        assert len(findings) == 1
        assert "dict literal" in findings[0].message

    def test_is_not_none_guard_is_recognized(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/engine.py": """
                class Engine:
                    def __init__(self, tracer=None):
                        self.tracer = tracer

                    def step(self, start, end):
                        if self.tracer is not None:
                            self.tracer.add_span("step", start, end,
                                                 attrs={"kind": "step"})
            """,
        }, rules=["tracer-discipline"])
        assert findings == []

    def test_early_return_narrowing_is_recognized(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/engine.py": """
                class Engine:
                    def __init__(self, tracer=None):
                        self.tracer = tracer

                    def trace(self, start, end):
                        if self.tracer is None:
                            return
                        self.tracer.add_span("a", start, end,
                                             attrs={"kind": "a"})
                        self.tracer.add_span("b", start, end,
                                             attrs={"kind": "b"})
            """,
        }, rules=["tracer-discipline"])
        assert findings == []

    def test_live_tracer_default_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "obs/report.py": """
                from .tracer import Tracer

                def fine(tracer=None):
                    return tracer

                def bad(tracer=Tracer()):
                    return tracer
            """,
        }, rules=["tracer-discipline"])
        assert len(findings) == 1
        assert findings[0].symbol == "bad"

    def test_only_none_turns_tracing_off(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/engine.py": """
                from .tracer import NULL_TRACER

                def null_default(tracer=NULL_TRACER):
                    return tracer

                def enabled_guard(tracer, start, end):
                    if tracer.enabled:
                        tracer.add_span("a", start, end, attrs={"k": "a"})
            """,
        }, rules=["tracer-discipline"])
        assert sorted(f.symbol for f in findings) == \
            ["enabled_guard", "null_default"]

    def test_span_outside_with_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/engine.py": """
                def good(tracer, payload):
                    with tracer.span("work"):
                        return payload

                def bad(tracer, payload):
                    tracer.span("work")
                    return payload
            """,
        }, rules=["tracer-discipline"])
        assert len(findings) == 1
        assert findings[0].symbol == "bad"
        assert "unbalanced span" in findings[0].message


# ----------------------------------------------------------------------
# rule: gemm-dispatch
# ----------------------------------------------------------------------
class TestGemmDispatchRule:
    def test_raw_numpy_matmul_in_dispatch_module_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "nn/layers.py": """
                import numpy as np

                def forward(x, w):
                    return np.matmul(x, w.T)
            """,
        }, rules=["gemm-dispatch"])
        assert len(findings) == 1
        assert findings[0].rule == "gemm-dispatch"
        assert "np.matmul" in findings[0].message
        assert findings[0].symbol == "forward"

    def test_matmult_operator_is_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "tensor/ops.py": """
                def score(q, k):
                    return q @ k.T
            """,
        }, rules=["gemm-dispatch"])
        assert len(findings) == 1
        assert "'@'" in findings[0].message

    def test_from_import_and_alias_are_resolved(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "core/qmodules.py": """
                import numpy as xp
                from numpy import einsum as es

                def a(x, w):
                    return xp.tensordot(x, w, axes=1)

                def b(x, w):
                    return es("ij,kj->ik", x, w)
            """,
        }, rules=["gemm-dispatch"])
        assert len(findings) == 2
        assert {f.symbol for f in findings} == {"a", "b"}

    def test_tensor_level_matmul_is_not_flagged(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "tensor/functional.py": """
                def linear(x, weight, bias):
                    out = x.matmul(weight.transpose())
                    return out if bias is None else out + bias
            """,
        }, rules=["gemm-dispatch"])
        assert findings == []

    def test_backend_module_is_exempt(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "tensor/backend.py": """
                import numpy as np

                def gemm(a, b):
                    return np.matmul(a, b)
            """,
        }, rules=["gemm-dispatch"])
        assert findings == []

    def test_modules_outside_dispatch_globs_are_ignored(self, tmp_path):
        findings, _ = analyze(tmp_path, {
            "serving/pool.py": """
                import numpy as np

                def mix(a, b):
                    return np.dot(a, b)
            """,
        }, rules=["gemm-dispatch"])
        assert findings == []

    def test_pragma_suppresses_a_reasoned_bypass(self, tmp_path):
        findings, suppressed = analyze(tmp_path, {
            "tensor/shapes.py": """
                import numpy as np

                def flops(a, b):
                    # Shape-only estimate, never on the data path.
                    return np.einsum("ij,jk->", a, b)  # repro: allow[gemm-dispatch]
            """,
        }, rules=["gemm-dispatch"])
        assert findings == []
        assert suppressed == 1


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
class TestSuppression:
    def test_trailing_pragma_suppresses_and_is_counted(self, tmp_path):
        findings, suppressed = analyze(tmp_path, {
            "serving/cluster/sim.py": """
                import time

                def tick():
                    return time.time()  # repro: allow[determinism]
            """,
        }, rules=["determinism"])
        assert findings == []
        assert suppressed == 1

    def test_standalone_previous_line_pragma(self, tmp_path):
        findings, suppressed = analyze(tmp_path, {
            "serving/cluster/sim.py": """
                import time

                def tick():
                    # repro: allow[determinism] -- measured on purpose
                    return time.time()
            """,
        }, rules=["determinism"])
        assert findings == []
        assert suppressed == 1

    def test_pragma_for_a_different_rule_does_not_suppress(self, tmp_path):
        findings, suppressed = analyze(tmp_path, {
            "serving/cluster/sim.py": """
                import time

                def tick():
                    return time.time()  # repro: allow[stage-purity]
            """,
        }, rules=["determinism"])
        assert len(findings) == 1
        assert suppressed == 0

    def test_wildcard_pragma_suppresses_everything(self, tmp_path):
        findings, suppressed = analyze(tmp_path, {
            "serving/cluster/sim.py": """
                import time

                def tick():
                    return time.time()  # repro: allow[*]
            """,
        }, rules=["determinism"])
        assert findings == []
        assert suppressed == 1


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
def run_cli(args, cwd):
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    # A run that writes no bytecode must not leave any in the checkout.
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=cwd, env=env)


class TestCli:
    def test_violation_fails_and_report_is_written(self, tmp_path):
        write_tree(tmp_path, {
            "serving/cluster/sim.py": """
                import time

                def tick():
                    return time.time()
            """,
        })
        report_path = tmp_path / "report.json"
        result = run_cli(["src", "--json", str(report_path)], cwd=tmp_path)
        assert result.returncode == 1
        assert "determinism" in result.stdout
        report = json.loads(report_path.read_text())
        assert report["schema"] == REPORT_SCHEMA
        assert report["summary"]["total"] == 1
        assert report["summary"]["per_rule"]["determinism"] == 1
        assert report["findings"][0]["path"].endswith("sim.py")

    def test_clean_tree_exits_zero(self, tmp_path):
        write_tree(tmp_path, {
            "serving/cluster/sim.py": """
                def tick(clock):
                    return clock()
            """,
        })
        result = run_cli(["src"], cwd=tmp_path)
        assert result.returncode == 0

    def test_list_rules_names_all_eight(self, tmp_path):
        result = run_cli(["--list-rules"], cwd=tmp_path)
        assert result.returncode == 0
        listed = [line.split()[0] for line in result.stdout.splitlines()]
        assert listed == ["determinism", "fingerprint-coverage",
                          "gemm-dispatch", "hot-path-alloc",
                          "race-discipline", "schema-discipline",
                          "stage-purity", "tracer-discipline"]

    def test_syntax_error_fails_the_gate(self, tmp_path):
        write_tree(tmp_path, {
            "serving/broken.py": """
                def tick(:
            """,
        })
        result = run_cli(["src"], cwd=tmp_path)
        assert result.returncode == 1
        assert "syntax" in result.stdout


# ----------------------------------------------------------------------
# registry and report plumbing
# ----------------------------------------------------------------------
class TestRegistryAndReport:
    def test_all_eight_rules_are_registered(self):
        names = [name for name, _ in available_checkers()]
        assert names == sorted(names)
        assert set(names) == {"determinism", "stage-purity",
                              "fingerprint-coverage", "tracer-discipline",
                              "race-discipline", "hot-path-alloc",
                              "schema-discipline", "gemm-dispatch"}

    def test_shared_call_graph_is_built_first_and_timed_as_context(
            self, tmp_path):
        src = write_tree(tmp_path, {"core/x.py": "VALUE = 1\n"})
        project = Project.load([src], repo_root=tmp_path)
        timing = run_analysis(project, rules=["fingerprint-coverage"]).timing
        assert set(timing) == {"fingerprint-coverage", "total"}
        assert project._context is None
        timing = run_analysis(project, rules=["determinism",
                                              "stage-purity"]).timing
        assert set(timing) == {"context", "determinism", "stage-purity",
                               "total"}
        assert project._context is not None

    def test_unknown_rule_raises(self, tmp_path):
        src = write_tree(tmp_path, {"core/x.py": "VALUE = 1\n"})
        project = Project.load([src], repo_root=tmp_path)
        with pytest.raises(KeyError, match="unknown checker"):
            run_analysis(project, rules=["nonexistent"])

    def test_report_exit_code_tracks_new_findings(self):
        report = AnalysisReport(roots=["src"], files_analyzed=1, rules=[])
        assert report.exit_code == 0
        report.findings = [Finding("determinism", "a.py", 1, 0, "m")]
        assert report.exit_code == 1

    def test_report_json_shape(self, tmp_path):
        finding = Finding("determinism", "a.py", 1, 0, "msg", symbol="f")
        report = AnalysisReport(
            roots=["src"], files_analyzed=3,
            rules=[{"name": "determinism", "description": "d"}],
            findings=[finding])
        path = report.save(tmp_path / "out" / "report.json")
        data = json.loads(path.read_text())
        assert data["schema"] == REPORT_SCHEMA
        assert data["summary"] == {
            "total": 1, "suppressed": 0, "per_rule": {"determinism": 1}}
        assert set(data) == {"schema", "roots", "files_analyzed", "rules",
                             "findings", "timing", "summary"}


# ----------------------------------------------------------------------
# self-check: the shipped tree satisfies its own gate
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_src_has_no_findings(self):
        # Every finding fails the gate; pragmas are the only way to accept
        # one, so the shipped tree must come out with no findings at all.
        project = Project.load([REPO_ROOT / "src"], repo_root=REPO_ROOT)
        findings = run_analysis(project).findings
        assert findings == [], "\n".join(f.format() for f in findings)
