"""Drive one workload: fill caches, set up, measure, check, report.

An untraced run (``--trace 0``) reports the end-to-end metrics.  A traced
run (``--trace 1``) runs one untimed op, then spends the first half of its
window untraced and the second half with every entry point wrapped in
spans, and reports the per-layer metrics plus the tracing overhead
between the two halves.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import zoo
from repro.tensor import _ckernels

from .envinfo import environment, format_environment
from .hostspeed import probe_for
from .stats import describe, summarize
from .tracing import LAYER_METRICS, Instrumentation, layer_metrics, layer_table
from .workloads import WORKLOADS, Dirs, Window, Workload, pretrain_config

clock = time.perf_counter

#: (metric, unit) of the untraced run, in report order.
END_TO_END = (("setup_s", "s"), ("rss_peak_mb", "MB"), ("op_s", "s"),
              ("throughput_per_s", "1/s"))

#: Set-up repeats at most this often, and only while the repeats fit in
#: one measuring window, so a heavy set-up is paid once.
SETUP_REPEATS = 3
#: Seconds between host-speed probes during a set-up (hostspeed.py).
SETUP_PROBE_EVERY = 0.5


def source_hash(root: Path) -> str:
    """Hash of the program's and the benchmark's sources in checkout
    ``root``.  It names the caches they fill, so no run uses a cache that
    other code filled."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src" / "repro").rglob("*.py"),
                        *(root / "perfbench").rglob("*.py")]):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fill(dirs: Dirs, root: Path) -> float:
    """Pretrain the zoo checkpoints, compile the kernels and quantize the
    serving variants of every workload in a child process, once per
    version of the code — so every run's set-up then loads them from disk
    and no run pays a pretrain or a cold quantization."""
    marker = dirs.root / "cache" / f"filled-{dirs.code}"
    if marker.exists():
        return 0.0
    started = clock()
    subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--fill"],
                   check=True, timeout=900)
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text("filled\n")
    return clock() - started


def fill_in_process(dirs: Dirs) -> None:
    """The body of :func:`fill` (runs in the child process)."""
    for cls in WORKLOADS.values():
        workload = cls(0, dirs)
        for model in workload.zoo_models:
            zoo.load_pretrained(model, pretrain_config(), cache_dir=dirs.zoo)
        if workload.needs_kernels:
            _ckernels.load_kernels()
        workload.fill()


def set_up(workload: Workload, seconds: float) -> Tuple[List[float], List[float]]:
    """Run the set-up up to :data:`SETUP_REPEATS` times, probing the host
    on a timer with the workload's probe parts; the set-ups' durations,
    less the probes' time, and their slowdowns."""
    probe = probe_for(workload.calibration, SETUP_PROBE_EVERY)
    durations: List[float] = []
    slowdowns: List[float] = []
    while True:
        with probe.around() as reading:
            started = clock()
            workload.setup()
            elapsed = clock() - started
        durations.append(elapsed - reading.seconds)
        slowdowns.append(reading.slowdown)
        if (len(durations) == SETUP_REPEATS
                or sum(durations) + statistics.median(durations) > seconds):
            return durations, slowdowns


def end_to_end(window: Window, setup_s: float) -> Dict[str, float]:
    good_work = sum(record.work for record in window.records if record.counts)
    return {
        "setup_s": setup_s,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_s": window.op_s,
        "throughput_per_s": good_work / window.seconds,
    }


def _counts(window: Window, failures: List[str]):
    attempted = len(window.records)
    failed = min(attempted,
                 sum(not record.ok for record in window.records) + len(failures))
    return attempted, failed


def run(name: str, seed: int, seconds: float, traced: bool, root: Path,
        import_s: float) -> int:
    dirs = Dirs(root / ".perfbench", source_hash(root))
    fill_s = fill(dirs, root)
    workload = WORKLOADS[name](seed, dirs)
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(traced)}")
    if traced:
        with Instrumentation() as instrumentation:
            started = clock()
            workload.setup()
            setup_durations, setup_slowdowns = [clock() - started], [1.0]
        # One untimed op first, so first-call costs fall in neither half.
        workload.measure(0.0)
        untraced = workload.measure(seconds / 2)
        with instrumentation:
            window = workload.measure(seconds / 2, trace=instrumentation)
    else:
        setup_durations, setup_slowdowns = set_up(workload, seconds)
        window = workload.measure(seconds)
    failures = workload.check()
    if traced and instrumentation.tracer.dropped:
        failures.append(f"the tracer dropped {instrumentation.tracer.dropped} spans")
    for failure in failures:
        print(f"check failed: {failure}")
    env = environment(workload.backend)
    print(format_environment(env))

    # Only the set-ups are scaled: the import time did not follow the
    # probes (runs whose probes read 0.9x and 1.8x imported in ~0.45 s).
    scaled_setups = [duration / slowdown for duration, slowdown
                     in zip(setup_durations, setup_slowdowns)]
    setup_s = import_s + statistics.median(scaled_setups)
    attempted, failed = _counts(window, failures)
    succeeded = [record for record in window.records if record.ok]
    latencies = [record.seconds for record in succeeded]
    print(f"setup: {setup_s:.6g}s = import {import_s:.6g}s + median of "
          f"{len(setup_durations)} scaled set-ups {describe(scaled_setups)} "
          f"(wall clock {describe(setup_durations)}, host slowdown "
          f"{describe(setup_slowdowns, unit='x')}); cache fill {fill_s:.6g}s")
    print(f"ops ({workload.op_unit}): attempted={attempted} "
          f"succeeded={attempted - failed} failed={failed}")
    print(f"op latency, wall clock: {describe(latencies)}")
    details = workload.details()
    if workload.calibration:
        slowdowns = [record.slowdown for record in succeeded]
        details["host_slowdown"] = summarize(slowdowns)
        details["scaled_op_s"] = summarize(
            [record.scaled for record in succeeded])
        when = (f"every {workload.probe_every:g} s during ops"
                if workload.probe_every else "between ops")
        print(f"host slowdown ({' + '.join(workload.calibration)} probe, "
              f"{when}): {describe(slowdowns, unit='x')}")
    for key, value in details.items():
        print(f"{key}: {json.dumps(value)}")

    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "environment": env,
              "setup_durations_s": setup_durations,
              "setup_slowdowns": setup_slowdowns, "fill_s": fill_s,
              "latency": summarize(latencies), "op_seconds": latencies,
              "details": details, "failures": failures}
    if traced:
        units = {metric: unit for metric, unit, _ in LAYER_METRICS}
        values = _traced_metrics(workload, instrumentation, untraced, window)
        stem = f"{name}-seed{seed}"
        trace_path = instrumentation.tracer.save(dirs.root / "traces" / f"{stem}.json")
        print(f"chrome trace: {trace_path}")
    else:
        units = dict(END_TO_END)
        values = end_to_end(window, setup_s)
        samples = {"setup_s": len(setup_durations), "op_s": len(latencies)}
        for metric, unit in END_TO_END:
            count = (f" (median of {samples[metric]})" if metric in samples
                     else "")
            print(f"{metric}: {values[metric]:.6g} {unit}{count}")
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in units.items()}
    line = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    result.update(line)
    dirs.results.mkdir(parents=True, exist_ok=True)
    (dirs.results / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(result, indent=2, default=str) + "\n")
    print(json.dumps(line))
    return 0


def _traced_metrics(workload: Workload, instrumentation: Instrumentation,
                    untraced: Window, traced: Window) -> Dict[str, float]:
    spans = instrumentation.spans()
    num_ops = len(traced.records)
    facts = workload.layer_facts()
    if traced.macs:
        facts.setdefault("tensor.backend.macs",
                         sum(traced.macs) / max(num_ops, 1))
    base, slow = untraced.op_s, traced.op_s
    facts["trace.overhead_s"] = slow - base
    facts["trace.dropped"] = instrumentation.tracer.dropped
    values = layer_metrics(spans, num_ops, facts)

    print(f"per-layer table ({len(spans)} spans, {num_ops} traced ops; "
          f"self time = span minus child spans)")
    print(f"  {'layer':34s} {'setup self s':>12s} {'self s/op':>11s} "
          f"{'calls/op':>10s} {'share':>6s}")
    for layer, setup_self, op_self, calls, share in layer_table(spans, num_ops):
        print(f"  {layer:34s} {setup_self:12.6f} {op_self:11.6f} "
              f"{calls:10.1f} {share:6.1%}")
    for metric, unit, _ in LAYER_METRICS:
        print(f"  {metric} = {values[metric]:.6g} {unit}")
    print(f"tracing overhead: op_s traced {slow:.6g}s ({num_ops} ops) - "
          f"untraced {base:.6g}s ({len(untraced.records)} ops) "
          f"= {slow - base:+.6g}s ({(slow - base) / base:+.1%}); "
          f"dropped spans: {instrumentation.tracer.dropped}")
    return values
