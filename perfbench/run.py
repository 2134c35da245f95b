"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ptq --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``,
and checkpoints, kernels, run stores, results and traces live under
``.perfbench/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("ptq", "generate", "serve", "fleet")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fill", action="store_true",
                        help="only fill the caches every workload needs")
    args = parser.parse_args(argv)
    if args.workload is None and not args.fill:
        parser.error("--workload is required")
    return args


def _environment(root: Path) -> None:
    """Thread caps and cache locations, set before numpy is imported.

    Temporary files (the kernel compiler's among them) also go under
    ``.perfbench/``, so a run writes nothing outside its checkout.
    """
    from perfbench.envinfo import THREAD_VARS, usable_cpus

    for name in THREAD_VARS:
        os.environ.setdefault(name, str(usable_cpus()))
    own = root / ".perfbench"
    os.environ["REPRO_ZOO_CACHE"] = str(own / "cache" / "zoo")
    os.environ["REPRO_KERNEL_CACHE"] = str(own / "cache" / "kernels")
    os.environ["REPRO_RUN_STORE"] = str(own / "stores" / "default")
    (own / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(own / "tmp")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    # The script's own directory would make the package's modules
    # importable under bare names; import them through the package only.
    sys.path = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != ROOT / "perfbench"]
    _environment(ROOT)
    import repro.experiments  # noqa: F401  (program import counts in setup_s)
    import repro.serving.cluster  # noqa: F401
    from perfbench import harness
    from perfbench.workloads import Dirs

    if args.fill:
        harness.fill_in_process(Dirs(ROOT / ".perfbench", harness.source_hash(ROOT)))
        return 0
    import_s = time.perf_counter() - PROCESS_START
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), ROOT, import_s)


if __name__ == "__main__":
    sys.exit(main())
