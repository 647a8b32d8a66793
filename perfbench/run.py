"""Algorithm-1 benchmark: end-to-end metrics, or a layer-traced run.

Run from the repository root::

    python3 perfbench/run.py --workload shift-64 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (from untraced runs only);
``--trace 1`` prints the per-layer metrics of a separate traced run.
Workload and metric names, units and order come from ``BENCHMARK.json``;
the workloads are described in ``workloads.py`` and the layer -> metric ->
workload map in ``layers.py``. Each invocation runs one workload in
its own process and builds its inputs from ``--seed``. Every run does a
fixed amount of work - on a 2-vCPU VM about 45 s on fleet-calm-4x64 and
65 s on shift-64 - so ``--seconds`` is accepted and printed but sets
nothing. Output checks run on every invocation; a failed check prints
``"correct": false`` and exits 1.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give every
metric by name with its unit, the machine (BLAS library, its version and
thread count, thread environment variables, CPU count and affinity) and a
JSON record with the run's counts.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_SAMPLES = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in BENCHMARK["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="printed only; every run is fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter.

    Imports, and the BLAS start-up they trigger, belong to set-up; timing
    them in child processes gives several samples from one run.
    """
    code = (
        "import time; t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, read through ctypes."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def peak_rss_mib(children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<42} {value:>14.6g} {unit:<9}{note}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_import_s = 0.0 if args.trace else import_seconds()
    from layers import LAYERS
    from workloads import WORKLOADS

    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    tabled = [name for layer in LAYERS for name in layer.metrics]
    if sorted(tabled) != sorted(per_layer) or args.workload not in WORKLOADS:
        print("perfbench: layers.py, workloads.py and BENCHMARK.json disagree",
              file=sys.stderr)
        return 2
    run_workload = WORKLOADS[args.workload]
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    started = time.perf_counter()
    try:
        result = run_workload(args.seed, bool(args.trace), str(workdir))
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass

    metrics = result.metrics
    if args.trace:
        units = per_layer
        for layer in LAYERS:
            print(f"{layer.module}  (moves {layer.moves}; on {layer.workloads})")
            for name in layer.metrics:
                show(name, metrics.get(name, math.nan), units[name])
        show("unattributed", result.record["unattributed_s"], "s",
             "  timed wall outside the layer spans")
        if result.tracer is not None:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
            result.tracer.dump(str(path), started)
            print(f"spans: {path.relative_to(ROOT)}")
    else:
        units = end_to_end
        metrics["setup_s"] += setup_import_s
        metrics["peak_rss_mb"] = peak_rss_mib(children=args.workload.startswith("fleet"))
        result.record["setup_import_s"] = setup_import_s
        for name, unit in units.items():
            show(name, metrics.get(name, math.nan), unit)
        tail = result.record["tail"]
        print(f"  (op_tail_ms is p{tail['percentile']:.1f} of {tail['samples']} "
              f"samples, {tail['samples_beyond']} beyond it)")
    fail_frac = result.failed / max(result.attempted, 1)
    show("op_fail_frac", fail_frac, "fraction",
         f"  {result.failed} of {result.attempted} operations")
    missing = [name for name in units if name not in metrics]
    result.check(not missing, f"metrics not measured: {missing}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print("record: " + json.dumps(result.record, sort_keys=True, default=str))
    correct = not result.problems and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            n: {"value": metrics.get(n, math.nan), "unit": u} for n, u in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
