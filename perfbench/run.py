"""sepnet's benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload loopback-d56 --seed 1 --seconds 30 --trace 0

Runs from a source checkout: it imports ``sepnet`` from ``src/`` next to
this directory and refuses to run without it. Informational lines go to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones and writes every
span to ``.perfbench/``. See README.md for what each metric means.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def _require_source() -> None:
    """Import sepnet from this checkout's src/ only, never from elsewhere."""
    missing = [p for p in (os.path.join(SRC, "sepnet", "__init__.py"),
                           os.path.join(ROOT, "configs", "desk.cfg"),
                           os.path.join(ROOT, "configs", "sep-resnext56-4x16d.cfg"))
               if not os.path.isfile(p)]
    if missing:
        sys.exit(f"perfbench: not a sepnet source checkout, missing {', '.join(missing)}")
    sys.path.insert(0, SRC)
    import sepnet

    if os.path.dirname(os.path.abspath(sepnet.__file__)) != os.path.join(SRC, "sepnet"):
        sys.exit(f"perfbench: sepnet imported from {sepnet.__file__}, not from {SRC}")


def machine_facts() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _overhead_note(workload: str, traced: dict) -> str:
    path = os.path.join(OUT, f"last-{workload}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            plain = json.load(fh)["metrics"]
    except (OSError, ValueError, KeyError):
        return "tracing overhead: no untraced run of this workload in .perfbench/ to compare"
    parts = []
    for name, (value, unit) in traced.items():
        base = plain.get(name, {}).get("value")
        if base:
            parts.append(f"{name} {value:.4g} vs {base:.4g} {unit} ({100 * (value / base - 1):+.1f}%)")
    return "tracing overhead, traced vs last untraced run: " + "; ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _require_source()

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    print("machine: " + json.dumps(machine_facts()), flush=True)

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT)
    tracer = spans.Tracer(enabled=bool(args.trace))
    tracer.install()
    try:
        res = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, scratch, START)
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    for note in res.notes:
        print(note)
    for problem in res.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"operations: {res.attempted} attempted, {res.failed} failed")
    if args.trace:
        print(_overhead_note(args.workload, res.metrics))
        metrics = spans.layer_metrics(tracer, res.measured)
        metrics.update({f"traced.{k}": v for k, v in res.metrics.items()})
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz")
        tracer.dump(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = res.metrics
    result = {
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.trace:
        with open(os.path.join(OUT, f"last-{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
