#!/usr/bin/env python3
"""Benchmark harness for enzydesign.

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 30 --trace 0

runs one workload in this process and prints, last, one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload plain and then traced, each in a
child process, and prints the tracing overhead. Run it from the root of
a checkout; see perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train_short", "generate", "corpus_prep")
SETUP_REPS = 3
# Fixed before numpy loads; on 2 cores the BLAS thread count alone moves
# N=512 generate latency by about 30 %.
BLAS_THREADS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads_reported() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads_reported(),
        "machine": platform.machine(),
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        import enzydesign.cli  # the program's own import cost
    except ImportError as exc:
        print(f"error: cannot import enzydesign from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if not Path(enzydesign.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: enzydesign was imported from {enzydesign.cli.__file__}, "
              f"not from this checkout's src/", file=sys.stderr)
        return 2

    import seeded_inputs
    from spans import Tracer
    from workloads import WORKLOADS, per_layer

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "work" / f"{tag}-{os.getpid()}"
    info = seeded_inputs.write_inputs(args.workload, work, args.seed)
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](info, tracer)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        wl.install()
        phase(tracer, "prepare")
        setup_reps = []
        try:
            wl.prepare()
            phase(tracer, "setup")
            for _ in range(SETUP_REPS):
                t = time.perf_counter()
                wl.setup()
                setup_reps.append(time.perf_counter() - t)
        except RuntimeError as exc:  # nothing to measure without set-up
            print(f"error: {args.workload} set-up failed: {exc}", file=sys.stderr)
            return 1
        phase(tracer, "measure")
        start = time.perf_counter()
        while wl.attempted == 0 or time.perf_counter() - start < args.seconds:
            try:
                wl.op()
            except Exception as exc:  # a crashed operation counts as failed
                wl.fail(f"{type(exc).__name__}: {exc}")
                wl.record(False)
        measured_s = time.perf_counter() - start
        phase(tracer, "check")
        wl.final_checks()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e2e = {"setup_s": (import_s + statistics.median(setup_reps), "s"),
               "peak_rss_mb": (peak_rss_mb, "MB"),
               **wl.metrics()}
        layers = per_layer(wl) if tracer else {}
    finally:
        wl.patches.restore()
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    correct = wl.failed == 0 and not wl.failures
    shown = layers if args.trace else e2e
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"measured={measured_s:.1f}s "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in list(shown.items()) + list(wl.aliases().items()):
        print(f"{name:56s} {value:14.6g} {unit}")
    print(f"{'failed_share':56s} {wl.failed / max(wl.attempted, 1):14.6g} "
          f"({wl.failed} of {wl.attempted})")
    for why in wl.failures:
        print(f"# check failed: {why}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "measured_s": measured_s, "env": env,
              "import_s": import_s, "setup_reps_s": setup_reps,
              "end_to_end": e2e, "aliases": wl.aliases(), "per_layer": layers,
              "samples": wl.samples(),
              "attempted": wl.attempted, "failed": wl.failed,
              "failures": wl.failures}
    if tracer:
        record.update(tracer.to_json())
    (out / f"{tag}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in shown.items()}}))
    return 0


def phase(tracer, name: str) -> None:
    if tracer is not None:
        tracer.phase = name


def run_all(args) -> int:
    """Every workload plain, then traced; then the tracing overhead."""
    code = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            code |= subprocess.run(argv).returncode
    print("\ntracing overhead (traced run against plain run, same seed):")
    for workload in WORKLOAD_NAMES:
        runs = [HERE / "out" / f"{workload}-seed{args.seed}-trace{t}.json"
                for t in (0, 1)]
        if not all(p.exists() for p in runs):
            continue
        plain, traced = (json.loads(p.read_text())["end_to_end"] for p in runs)
        for name, (value, unit) in plain.items():
            other = traced[name][0]
            print(f"  {workload:12s} {name:20s} {value:12.6g} -> {other:12.6g} "
                  f"{unit:5s} ({(other - value) / value:+.1%})")
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
