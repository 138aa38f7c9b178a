"""csres benchmark: one workload, one client, ops one after the other.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classical-trajectory --seed 1 --seconds 36 --trace 0

Ops run back to back for ``--seconds`` (an op is not started when the
longest op so far would end past that time; the first always runs).
Every op is checked; an op fails if it raises, exits non-zero or fails
its check.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``op_p50_ref``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones of
``tracing.PER_LAYER``.  The line before it holds the details: raw seconds
per op, reference seconds and the environment.

Op time is read against a reference: a fixed computation that does not
call csres is timed right before and right after every op, and the op's
wall time is divided by the geometric mean of the two.  The vCPU's speed
wanders by more than the effects worth measuring; the ratio cancels most
of that drift (see README.md).
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402  (numpy, after the thread pinning)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 3
READY = "setup done"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print a ready line and exit (for timing set-up)")
    return p.parse_args(argv)


def setup(name, seed):
    """Import csres from this checkout and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import csres

    if Path(csres.__file__).resolve().parent != SRC / "csres":
        raise ImportError(f"csres imported from {csres.__file__}, not from {SRC}")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name](seed), reference.Reference()


def time_setup(args):
    """Seconds from starting a fresh interpreter to the end of its set-up, per sample."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != READY:
                raise RuntimeError(f"set-up run failed (exit {proc.returncode})")
        samples.append(t1 - t0)
    return samples


def environment():
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded (None if not found)."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        workload, _ = setup(args.workload, args.seed)
        print(READY, flush=True)
        workload.close()
        return 0

    setup_samples = time_setup(args)
    workload, ref = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    op_s, ref_s, ratios, errors = [], [], [], []
    failed = wrong = 0
    longest = 0.0
    start = time.perf_counter()
    try:
        i = 0
        while True:
            began = time.perf_counter()
            inp = workload.make_input(i)
            with reference.Sampler(ref) as sampler:
                if tracer:
                    tracer.op = i
                t0 = time.perf_counter()
                try:
                    out, error = workload.run(inp), None
                except Exception as exc:  # an op that raises is counted as failed
                    out, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                if tracer:
                    tracer.op = None
            if error is None:
                error = workload.check(inp, out)
                wrong += error is not None
            if error is None:
                op_s.append(t1 - t0 - sampler.spent)
                ref_s.append(sampler.seconds())
                ratios.append(op_s[-1] / ref_s[-1])
            else:
                failed += 1
                errors.append(f"op {i}: {error}")
                print(f"op {i} failed: {error}", file=sys.stderr)
            i += 1
            longest = max(longest, time.perf_counter() - began)
            if time.perf_counter() - start + longest > args.seconds:
                break
    finally:
        workload.close()
        if tracer:
            tracer.uninstall()

    attempted = i
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "op_s": op_s,
        "ref_s": ref_s,
        "op_ref": ratios,
        "op_p50_s": statistics.median(op_s) if op_s else None,
        "op_p50_ref": statistics.median(ratios) if ratios else None,
        "setup_samples_s": setup_samples,
        "measured_s": time.perf_counter() - start,
        "errors": errors,
        "environment": environment(),
    }
    if tracer:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(HERE.parent))
        metrics = {
            name: {"value": value, "unit": tracing.unit_of(name)}
            for name, value in tracer.metrics(attempted).items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "op_p50_ref": {"value": detail["op_p50_ref"], "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
