"""Run one mstwell benchmark workload and print its metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload density_well --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the checkout this file
sits in.  One run:

1. sets itself up (imports, seeded input generation and one small warm-up
   call), computes the checks' references, and then repeats whole passes
   over the workload's operations until ``--seconds`` have been spent in
   passes;
2. between passes, spread over that time, measures set-up five times,
   each in a fresh process started by this one, and reports the median as
   ``setup_s`` (untraced runs only);
3. checks every operation's output after each pass, outside the timed
   region, and counts the operations attempted and failed.

With ``--trace 0`` it reports the median pass's wall time (``wall_s``) and
process CPU time (``cpu_s``), the process's peak resident memory and
``setup_s``.  With ``--trace 1`` it alternates untraced and traced passes
and reports every per-layer metric of the median traced pass, plus
``trace.overhead_s`` (median traced minus median untraced pass wall time).
The last line of standard output is the JSON result; progress, versions,
the BLAS thread count and failed operations go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH_PARENT = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 5


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _import_program():
    """Put the checkout's src/ first on the path and import from there only."""
    if not (SRC / "mstwell" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'mstwell'}")
    sys.path.insert(0, str(SRC))
    import mstwell

    if Path(mstwell.__file__).resolve().parent != (SRC / "mstwell").resolve():
        raise SystemExit(f"perfbench: imported mstwell from {mstwell.__file__}, not {SRC}")
    import workloads

    return workloads


def _set_up(name, seed, scratch):
    """Imports, input generation, one warm-up call: what setup_s measures."""
    workloads = _import_program()
    wl = workloads.WORKLOADS[name](seed, scratch)
    wl.execute(wl.warmup_op())
    return wl


def _probe_setup(name, seed):
    """Time one fresh process from start to ready; returns seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if line.strip() != "ready" or rc != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {rc})")
    return elapsed


def blas_threads() -> dict[str, int]:
    """OpenBLAS thread counts of numpy's and scipy's bundled libraries."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = {}
    for pkg, sym in ((numpy, "scipy_openblas_get_num_threads64_"),
                     (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libdir / "*openblas*")):
            fn = getattr(ctypes.CDLL(path), sym, None)
            if fn is not None:
                out[pkg.__name__] = int(fn())
    return out


def _run_pass(wl, tracer=None):
    """One timed pass; returns (wall, cpu, [(result, error) per operation])."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.span() if tracer else nullcontext():
            results = [_attempt(wl, op) for op in wl.ops]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu, results


def _attempt(wl, op):
    try:
        return wl.execute(op), None
    except Exception as exc:  # a raising operation is a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def _check_pass(wl, results, failures):
    """Check one pass's outputs; count each failed check in ``failures``."""
    from workloads import Failure

    failed = 0
    for op, (result, error) in zip(wl.ops, results):
        found = [Failure(op.name, "raised", error)] if error else wl.check(op, result)
        failed += bool(found)
        failures.update(found)
    return failed


def _metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def _emit(specs, values, correct, attempted, failed):
    metrics = {}
    for m in specs:
        if m["name"] not in values:
            raise SystemExit(f"perfbench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # on SIGTERM unwind through the finally below, so scratch files go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH_PARENT))
    try:
        if args.setup_probe:
            _set_up(args.workload, args.seed, scratch)
            print("ready", flush=True)
            return 0
        return _measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, scratch):
    end_to_end, per_layer = _metric_specs()
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = _set_up(args.workload, args.seed, scratch)
    wl.prepare()
    import numpy
    import scipy

    _log(f"perfbench: {wl.name} seed={args.seed} ops/pass={len(wl.ops)} "
         f"python={sys.version.split()[0]} numpy={numpy.__version__} "
         f"scipy={scipy.__version__} blas_threads={blas_threads()} "
         f"nproc={os.cpu_count()}")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = {"plain": [], "traced": []}
    failures: Counter = Counter()
    attempted = failed = 0
    spent = 0.0
    # set-up probes (untraced runs only) are spread over the measured
    # window, one as the passes' time reaches each SETUP_SAMPLES-th of it,
    # so a slow stretch of the shared machine moves one probe, not all
    setups = []
    probes_due = 0 if args.trace else SETUP_SAMPLES
    while True:
        if len(setups) < probes_due and spent >= len(setups) * args.seconds / probes_due:
            setups.append(_probe_setup(args.workload, args.seed))
        traced = tracer is not None and len(passes["plain"]) > len(passes["traced"])
        wall, cpu, results = _run_pass(wl, tracer if traced else None)
        spent += wall
        attempted += len(wl.ops)
        failed += _check_pass(wl, results, failures)
        layers = tracer.layer_metrics() if traced else None
        passes["traced" if traced else "plain"].append((wall, cpu, layers))
        if spent >= args.seconds and (tracer is None or passes["traced"]):
            break
    while len(setups) < probes_due:
        setups.append(_probe_setup(args.workload, args.seed))

    for f, n in failures.items():
        _log(f"perfbench: FAILED {f.op} check={f.check} ({f.detail}) x{n}"
             + (" [known fault]" if f.known else ""))
    correct = all(f.known for f in failures)

    plain = passes["plain"]
    _log(f"perfbench: untraced pass walls {[round(p[0], 4) for p in plain]}, "
         f"traced {[round(p[0], 4) for p in passes['traced']]}"
         + (f", wrapper bindings {tracer.bindings}" if tracer else f", set-ups {[round(t, 4) for t in setups]}"))
    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(w for w, _, _ in plain),
            "cpu_s": statistics.median(c for _, c, _ in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        _emit(end_to_end, values, correct, attempted, failed)
    else:
        traced_passes = sorted(passes["traced"], key=lambda p: p[0])
        _, _, values = traced_passes[(len(traced_passes) - 1) // 2]
        values["trace.overhead_s"] = (statistics.median(p[0] for p in traced_passes)
                                      - statistics.median(p[0] for p in plain))
        _emit(per_layer, values, correct, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
