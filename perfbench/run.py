"""Benchmark of the tstransfer library: select, train and pipeline workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 50 --trace 0

Set-up (a fresh interpreter importing the library, plus loading the inputs)
is measured before every repetition of the workload. Repetitions run until
the next one would end after `--seconds`; each metric is the median over
repetitions. Outputs are checked after the timed region. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1` (which alternates untraced and traced repetitions
so the tracing overhead is measured in the same process).

`--workload all` runs each workload in its own process and prints their
reports; `--out FILE` also records the results, input properties and
environment in FILE, one section per `--trace` value.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("select", "train", "pipeline")
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tstransfer; "
    "print(time.perf_counter() - t); print(tstransfer.__file__)"
)


def import_library():
    """Import tstransfer from this checkout's `src`, or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import tstransfer
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tstransfer from {SRC}: {exc}")
    if not os.path.abspath(tstransfer.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: tstransfer imported from {tstransfer.__file__}, not {SRC}")


def import_seconds() -> float:
    """Time `import tstransfer` in a fresh interpreter (the user's cold start)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split("\n")[:2]
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise RuntimeError(f"import probe loaded {path}")
    return float(seconds)


# ---------------------------------------------------------------------------
# Environment fingerprint
# ---------------------------------------------------------------------------


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_within_nproc": threads is None or threads <= nproc,
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Statistics and printing
# ---------------------------------------------------------------------------


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return "max", max(values)


def format_stat(name, unit, values) -> str:
    label, tail = tail_percentile(values)
    return (f"  {name:<22} {unit:<4} median {statistics.median(values):.6g}"
            f"  {label} {tail:.6g}  n={len(values)}")


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    import catalog
    import spans
    from checks import Checks
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    os.makedirs(STATE_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=STATE_DIR)
    checks = Checks()
    ops = failed_ops = 0
    reps = []  # (traced, seconds, Outcome, per-layer metrics or None)
    absent: list[str] = []
    recorders = []
    try:
        prepared = workload.prepare(seed, workdir)
        setups = []

        def set_up():
            imported = import_seconds()
            tic = time.perf_counter()
            loaded = workload.load(prepared)
            setups.append(imported + time.perf_counter() - tic)
            return loaded

        data = set_up()
        start = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            rep_dir = tempfile.mkdtemp(prefix="rep-", dir=workdir)
            recorder = spans.Recorder(f"{workload.name}-seed{seed}-{os.getpid()}-{len(reps)}")
            tic = time.perf_counter()
            try:
                if traced:
                    with spans.Installation(recorder) as installed:
                        # Set-up is traced too, outside the repetition's root,
                        # so that `core` parsing shows in the per-layer run.
                        setup = recorder.open(spans.SETUP_SPAN)
                        workload.load(prepared)
                        recorder.close(setup)
                        root = recorder.open(spans.ROOT_SPAN)
                        outcome = workload.rep(data, rep_dir)
                        recorder.close(root)
                    absent = installed.absent
                else:
                    outcome = workload.rep(data, rep_dir)
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                ops += 1
                failed_ops += 1
                print(f"operation failed:\n{traceback.format_exc()}")
                break
            rep_seconds = time.perf_counter() - tic
            shutil.rmtree(rep_dir)
            ops += outcome.ops
            failed_ops += outcome.failed_ops
            layer = None
            if traced:
                recorders.append(recorder)
                layer = spans.layer_metrics(recorder.spans)
                checks.expect("trace.self_times_sum_to_root", abs(
                    layer["trace.layer_self_s"] + layer["trace.unattributed_s"]
                    - layer["trace.total_s"]) <= 1e-6 * layer["trace.total_s"])
            reps.append((traced, rep_seconds, outcome, layer))
            elapsed = time.perf_counter() - start
            both_kinds = not trace or len(reps) >= 2
            if both_kinds and elapsed + rep_seconds > seconds:
                break
            # Set-up samples are spread over the run, like the repetitions,
            # so that both see the same swings in machine speed.
            set_up()
        measured = time.perf_counter() - start
        if reps:
            outputs = [outcome.output for _, _, outcome, _ in reps]
            checks.run(f"{workload.name}.checks", lambda: workload.check(
                data, prepared, outputs, checks, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in reps if not r[0]]
    traced_reps = [r for r in reps if r[0]]
    if not untraced or (trace and not traced_reps):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    print(f"perfbench {workload.name} seed={seed} trace={int(trace)}: "
          f"{len(untraced)} untraced and {len(traced_reps)} traced reps "
          f"in {measured:.1f} s; untraced rep seconds "
          + " ".join(f"{r[1]:.4g}" for r in untraced))

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    totals = [r[1] for r in untraced]
    series = {"setup_s": setups, "total_s": totals, "peak_rss_mb": [rss_mb]}
    units = {name: unit for name, unit, *_ in catalog.END_TO_END}
    for name, values in series.items():
        print(format_stat(name, units[name], values))
    for name, unit, _, where in catalog.PHASES:
        if workload.name in where:
            print(format_stat(name, unit, [o.phases[name] for _, _, o, _ in untraced]))
    attempted = ops + checks.attempted
    failed = failed_ops + len(checks.failures)
    print(f"  failure_rate           ratio {failed / attempted:.6g}"
          f"  ({failed} of {attempted}: {ops} operations, {checks.attempted} checks)")
    print("inputs: " + json.dumps(workload.spec.properties()))
    print("env: " + json.dumps(environment(seed)))
    for failure in checks.failures:
        print(f"check failed: {failure}")

    if trace:
        metrics = {}
        for name, unit, _, _ in catalog.PER_LAYER:
            if name in ("trace.untraced_total_s", "trace.overhead_ratio"):
                continue
            metrics[name] = {"value": statistics.median(r[3][name] for r in traced_reps),
                             "unit": unit}
        metrics["trace.untraced_total_s"] = {"value": statistics.median(totals), "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": metrics["trace.total_s"]["value"] / statistics.median(totals),
            "unit": "ratio"}
        print(f"absent: {json.dumps(absent)}")
        print(f"layer self-time sum {metrics['trace.layer_self_s']['value']:.6g} s, "
              f"untraced total_s {metrics['trace.untraced_total_s']['value']:.6g} s, "
              f"tracing overhead x{metrics['trace.overhead_ratio']['value']:.4f}")
        spans_dir = os.path.join(STATE_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{workload.name}-seed{seed}-{os.getpid()}.jsonl")
        for recorder in recorders:
            recorder.write_jsonl(path)
    else:
        metrics = {name: {"value": statistics.median(values), "unit": units[name]}
                   for name, values in series.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# All workloads, one process each
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        results[name] = {
            "result": json.loads(lines[-1]),
            "inputs": json.loads(next(x for x in lines if x.startswith("inputs: "))[8:]),
            "env": json.loads(next(x for x in lines if x.startswith("env: "))[5:]),
        }
    combined = {
        "correct": all(r["result"]["correct"] for r in results.values()),
        "attempted": sum(r["result"]["attempted"] for r in results.values()),
        "failed": sum(r["result"]["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["result"]["metrics"].items()},
    }
    if args.out:
        write_record(args, results)
    print(json.dumps(combined))
    return 0


def write_record(args, results) -> None:
    import catalog

    record = {}
    if os.path.isfile(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["seconds"] = args.seconds
    record["end_to_end"] = [
        {"name": n, "unit": u, "better": b, "bound": bound, "description": d}
        for n, u, b, bound, d in catalog.END_TO_END]
    record["phases"] = [{"name": n, "unit": u, "better": b, "workloads": list(w)}
                        for n, u, b, w in catalog.PHASES]
    record["per_layer"] = [{"name": n, "unit": u, "better": b, "moves": m}
                           for n, u, b, m in catalog.PER_LAYER]
    record["traced" if args.trace else "untraced"] = results
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: record results in this file")
    args = parser.parse_args(argv)
    import_library()
    if args.workload == "all":
        return run_all(args)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
