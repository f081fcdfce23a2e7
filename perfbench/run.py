"""rabispec benchmark: latency of CLI tasks, end to end or traced per layer.

    python3 perfbench/run.py --workload {levels,bias-sweep,fit} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it works on the checkout that holds it (``src/``
next to this directory).  One task is one in-process call of
``rabispec.cli.main(argv)`` with stdout captured, run in a closed loop by a
single client (this process, one thread).  Tasks follow the workload's
fixed cycle of command slots (see workloads.py); the loop runs whole
cycles, starting another only while it is expected to end within
``--seconds``.  After each timed call the output is checked by the
benchmark's own oracle, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
task twice, untraced and traced in alternating order, requires
byte-identical stdout from both, and reports the per-layer metrics plus
the tracing overhead.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; the lines before it are the
environment, the drawn inputs and a readable table.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: unpinned eigh at dim 82 swings by 50x
# on a two-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SPAWNS = 7
TAIL_BEYOND = 10
# Seed-code figures for set H at n_max 40, printed beside the traced medians.
JACOBI_REFERENCE = {
    "rabi.solve.parity_ms_p50_nmax40": "Jacobi reference, set H: 67 ms",
    "rabi.solve.dense_ms_p50_nmax40": "Jacobi reference, set H: 116 ms",
}
SETUP_CODE = (
    "import rabispec.cli as cli, rabispec.refdata as refdata; "
    "cli.build_parser(); refdata.reference_sets()"
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# environment


def _openblas_libraries():
    """(path, threads, config) for every OpenBLAS loaded in this process."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({ln.split()[-1] for ln in handle if "openblas" in ln.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = config = None
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and threads is None:
                    get_threads.restype = ctypes.c_int
                    threads = get_threads()
                if get_config is not None and config is None:
                    get_config.restype = ctypes.c_char_p
                    config = get_config().decode()
        found.append({"library": os.path.basename(path), "threads": threads, "config": config})
    return found


def _process_threads():
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """Record the machine and libraries; refuse if BLAS is not single-threaded."""
    import numpy as np
    import scipy

    np.linalg.eigh(np.eye(200) + 1e-3 * np.ones((200, 200)))
    blas = _openblas_libraries()
    record = {
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "process_threads": _process_threads(),
    }
    unpinned = [b["library"] for b in blas if b["threads"] not in (None, 1)]
    if unpinned:
        raise BenchmarkError(f"BLAS thread pinning did not take effect in {unpinned}")
    if record["process_threads"] not in (None, 1):
        raise BenchmarkError(f"{record['process_threads']} threads running after a BLAS call")
    if blas and all(b["threads"] is None for b in blas):
        raise BenchmarkError("cannot read the BLAS thread count to confirm pinning")
    return record


# ---------------------------------------------------------------------------
# measurement


def measure_setup(spawns=SETUP_SPAWNS):
    """Median wall time of a fresh interpreter that imports the CLI and loads the data.

    One untimed spawn first writes the bytecode cache, which an installed
    package would already have.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(spawns + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up spawn failed: {proc.stderr.strip()[-500:]}")
        if i:
            times.append(elapsed)
    return statistics.median(times), len(times)


def run_task(cli, argv):
    """One timed in-process CLI call: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # noqa: BLE001 - an escaped exception is a failed task
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def problems_of(task, code, stdout, stderr):
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    return oracle.check(task, stdout)


def record_inputs(task, workdir):
    """The drawn inputs of a task: argv, plus a digest of any input file."""
    entry = {"index": task["index"], "argv": []}
    for arg in task["argv"]:
        if arg.startswith(workdir):
            with open(arg, "rb") as handle:
                entry["input_sha256"] = hashlib.sha256(handle.read()).hexdigest()[:16]
            arg = os.path.basename(arg)
        entry["argv"].append(arg)
    if "truth" in task:
        entry["truth"] = task["truth"]
    return entry


def closed_loop(generator, cycle, seconds, step):
    """Run whole cycles of tasks; ``step(task)`` runs one and returns its record."""
    records = []
    start = perf_counter()
    index = 0
    while True:
        for _ in range(cycle):
            records.append(step(generator.task(index)))
            index += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / (index // cycle) > seconds:
            return records, elapsed


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(cli, generator, cycle, seconds, workdir):
    setup_s, spawns = measure_setup()
    failures = []

    def step(task):
        code, elapsed, stdout, stderr = run_task(cli, task["argv"])
        problems = problems_of(task, code, stdout, stderr)
        if problems:
            failures.append((task["index"], task["command"], problems[:3]))
        return {"seconds": elapsed, "inputs": record_inputs(task, workdir)}

    records, wall = closed_loop(generator, cycle, seconds, step)
    latencies = [r["seconds"] for r in records]
    n = len(latencies)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s", f"median of {spawns} spawns"),
        "tasks_per_s": (n / sum(latencies), "1/s", f"{n} tasks"),
        "task_p50_ms": (1e3 * statistics.median(latencies), "ms", f"{n} tasks"),
        "task_tail_ms": (
            1e3 * tail_s, "ms", f"p{tail_pct:.1f}, {n} tasks, {min(TAIL_BEYOND, n - 1)} beyond",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "worker process",
        ),
    }
    table = {
        "failed_frac": (len(failures) / n, "ratio", f"{len(failures)} of {n} tasks"),
    }
    return records, failures, metrics, table, wall


def traced_run(cli, generator, cycle, seconds, workdir):
    trace = tracer.Tracer()
    failures = []
    tasks = {}

    def step(task):
        index = task["index"]
        traced_first = index % 2 == 1
        results = {}
        for traced in ((True, False) if traced_first else (False, True)):
            if traced:
                trace.task = index
                trace.install()
            try:
                results[traced] = run_task(cli, task["argv"])
            finally:
                if traced:
                    trace.uninstall()
                    trace.task = None
        problems = []
        for traced, (code, _, stdout, stderr) in results.items():
            problems += problems_of(task, code, stdout, stderr)
        if results[True][2] != results[False][2]:
            problems.append("traced and untraced stdout differ")
        if problems:
            failures.append((index, task["command"], problems[:3]))
        fits = oracle.fit_count(task)
        tasks[index] = {
            "command": task["command"],
            "traced_s": results[True][1],
            "untraced_s": results[False][1],
            "output_bytes": len(results[False][2].encode()),
            "fits": fits,
            "fits_ok": oracle.fits_ok(task, results[True][2]) if fits else 0,
        }
        return {"seconds": results[False][1], "inputs": record_inputs(task, workdir)}

    records, wall = closed_loop(generator, cycle, seconds, step)
    layer = tracer.layer_metrics(trace.spans, tasks)
    metrics = {
        name: (value, tracer.unit_of(name), JACOBI_REFERENCE.get(name, ""))
        for name, value in layer.items()
    }
    table = {
        "failed_frac": (len(failures) / len(records), "ratio", f"{len(failures)} of {len(records)} tasks"),
        "spans": (len(trace.spans), "count", f"{len(trace.wrapped_names)} bindings wrapped"),
    }
    return records, failures, metrics, table, wall


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Import the CLI from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "rabispec", "cli.py")):
        raise BenchmarkError(f"no rabispec sources under {SRC}")
    sys.path.insert(0, SRC)
    import rabispec.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported rabispec from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = load_program()
        env = environment()
    except BenchmarkError as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(SRC, "rabispec", "data", "circuit_sets.csv"), encoding="utf-8") as handle:
        circuit_sets = handle.read()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        generator = workloads.Generator(args.workload, args.seed, workdir, circuit_sets)
        cycle = len(workloads.CYCLES[args.workload])
        run = traced_run if args.trace else untraced_run
        records, failures, metrics, table, wall = run(
            cli, generator, cycle, args.seconds, workdir
        )
    except BenchmarkError as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    for index, command, problems in failures[:10]:
        print(f"task {index} ({command}) failed: {'; '.join(problems)}", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("inputs: " + json.dumps([r["inputs"] for r in records], separators=(",", ":")))
    kind = "traced, per layer" if args.trace else "untraced, end to end"
    print(
        f"workload {args.workload}  seed {args.seed}  {kind}  {len(records)} tasks "
        f"in {len(records) // cycle} cycles of {cycle}, {wall:.1f} s"
    )
    for name, (value, unit, note) in {**metrics, **table}.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
