"""Benchmark of ncsurface, end to end and per layer.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from a checkout: it imports ncsurface from the checkout's ``src/`` and
refuses to run without it.  One single-process caller drives the package in a
closed loop (the next operation starts when the previous one returns): first
the workload's once-per-run items, then a fixed number of passes of its
operation sequence, each drawing fresh inputs from the seeded stream (a
workload may leave its costliest items out of some passes).  The pass count is
``--seconds`` over the workload's nominal pass time on the reference host (2
cores of an x86-64 server), at least three; it is fixed so that every run of a
workload attempts the same operations and fails the same ones.  Every result
is checked by an oracle outside the timed region.  BLAS runs on one thread;
the run refuses to start if it is asked for more, or if a loaded OpenBLAS
reports more.

``--trace 0`` reports the end-to-end metrics over every operation of the run.
ops_per_s is their count over the sum of their latencies, latency_p50_ms the
median latency and latency_tail_ms the 99th percentile, or the highest
percentile with ten samples beyond it where that is lower.  setup_s is the
median over fresh interpreters, started between the passes, that import
ncsurface and make one call of each operation kind; peak_rss_mb is the peak
resident memory of this process.

``--trace 1`` runs the once-per-run items traced, then alternates untraced
passes with passes that record spans around every layer's public functions.
It reports per-layer self times, call counts and failures per traced pass (the
once-per-run items are spread over them), the import breakdown from ``python
-X importtime`` and the tracing overhead.  Spans are written to ``.bench_out/``.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  ``failed`` counts operations that raised or failed their oracle;
``correct`` is false when a failure is not one of the defects named in
oracles.py (ROADMAP item 4).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
IMPORT_PROBES = 3
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cli", "large_n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas() -> None:
    for var in BLAS_VARS:
        value = os.environ.get(var)
        if value not in (None, "1"):
            sys.exit(f"error: {var}={value}; the benchmark is the single-threaded "
                     "baseline, unset it or set it to 1")
        os.environ[var] = "1"


def openblas_libraries() -> list[dict]:
    """Thread count and configuration of every OpenBLAS loaded in-process."""
    import ctypes

    paths = sorted({line.split()[-1] for line in open("/proc/self/maps")
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found.append(info)
    return found


def environment(args) -> dict:
    import numpy
    import scipy
    import sympy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor() or "unknown")
    blas = openblas_libraries()
    for lib in blas:
        if lib.get("threads", 1) != 1:
            sys.exit(f"error: {lib['library']} runs {lib['threads']} threads, expected 1")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "openblas": blas, "blas_threads_checked": any("threads" in lib for lib in blas),
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


class Record:
    """Latencies, failures and input properties of the operations run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.pass_busy: list[float] = []
        self.pass_ops: list[int] = []
        self.failures: list[tuple[str, object]] = []
        self.oracle_failed: Counter = Counter()   # failed without raising, by layer
        self.verdicts: list[tuple[str, str | None]] = []
        self.large = 0
        self.density: list[float] = []

    def add(self, op, seconds: float, failure, raised: bool) -> None:
        self.latencies.append(seconds)
        self.verdicts.append((op.kind, failure and failure.reason))
        if failure is not None:
            self.failures.append((op.kind, failure))
            if not raised:
                self.oracle_failed[op.layer] += 1
        self.large += op.n >= 512
        if op.n:
            self.density.append(op.nnz / op.n ** 2)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_item(item, record: Record, tracer=None, check: bool = True) -> None:
    """Run the operations of one item; an operation that raises ends the item."""
    gen = item()
    try:
        op = next(gen)
        while True:
            if tracer is not None:
                tracer.op_id += 1
                tracer.active = True
            start = time.perf_counter()
            try:
                outcome = op.call()
            except Exception as exc:          # a failed operation, recorded below
                outcome = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            failure = judge(op, outcome) if check else None
            raised = isinstance(outcome, Exception)
            record.add(op, elapsed, failure, raised)
            if raised:
                gen.close()
                return
            op = gen.send(outcome)
    except StopIteration:
        pass


def judge(op, outcome):
    import oracles

    try:
        return op.check(outcome)
    except Exception as exc:                  # an oracle that cannot read the result
        return oracles.Failure(f"oracle raised {type(exc).__name__}: {exc}")


def run_items(items, record: Record, tracer=None) -> None:
    for item in items:
        run_item(item, record, tracer)


def run_pass(workload, record: Record, tracer=None) -> None:
    before, ops = record.busy, len(record.latencies)
    run_items(workload.next_pass(len(record.pass_busy)), record, tracer)
    record.pass_busy.append(record.busy - before)
    record.pass_ops.append(len(record.latencies) - ops)


def pass_count(workload, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / workload.pass_seconds))


def measure(workload, passes: int, setup_probe) -> tuple[Record, list[float]]:
    """The once-per-run items, then ``passes`` passes; the SETUP_PROBES set-up
    probes are spread between the passes, so they sample the machine over the
    whole run rather than one moment."""
    record, setup = Record(), []
    run_items(workload.once, record)
    for done in range(1, passes + 1):
        run_pass(workload, record)
        while len(setup) < SETUP_PROBES * done / passes:
            setup.append(setup_probe(len(setup)))
    return record, setup


def probe_setup(args, tmp: Path) -> None:
    """Fresh-interpreter set-up: import plus one call of each operation kind."""
    tmp.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    import ncsurface  # noqa: F401
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    for item in workload.warmup:
        run_item(item, Record(), check=False)
    print(repr(time.perf_counter() - start))


def probe(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)


def setup_seconds(args, tmp: Path, i: int) -> float:
    out = probe([sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--tmp", str(tmp / f"probe{i}")]).stdout
    return float(out.strip().splitlines()[-1])


def parse_importtime(text: str) -> dict[str, float]:
    """ncsurface's cumulative import time and the part spent in sympy and scipy."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(cumulative) * 1e-6))
    out = {"total": 0.0, "sympy": 0.0, "scipy": 0.0}
    open_parents: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):     # parents come first
        while open_parents and open_parents[-1][0] >= depth:
            open_parents.pop()
        parent = open_parents[-1][1] if open_parents else ""
        root = name.split(".")[0]
        if name == "ncsurface":
            out["total"] = cumulative
        elif root in ("sympy", "scipy") and parent.split(".")[0] != root:
            out[root] += cumulative
        open_parents.append((depth, name))
    return out


def import_seconds() -> dict[str, float]:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ncsurface"
    runs = [parse_importtime(probe([sys.executable, "-X", "importtime", "-c", code]).stderr)
            for _ in range(IMPORT_PROBES)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the 99th percentile, or of the highest percentile
    with TAIL_BEYOND samples beyond it where that is lower.  Above p99 the
    value is set by the few costliest parameter draws and by the machine's
    stalls, not by the program."""
    ordered = sorted(latencies_ms)
    m = len(ordered)
    beyond = max(TAIL_BEYOND, m // 100)
    if m <= beyond:
        return ordered[-1], 100.0
    return ordered[m - beyond - 1], 100.0 * (m - beyond) / m


def verdict(records: list[Record]) -> tuple[bool, int, int, list]:
    failures = [f for r in records for f in r.failures]
    attempted = sum(len(r.latencies) for r in records)
    correct = all(failure.known for _, failure in failures)
    return correct, attempted, len(failures), failures


def report_failures(failures) -> None:
    known = Counter(f.known for _, f in failures if f.known)
    for kind, failure in failures[:5]:
        note = f" [{failure.known}]" if failure.known else ""
        print(f"  failed {kind}: {failure.reason}{note}")
    for name, count in known.items():
        print(f"  known defect, {count} operations: {name}")


def run(args, tmp: Path) -> dict:
    import ncsurface

    if SRC.resolve() not in Path(ncsurface.__file__).resolve().parents:
        sys.exit(f"error: imported ncsurface from {ncsurface.__file__}, not from {SRC}")
    env = environment(args)
    print(json.dumps({"environment": env}))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    warm = Record()
    for item in workload.warmup:
        run_item(item, warm)
    # Move the heap built by the imports and the warm-up out of the collector's
    # reach, as a long-running process would: otherwise each full collection
    # rescans sympy's object graph, a pause of about 60 ms that lands on a
    # random operation once every few hundred and decides latency_tail_ms.
    gc.collect()
    gc.freeze()

    if args.trace:
        return traced_run(args, workload)
    passes = pass_count(workload, args.seconds)
    rec, setup = measure(workload, passes, partial(setup_seconds, args, tmp))
    lat_ms = [s * 1e3 for s in rec.latencies]
    tail_ms, tail_pct = tail(lat_ms)
    correct, attempted, failed, failures = verdict([rec])
    metrics = {
        "ops_per_s": (len(lat_ms) / rec.busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{args.workload} seed {args.seed}: {len(rec.pass_busy)} passes, {attempted} "
          f"operations, {rec.busy:.2f} s timed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:12.6g} {unit}")
    print(f"  {'failed_ratio':16s} {failed / attempted:12.6g} ratio ({failed} of {attempted})")
    print(f"  latencies are over every operation run; latency_tail_ms "
          f"is p{tail_pct:.2f} of {len(lat_ms)} samples; setup_s samples "
          f"{[round(s, 4) for s in setup]}")
    print(f"  shares: N>=512 {rec.large / attempted:.3f}, mean nnz/N^2 "
          f"{statistics.fmean(rec.density) if rec.density else 0.0:.4g}")
    report_failures(failures)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_run(args, workload) -> dict:
    import spans

    imports = import_seconds()
    once, base, traced = Record(), Record(), Record()
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_items(workload.once, once, tracer)
        # alternate passes, so drift as caches warm falls on both sides
        for _ in range(max(1, pass_count(workload, args.seconds) // 2)):
            run_pass(workload, base)
            run_pass(workload, traced, tracer)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")

    metrics = {f"import.{k}_s": (v, "s") for k, v in imports.items()}
    metrics.update(tracer.layer_metrics(len(traced.pass_busy),
                                        traced.oracle_failed + once.oracle_failed))
    per_op = [r.busy / len(r.latencies) for r in (base, traced)]
    metrics["trace.overhead_pct"] = (100 * (per_op[1] - per_op[0]) / per_op[0], "%")
    correct, attempted, failed, failures = verdict([once, base, traced])
    print(f"{args.workload} seed {args.seed}: traced {len(traced.pass_busy)} passes, "
          f"{len(tracer.spans)} spans; untraced {len(base.pass_busy)} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:56s} {value:12.6g} {unit}")
    first = min(base.pass_ops[0], traced.pass_ops[0])
    if base.verdicts[:first] != traced.verdicts[:first]:
        print("  warning: traced and untraced verdicts of the first pass differ")
    report_failures(failures)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> None:
    args = parse_args(argv)
    if not (SRC / "ncsurface" / "__init__.py").is_file():
        sys.exit(f"error: no ncsurface sources under {SRC}")
    pin_blas()
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args, Path(args.tmp))
        return
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
