#!/usr/bin/env python3
"""fogforge benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports fogforge from ``src/`` of the same
checkout. Workloads (see ``workloads.py``): ``train-desk``, ``infer-large`` and
``solvers``. Every input is generated from ``--seed``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``op_s``: median wall seconds per unit of work (one training episode, one
  greedy placement, one oracle + NSGA-II + GA solver round);
* ``setup_s``: median wall seconds, over several fresh processes, from process
  start to inputs ready (interpreter, imports, scenario generation, model);
* ``peak_rss_mib``: the measuring process's peak resident set size.

``--trace 1`` reports per-layer busy/self seconds, calls and counters per unit
of work from a traced process, plus the tracing overhead measured against an
untraced process in the same run.

Each measurement runs in its own child process with one BLAS thread. Output
checks run after every operation, outside the timed region; an operation that
raises, fails a check, or differs from the first operation counts as failed.
Lines before the last describe the run; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record is
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("train-desk", "infer-large", "solvers")
# set-up processes run half before and half after the measurement, so that
# set-up time samples the same stretch of machine time as the operations
SETUP_REPEATS = 8
MIN_OPS = 3
TRACE_MIN_OPS = 2
RUN_DEADLINE_S = 170.0
# one BLAS thread for every measuring process: with the default of two a
# greedy placement at 81 x 1,001 ranged over 15% between runs on a 2-core machine
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# --- child side -----------------------------------------------------------------

def _import_workloads():
    sys.path.insert(0, str(SRC))
    import fogforge

    if not Path(fogforge.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported fogforge from {fogforge.__file__}, not from {SRC}")
    from workloads import WORKLOADS as table

    return table


def _blas_info() -> dict:
    import ctypes

    import numpy

    info: dict = {"numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line})
    except OSError:  # no procfs: the thread count stays unknown
        libs = []
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def child_setup(workload: str, seed: int) -> None:
    _import_workloads()[workload].setup(seed)


def child_measure(workload: str, seed: int, seconds: float, traced: bool, min_ops: int) -> dict:
    """Run operations back to back for ``seconds``; return samples and checks."""
    table = _import_workloads()
    from layertrace import EXACT_COUNTS, Tracer

    wl = table[workload]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    state = wl.setup(seed)
    wl.warmup(state)

    samples: list[float] = []
    named: dict[str, list[float]] = defaultdict(list)
    problems: list[str] = []
    ok_ops: list[int] = []
    attempted = failed = 0
    reference = None  # (signature, quality, counts) of the first completed operation
    last_wall = 0.0
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start + last_wall <= seconds:
        attempted += 1
        op = attempted
        if tracer is not None:
            tracer.begin_op(op)
        began = time.perf_counter()
        try:
            output, timings = wl.execute(state)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            last_wall = time.perf_counter() - began
            traceback.print_exc()
            failed += 1
            problems.append(f"op {op}: {exc!r}")
            continue
        finally:
            if tracer is not None:
                tracer.end_op()
        last_wall = time.perf_counter() - began

        issues, op_quality, signature = wl.check(state, output)
        counts = None
        if tracer is not None:
            op_counts = tracer.op_counts(op)
            counts = {name: op_counts.get(name, 0) for name in EXACT_COUNTS}
        if reference is None:
            reference = (signature, op_quality, counts)
        elif (signature, op_quality) != reference[:2]:
            issues.append("output differs from the first operation's")
        elif counts != reference[2]:
            issues.append(f"exact counts {counts} differ from the first operation's {reference[2]}")
        if issues:
            failed += 1
            problems.extend(f"op {op}: {issue}" for issue in issues)
            continue
        ok_ops.append(op)
        samples.append(last_wall / wl.units_per_op)
        for name, value in timings.items():
            named[name].append(value)

    record = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "samples": samples,
        "named": dict(named),
        "quality": reference[1] if reference else {},
        "units_per_op": wl.units_per_op,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            **_blas_info(),
            **{k: os.environ.get(k) for k in CHILD_ENV},
        },
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics(ok_ops, wl.units_per_op) if ok_ops else None
        record["exact_counts"] = reference[2] if reference else None
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{workload}-seed{seed}-spans.jsonl.gz"
        record["spans"] = {"count": tracer.write_spans(spans_path), "file": str(spans_path.relative_to(ROOT))}
    return record


# --- parent side ----------------------------------------------------------------

def _run_child(args: list[str], deadline: float) -> tuple[str, float]:
    """Run this script as a child; return its stdout and wall seconds."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed before a child could start")
    env = {**os.environ, **CHILD_ENV}
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} exceeded the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - began
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with code {proc.returncode}")
    return out, wall


def _measure(workload: str, seed: int, seconds: float, traced: bool, min_ops: int, deadline: float) -> dict:
    out, _ = _run_child(
        ["measure", workload, str(seed), repr(seconds), str(int(traced)), str(min_ops)], deadline
    )
    record = json.loads(out.strip().splitlines()[-1])
    if not record["samples"]:
        raise BenchError(f"every {workload} operation failed: {record['problems'][:3]}")
    return record


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile that has at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None, "high": None}
    if n >= 11:
        k = n - 11
        out["high"] = {"percentile": round(100.0 * (k + 1) / n, 1), "value": ordered[k]}
    return out


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():  # never report an enclosing repository's commit
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _host() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    record: dict = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": _host(),
        "loadavg_start": os.getloadavg(),
    }
    if not trace:
        def setup_wall() -> float:
            return _run_child(["setup", workload, str(seed)], deadline)[1]

        setup_walls = [setup_wall() for _ in range(SETUP_REPEATS // 2)]
        measured = _measure(workload, seed, seconds, False, MIN_OPS, deadline)
        setup_walls += [setup_wall() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        children = [measured]
        record["setup_s"] = summarize(setup_walls) | {"samples": setup_walls}
        metrics = {
            "op_s": (statistics.median(measured["samples"]), "s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mib": (measured["peak_rss_mib"], "MiB"),
        }
    else:
        plain = _measure(workload, seed, seconds / 3.0, False, 1, deadline)
        traced = _measure(workload, seed, seconds * 2.0 / 3.0, True, TRACE_MIN_OPS, deadline)
        children = [plain, traced]
        overhead = {"op_s": statistics.median(traced["samples"]) - statistics.median(plain["samples"])}
        for name, values in traced["named"].items():
            overhead[name] = statistics.median(values) - statistics.median(plain["named"][name])
        overhead["peak_rss_mib"] = traced["peak_rss_mib"] - plain["peak_rss_mib"]
        record["tracing_overhead"] = overhead
        record["untraced"] = plain
        metrics = {name: tuple(entry) for name, entry in traced["layers"].items()}
        metrics["tracing.overhead.op_s"] = (overhead["op_s"], "s")
        metrics["tracing.overhead.peak_rss_mib"] = (overhead["peak_rss_mib"], "MiB")
        measured = traced

    record["loadavg_end"] = os.getloadavg()
    record["env"] = measured["env"]
    record["timings"] = {name: summarize(values) for name, values in measured["named"].items()}
    record["op_s"] = summarize(measured["samples"])
    record["quality"] = measured["quality"]
    record["exact_counts"] = measured.get("exact_counts")
    record["spans"] = measured.get("spans")
    record["problems"] = [p for child in children for p in child["problems"]]
    record["attempted"] = sum(child["attempted"] for child in children)
    record["failed"] = sum(child["failed"] for child in children)
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return record


def report(record: dict) -> None:
    """Human-readable lines that precede the result line."""
    host, env = record["host"], record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  trace {record['trace']}")
    print(
        f"commit {host['commit'] or 'n/a'}  src {host['src_sha256'][:16]}  python {env['python']}  "
        f"numpy {env['numpy']}  blas {env['blas']} threads {env['blas_threads']}  "
        f"cpus {host['cpu_count']} (affinity {host['affinity']})  "
        f"load {record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}"
    )
    timed = [("op_s", record["op_s"]), *record["timings"].items()]
    if "setup_s" in record:
        timed.append(("setup_s", record["setup_s"]))
    for name, stats in timed:
        high = stats["high"]
        tail = f"  p{high['percentile']} {high['value']:.6g}" if high else ""
        print(f"  {name:<28} median {stats['median']:.6g}  n {stats['n']}{tail}")
    for name, value in record["quality"].items():
        print(f"  {name:<28} {value!r}")
    if record.get("exact_counts"):
        print("  exact counts per operation: " + ", ".join(f"{k} {v}" for k, v in record["exact_counts"].items()))
    for name, value in record.get("tracing_overhead", {}).items():
        print(f"  tracing overhead {name:<28} {value:+.6g}")
    if record["trace"]:
        busy = sorted(
            ((k[: -len(".busy_s")], v["value"]) for k, v in record["metrics"].items() if k.endswith(".busy_s")),
            key=lambda item: -item[1],
        )
        for layer, value in busy:
            if value > 0:
                self_s = record["metrics"][f"{layer}.self_s"]["value"]
                calls = record["metrics"][f"{layer}.calls"]["value"]
                print(f"  {layer:<40} busy {value:.6g} s  self {self_s:.6g} s  calls {calls:g}")
    print(f"  operations attempted {record['attempted']}  failed {record['failed']}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        mode, workload, seed = argv[1], argv[2], int(argv[3])
        if mode == "setup":
            child_setup(workload, seed)
        else:
            seconds, traced, min_ops = float(argv[4]), argv[5] == "1", int(argv[6])
            print(json.dumps(child_measure(workload, seed, seconds, traced, min_ops)))
        return 0

    parser = argparse.ArgumentParser(description="fogforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fogforge" / "__init__.py").is_file():
        print(f"error: fogforge sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))
    report(record)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
