"""Run one dsnlift benchmark workload and print its metrics.

From the root of a checkout:

    python3 benchmark/run.py --workload diamond-pipeline --seed 1 --seconds 40 --trace 0

Load model: one process, a closed loop, one operation in flight; there are
no queues, so no waiting time exists to report.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is a separate run that traces every other
op (starting with op 0) and reports the per-layer metrics, the self-time
table and the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
environment, every op and (when traced) every span are also written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.

``--record-reference`` runs op 0 of a workload once and stores its outputs
in ``benchmark/reference.json``; do that only to re-baseline on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_OPS = 2

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("channel", "network", "codes", "typicality", "lifting", "gaussian", "pipeline")
PER_LAYER_UNITS = {
    "typicality.busy_s": "s",
    "typicality.vectors_scanned": "count",
    "typicality.vectors_per_s": "1/s",
    "typicality.kept_ratio": "ratio",
    "typicality.strong_checks": "count",
    "lifting.prune.busy_s": "s",
    "lifting.lift.busy_s": "s",
    "lifting.codewords_scanned": "count",
    "lifting.codewords_per_s": "1/s",
    "lifting.strong_checks": "count",
    "lifting.pruned_ratio": "ratio",
    "lifting.survivor_ratio": "ratio",
    "lifting.survivors": "count",
    "gaussian.simulate.busy_s": "s",
    "gaussian.decode_ops": "count",
    "gaussian.decode_ops_per_s": "1/s",
    "gaussian.block_error_ratio": "ratio",
    "gaussian.decode_failure_ratio": "ratio",
    "gaussian.bounds.busy_s": "s",
    "gaussian.bootstrap.busy_s": "s",
    "channel.decompose_batch.busy_s": "s",
    "channel.decompose_batch.samples_per_s": "1/s",
    "codes.busy_s": "s",
    "codes.run_dsn.calls": "count",
    "codes.trace_all.calls": "count",
    "codes.messages_per_s": "1/s",
    "network.busy_s": "s",
    "pipeline.self_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    **{f"setup.{layer}.busy_s": "s" for layer in LAYERS},
}


def limit_blas_threads() -> None:
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def import_seconds(repeats: int = IMPORT_REPEATS) -> float:
    """Median time to import dsnlift, each time in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        "import dsnlift, dsnlift.cli; print(time.perf_counter() - t0)"
    )
    times = [
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(times)


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted(p for p in (SRC / "dsnlift").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in files if p.suffix == ".py"),
        "workload_seed": seed,
    }


@dataclass
class OpRecord:
    index: int
    seconds: float
    traced: bool
    problems: list[str]
    info: dict


def run_op(wl, index: int, tracer) -> OpRecord:
    """Prepare, time and check one op; an error is a failed op, never an abort."""
    seconds = 0.0
    try:
        params = wl.prepare(index)
        with tracer.recording(index) if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                output = wl.run(params)
            finally:
                seconds = time.perf_counter() - t0
        outcome = wl.check(index, params, output)
        problems, info = outcome.problems, outcome.info
    except Exception as exc:  # an op that raises is counted as failed
        traceback.print_exc()
        problems, info = [f"{type(exc).__name__}: {exc}"], {}
    return OpRecord(index, seconds, tracer is not None, problems, info)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, ops: list[OpRecord]) -> dict[str, float]:
    traced = [o for o in ops if o.traced]
    plain = [o for o in ops if not o.traced]
    ids = [o.index for o in traced]
    n = len(ids)
    rows = tracer.self_times(ids)
    counts = tracer.op_counts(ids)
    setup_rows = tracer.self_times(["setup"])

    def fn(name: str, key: str = "self_s", table=rows, per: int = n) -> float:
        return table.get(name, {}).get(key, 0.0) / per

    def layer(name: str, table=rows, per: int = n) -> float:
        return sum(r["self_s"] for k, r in table.items() if k.split(".")[0] == name) / per

    def count(key: str) -> float:
        return counts.get(key, 0) / n

    m = {
        "typicality.busy_s": layer("typicality"),
        "typicality.vectors_scanned": count("typicality.strong_checks"),
        "typicality.strong_checks": count("typicality.strong_checks"),
        "typicality.kept_ratio": _ratio(counts["typicality.vectors_kept"], counts["typicality.strong_checks"]),
        "lifting.prune.busy_s": fn("lifting.prune_sets"),
        "lifting.lift.busy_s": fn("lifting.build_lifted_code"),
        "lifting.codewords_scanned": count("lifting.codewords_scanned"),
        "lifting.strong_checks": count("lifting.strong_checks"),
        "lifting.pruned_ratio": _ratio(counts["lifting.pruned_vectors"], counts["lifting.typical_vectors"]),
        "lifting.survivor_ratio": _ratio(counts["lifting.survivors"], counts["lifting.codewords_scanned"]),
        "lifting.survivors": count("lifting.survivors"),
        "gaussian.simulate.busy_s": fn("gaussian.simulate_lifted"),
        "gaussian.decode_ops": count("gaussian.decode_ops"),
        "gaussian.block_error_ratio": _ratio(counts["gaussian.block_errors"], counts["gaussian.slot_decodes"]),
        "gaussian.decode_failure_ratio": _ratio(counts["gaussian.decode_failures"], counts["gaussian.slot_decodes"]),
        "gaussian.bounds.busy_s": fn("gaussian.verify_genie_bounds"),
        "gaussian.bootstrap.busy_s": fn("gaussian.bootstrap_entropy_ci", "total_s"),
        "channel.decompose_batch.busy_s": fn("channel.decompose_batch"),
        "codes.busy_s": layer("codes"),
        "codes.run_dsn.calls": fn("codes.run_dsn", "calls"),
        "codes.trace_all.calls": fn("codes.trace_all", "calls"),
        "network.busy_s": layer("network"),
        "pipeline.self_s": layer("pipeline"),
        "pipeline.artifact_bytes": sum(o.info.get("artifact_bytes", 0) for o in traced) / n,
        "trace.overhead_ratio": _ratio(
            statistics.median(o.seconds for o in traced), statistics.median(o.seconds for o in plain)
        ),
    }
    m["typicality.vectors_per_s"] = _ratio(m["typicality.vectors_scanned"], m["typicality.busy_s"])
    m["lifting.codewords_per_s"] = _ratio(m["lifting.codewords_scanned"], m["lifting.lift.busy_s"])
    m["gaussian.decode_ops_per_s"] = _ratio(m["gaussian.decode_ops"], m["gaussian.simulate.busy_s"])
    m["channel.decompose_batch.samples_per_s"] = _ratio(
        count("channel.decompose_batch.samples"), m["channel.decompose_batch.busy_s"]
    )
    m["codes.messages_per_s"] = _ratio(m["codes.run_dsn.calls"], m["codes.busy_s"])
    for name in LAYERS:
        m[f"setup.{name}.busy_s"] = layer(name, setup_rows, 1)
    return {k: m[k] for k in PER_LAYER_UNITS}


def print_self_times(title: str, rows: dict, per: int, op_seconds: float) -> None:
    print(f"\n{title}")
    print(f"  {'function':<44}{'calls':>10}{'self s':>11}{'total s':>11}{'self %':>8}")
    layer_self: dict[str, float] = {}
    for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        layer_self[name.split(".")[0]] = layer_self.get(name.split(".")[0], 0.0) + r["self_s"] / per
        print(f"  {name:<44}{r['calls'] / per:>10.1f}{r['self_s'] / per:>11.4f}"
              f"{r['total_s'] / per:>11.4f}{100 * _ratio(r['self_s'] / per, op_seconds):>7.1f}%")
    covered = sum(layer_self.values())
    print(f"  {'(benchmark and untraced code)':<44}{'':>10}{op_seconds - covered:>11.4f}")
    print("  per layer: " + ", ".join(
        f"{k} {v:.4f} s" for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1])))


def run_workload(wl, seconds: float, trace: bool, import_s: float, package) -> dict:
    """Set up, run ops for ``seconds`` (at least MIN_OPS), check, and summarise."""
    import tracing

    tracer = tracing.Tracer(package) if trace else None
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        with tracer.recording("setup") if trace else nullcontext():
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

    ops: list[OpRecord] = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        index = len(ops)
        op = run_op(wl, index, tracer if trace and index % 2 == 0 else None)
        ops.append(op)
        status = "ok" if not op.problems else "FAILED: " + "; ".join(op.problems[:3])
        tag = " ref" if index == 0 else ""
        print(f"op {index:>3}{tag:<4} {'traced' if op.traced else 'plain ':<7}{op.seconds:>9.4f} s  {status}")
    try:
        closing = wl.finish([o.info for o in ops if not o.problems])
    except Exception as exc:  # a run-level check that raises is a failed check
        traceback.print_exc()
        closing = [f"{type(exc).__name__}: {exc}"]
    if closing:
        ops[-1].problems.extend(closing)
        print("run check FAILED (counted on the last op): " + "; ".join(closing))

    failed = sum(1 for o in ops if o.problems)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    plain = [o for o in ops if not o.traced]
    good = [o for o in plain if not o.problems]
    setup_s = import_s + statistics.median(setup_times)
    workload_metrics = [
        ("setup_s", setup_s, "s"),
        ("op_s", statistics.median(o.seconds for o in plain), "s"),
        ("peak_rss_mb", rss_mb, "MB"),
        *(wl.report([o.seconds for o in good], [o.info for o in good]) if good else []),
        ("failed_ops_ratio", failed / len(ops), "ratio"),
    ]
    print(f"\n{'metric':<24}{'value':>16}  unit  (untraced ops: {len(plain)}, failed {failed}/{len(ops)})")
    for name, value, unit in workload_metrics:
        print(f"{name:<24}{value:>16.6g}  {unit}")
    print("waiting time: none to report (closed loop, one op in flight, no queues)")

    if trace:
        metrics = per_layer_metrics(tracer, ops)
        traced_ids = [o.index for o in ops if o.traced]
        traced_s = statistics.mean(o.seconds for o in ops if o.traced)
        print_self_times(f"self time per traced op ({len(traced_ids)} ops)",
                         tracer.self_times(traced_ids), len(traced_ids), traced_s)
        print_self_times("self time in set-up", tracer.self_times(["setup"]), 1, setup_times[0])
        print("\ncounts per traced op:")
        for i in traced_ids:
            print(f"  op {i}: " + ", ".join(f"{k}={v:g}" for k, v in sorted(tracer.counts[i].items())))
        print(f"\n{'per-layer metric':<40}{'value':>16}  unit")
        for name, value in metrics.items():
            print(f"{name:<40}{value:>16.6g}  {PER_LAYER_UNITS[name]}")
        units = PER_LAYER_UNITS
    else:
        metrics = {name: value for name, value, _ in workload_metrics if name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "workload_metrics": {n: {"value": v, "unit": u} for n, v, u in workload_metrics},
        "setup_seconds": setup_times,
        "ops": [o.__dict__ for o in ops],
        "spans": tracer.span_records() if trace else None,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="run op 0 once and store its outputs in reference.json")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    if not (SRC / "dsnlift" / "__init__.py").is_file():
        print(f"error: no dsnlift sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dsnlift
    import dsnlift.cli  # noqa: F401

    if Path(dsnlift.__file__).resolve().parent != (SRC / "dsnlift").resolve():
        print(f"error: imported dsnlift from {dsnlift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    scratch = OUT_DIR / "tmp"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, references.get(args.workload), scratch)
    try:
        if args.record_reference:
            wl.setup()
            params = wl.prepare(0)
            output = wl.run(params)
            references[wl.name] = wl.record_reference(params, output)
            wl.check(0, params, output)
            REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
            print(json.dumps(references[wl.name]))
            return 0
        env = environment(args.seed)
        print(f"dsnlift benchmark: workload={wl.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("env: " + json.dumps(env, sort_keys=True))
        summary = run_workload(wl, args.seconds, bool(args.trace), import_seconds(), dsnlift)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {"args": vars(args), "env": env, **summary}
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
