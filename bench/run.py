"""Benchmark of the eee command line on a fixed ladder of game sizes.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25     # every workload, plain and traced
    python3 bench/run.py --record-golden                 # rewrite bench/golden.json

One run is one process and one workload. It times set-up (interpreter start,
`import eee`, writing the generated inputs) in SETUP_SAMPLES fresh
processes, then repeats passes over the workload's op list until --seconds
is up. Every op calls `eee.cli.main` in-process with a fresh --out directory
and its output is checked. The last line of stdout is one JSON object with
the metrics BENCHMARK.json names: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. A traced run alternates plain and traced
passes so that it can also report the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
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
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
GOLDEN_PASSES = 8
SETUP_SAMPLES = 5
# one BLAS thread: the pipeline is single-threaded Python around small dense
# kernels, and one thread keeps timings steady on a shared machine
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter
MMAP_THRESHOLD = 256 * 1024


def _pin_blas() -> int:
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for key in BLAS_ENV:
        os.environ[key] = str(threads)
    return threads


def _glibc():
    return ctypes.CDLL("libc.so.6") if platform.libc_ver()[0] == "glibc" else None


def _fix_mmap_threshold() -> None:
    """Serve every allocation of MMAP_THRESHOLD bytes or more by mmap.

    glibc raises its mmap threshold after large frees, so whether a large
    array lands in the heap, where freed memory may stay resident, would
    depend on allocation history.
    """
    libc = _glibc()
    if libc is not None:
        libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def _release_free_memory() -> None:
    """Free what the op left behind, as the end of a CLI process would.

    Without it, garbage an op leaves in reference cycles, and heap memory it
    freed but that stays resident, add to the next op's peak RSS by an
    amount that depends on collection timing and heap fragmentation.
    """
    gc.collect()
    libc = _glibc()
    if libc is not None:
        libc.malloc_trim(0)


def _import_program(root: Path):
    """Import eee from root/src, never from an installed copy."""
    src = root / "src"
    if not (src / "eee" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'eee'} not found; run from the repository root")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import eee

    if Path(eee.__file__).resolve().parent != (src / "eee").resolve():
        sys.exit(f"error: imported eee from {eee.__file__}, not from {src}")
    return eee


def _load_spec(root: Path) -> dict:
    try:
        with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read BENCHMARK.json: {exc}")


# ---------------------------------------------------------------------------
# set-up


def _process_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _setup_only(args) -> int:
    """Write the inputs, then print this process's CPU time and speed factor."""
    import speed

    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        _import_program(Path.cwd())
        import workloads

        workloads.write_inputs(args.workload, args.seed, Path(args.setup_only))
    finally:
        sampler.stop()
    print(json.dumps({"cpu": time.process_time() - sampler.snippet_cpu,
                      "factor": sampler.factor()}))
    return 0


def _timed_setups(args, work: Path) -> tuple[Path, list[float], list[float], list[float]]:
    """Set up SETUP_SAMPLES times in fresh processes; keep the first input set.

    Returns the input directory and per set-up its normalized CPU time, its
    CPU time and its wall time.
    """
    norm, cpu, wall = [], [], []
    for k in range(SETUP_SAMPLES):
        target = work / f"setup-{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(target),
               "--workload", args.workload, "--seed", str(args.seed)]
        wall0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        wall.append(time.perf_counter() - wall0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
        done = json.loads(proc.stdout.strip().splitlines()[-1])
        cpu.append(done["cpu"])
        norm.append(done["cpu"] * done["factor"])
        if k:
            shutil.rmtree(target)
    return work / "setup-0", norm, cpu, wall


# ---------------------------------------------------------------------------
# ops


@dataclass(frozen=True)
class OpResult:
    op: object          # workloads.Op
    rc: int | None      # None when the command raised
    wall: float
    cpu: float          # main-thread CPU time, without the speed sampler's
    factor: float       # speed factor while the op ran (speed.py)
    outdir: Path

    @property
    def norm(self) -> float:
        """CPU time at the reference speed."""
        return self.cpu * self.factor


def _call_cli(cli, argv: list[str], tracer) -> int | None:
    """Run one CLI command in-process; None when it raised."""
    import tracing

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if tracer is None:
                return cli.main(argv)
            return tracer.span(tracing.ROOT, cli.main, argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            return None


def _run_pass(cli, ops, outroot: Path, sampler=None, tracer=None) -> list[OpResult]:
    results = []
    for op in ops:
        outdir = outroot / op.op_id.replace("/", "-")
        if tracer is not None:
            tracer.begin_op(op.op_id)
        clock = sampler.cpu if sampler is not None else time.thread_time
        mark = sampler.mark() if sampler is not None else None
        wall0, cpu0 = time.perf_counter(), clock()
        rc = _call_cli(cli, [*op.argv, "--out", str(outdir)], tracer)
        cpu, wall = clock() - cpu0, time.perf_counter() - wall0
        factor = sampler.factor_since(mark) if sampler is not None else 1.0
        results.append(OpResult(op, rc, wall, cpu, factor, outdir))
        _release_free_memory()
    return results


def _failures(cli, result: OpResult, golden: dict | None) -> list[str]:
    import checks

    op = result.op
    if result.rc is None:
        return ["raised an exception"]

    def confirm():
        target = result.outdir.with_name(result.outdir.name + "-confirm")
        argv = list(op.argv)
        argv[argv.index("--seed") + 1] = str(op.sim_seed + 1)
        _call_cli(cli, [*argv, "--out", str(target)], None)
        return target

    return checks.check_op(op, result.rc, result.outdir, (golden or {}).get(op.op_id), confirm)


# ---------------------------------------------------------------------------
# the measured run


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _run_record(args, blas_threads: int, eee) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": blas_threads, "commit": commit,
        "eee_version": eee.__version__,
    }


@dataclass
class Run:
    """What one measured run collected."""

    passes: list            # [(traced, [OpResult])]
    failures: list          # [(op id, [message])]
    out_bytes: int          # output bytes of traced passes
    setup_norm: list[float]
    setup_cpu: list[float]
    setup_wall: list[float]
    speed_factor: float
    speed_samples: int
    other_threads_share: float
    tracer: object          # tracing.Tracer or None


def measure(args, eee, blas_threads: int) -> int:
    root = Path.cwd()
    spec = _load_spec(root)
    run = _execute(args, root)
    metrics = _end_to_end(run)
    if run.tracer is not None:
        metrics.update(_per_layer(run))
        _write_spans(root, args, run.tracer.spans)

    attempted = sum(len(results) for _, results in run.passes)
    failed = len(run.failures)
    record = _run_record(args, blas_threads, eee)
    record.update(passes=len(run.passes), attempted=attempted, failed=failed,
                  ops=[{"op": r.op.op_id, "traced": traced, "rc": r.rc, "wall": r.wall,
                        "cpu": r.cpu, "factor": r.factor}
                       for traced, results in run.passes for r in results],
                  metrics={k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()})
    _write_record(root, args, record)
    print("run " + json.dumps({k: v for k, v in record.items() if k not in ("ops", "metrics")}))
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(f"error_rate = {failed / max(attempted, 1):.6g} ({failed} of {attempted} ops failed)")
    for op_id, msgs in run.failures:
        print(f"FAIL {op_id}: {'; '.join(msgs)}")

    result = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        if m["name"] not in metrics:
            print(f"warning: metric {m['name']} is absent", file=sys.stderr)
            continue
        value, unit, _ = metrics[m["name"]]
        if unit != m["unit"]:
            sys.exit(f"error: {m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not run.failures, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def _execute(args, root: Path) -> Run:
    """Set up, then run passes with the speed sampler on; always removes the work directory."""
    import speed
    import tracing
    import workloads
    from eee import cli

    os.environ["EEE_LOG"] = "quiet"
    golden = None
    if args.seed == workloads.GOLDEN_SEED and GOLDEN_PATH.is_file():
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)["ops"].get(args.workload)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, setup_norm, setup_cpu, setup_wall = _timed_setups(args, work)
        sampler = speed.SpeedSampler()
        tracer = tracing.Tracer(clock=sampler.cpu) if args.trace else None
        sampler.start()
        process0, thread0 = _process_cpu(), time.thread_time()
        try:
            passes, failures, out_bytes = _loop(args, cli, inputs, work / "out", golden, tracer,
                                                sampler)
        finally:
            sampler.stop()
        process_cpu, thread_cpu = _process_cpu() - process0, time.thread_time() - thread0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return Run(passes, failures, out_bytes, setup_norm, setup_cpu, setup_wall,
               sampler.factor(), len(sampler.samples), 1 - thread_cpu / process_cpu, tracer)


def _end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """Metrics as (value, unit, samples): the bounded ones, then raw twins."""
    import workloads

    plain_passes = [results for traced, results in run.passes if not traced]
    plain = [r for results in plain_passes for r in results]

    def per_pass(field):
        return _median([sum(getattr(r, field) for r in rs) for rs in plain_passes]), "s", \
            len(plain_passes)

    def per_rung(rung, field):
        values = [getattr(r, field) for r in plain if r.op.rung == rung]
        return _median(values), "s", len(values)

    return {
        "setup_s": (_median(run.setup_norm), "s", len(run.setup_norm)),
        "pass_s": per_pass("norm"),
        **{f"{rung}.p50_s": per_rung(rung, "norm") for rung in workloads.LADDER},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "speed_factor": (run.speed_factor, "ratio", run.speed_samples),
        # CPU time outside the main thread, which op times do not count
        "other_threads_share": (run.other_threads_share, "ratio", 1),
        "setup_cpu_s": (_median(run.setup_cpu), "s", len(run.setup_cpu)),
        "setup_wall_s": (_median(run.setup_wall), "s", len(run.setup_wall)),
        "pass_cpu_s": per_pass("cpu"),
        "wall_s": per_pass("wall"),
        **{f"{rung}.p50_cpu_s": per_rung(rung, "cpu") for rung in workloads.LADDER},
        **{f"{rung}.p50_wall_s": per_rung(rung, "wall") for rung in workloads.LADDER},
    }


def _per_layer(run: Run) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of the traced passes; a failed self-time check is a failure."""
    import tracing
    import workloads

    tracer = run.tracer
    traced_passes = [results for traced, results in run.passes if traced]
    n = len(traced_passes)
    for m in tracer.missing:
        print(f"warning: {m} no longer exists; its per-layer metrics are absent", file=sys.stderr)
    factors = {r.op.op_id: r.factor for results in traced_passes for r in results}
    metrics = {name: (value, unit, n) for name, (value, unit) in
               tracing.layer_metrics(tracer.spans, n, tracer.missing, factors).items()}
    metrics["cli.output_bytes"] = (run.out_bytes / n, "B", n)
    metrics["trace.overhead"] = (_trace_overhead(run.passes, workloads.LADDER[1:]), "ratio", n)
    bad = {op: gap for op, gap in tracing.op_self_time_gaps(tracer.spans).items() if gap > 1e-9}
    if bad:
        run.failures.append(("trace", [f"self times do not sum to op duration: {bad}"]))
    return metrics


def _trace_overhead(passes, rungs) -> float:
    """Traced over plain time on `rungs`, as sums of per-rung median op times, minus 1.

    Traced and plain passes read different inputs. On the generated rungs
    every op does about the same work for its shape (capped iterations, a
    fixed horizon), so the ratio there is mostly the tracing cost.
    """
    def rung_medians(traced):
        ops = [r for t, results in passes if t == traced for r in results]
        return sum(_median([r.norm for r in ops if r.op.rung == rung]) for rung in rungs)

    return rung_medians(True) / rung_medians(False) - 1


def _loop(args, cli, inputs: Path, outroot: Path, golden, tracer, sampler):
    """Run passes until --seconds is up; a traced run alternates plain and traced passes.

    Returns [(traced, [OpResult])], the failures and the output bytes of traced passes.
    """
    import tracing
    import workloads

    passes, failures, out_bytes = [], [], 0
    min_passes = 2 if tracer is not None else 1
    start = time.perf_counter()
    for p in range(workloads.MAX_PASSES):
        walls = [sum(r.wall for r in results) for _, results in passes]
        # start a pass if it would end nearer to --seconds than stopping now
        if p >= min_passes and time.perf_counter() - start + _median(walls) / 2 > args.seconds:
            break
        traced = tracer is not None and p % 2 == 1
        ops = workloads.pass_ops(args.workload, args.seed, p, inputs)
        if traced:
            tracer.install(tracing.required_functions())
        try:
            results = _run_pass(cli, ops, outroot, sampler, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, results))
        for r in results:
            if traced and r.outdir.is_dir():
                out_bytes += sum(f.stat().st_size for f in r.outdir.iterdir() if f.is_file())
            failed = _failures(cli, r, golden)
            if failed:
                failures.append((r.op.op_id, failed))
        shutil.rmtree(outroot, ignore_errors=True)
    return passes, failures, out_bytes


def _out_dir(root: Path) -> Path:
    path = root / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def _write_record(root: Path, args, record: dict) -> None:
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(_out_dir(root) / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def _write_spans(root: Path, args, spans) -> None:
    with open(_out_dir(root) / f"spans-{args.workload}-seed{args.seed}.jsonl", "w",
              encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op, "error": s.error}) + "\n")


# ---------------------------------------------------------------------------
# all workloads; golden file


def run_all(args) -> int:
    """Each workload in its own process, plain then traced; prints a summary table."""
    import workloads

    rows = []
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            rows.append((workload, trace, result))
    print("\nworkload          trace  correct  failed/attempted")
    for workload, trace, r in rows:
        print(f"{workload:<18}{trace:<7}{str(r['correct']):<9}{r['failed']}/{r['attempted']}")
    return status


def record_golden() -> int:
    """Run the first GOLDEN_PASSES passes of every checked workload on the golden seed."""
    import checks
    import workloads
    from eee import cli

    os.environ["EEE_LOG"] = "quiet"
    root = Path.cwd()
    work = root / ".bench_work" / f"golden-{os.getpid()}"
    doc = {"seed": workloads.GOLDEN_SEED, "passes": GOLDEN_PASSES, "ops": {}}
    try:
        for workload in workloads.WORKLOADS:
            if workload == "montecarlo":  # statistical checks only: the RNG stream may change
                continue
            inputs = work / workload
            workloads.write_inputs(workload, workloads.GOLDEN_SEED, inputs, GOLDEN_PASSES)
            ops = {}
            for p in range(GOLDEN_PASSES):
                ops_p = workloads.pass_ops(workload, workloads.GOLDEN_SEED, p, inputs)
                for r in _run_pass(cli, ops_p, work / "out"):
                    failures = _failures(cli, r, None)
                    if failures:
                        sys.exit(f"error: {workload} {r.op.op_id}: {failures}")
                    ops[r.op.op_id] = checks.RECORDS[r.op.kind](r.outdir)
                print(f"{workload}: pass {p} recorded", flush=True)
            doc["ops"][workload] = ops
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _write_golden(doc)
    return 0


def _write_golden(doc: dict) -> None:
    """JSON with one line per op, so that a changed result shows as one changed line."""
    workloads = []
    for workload, ops in sorted(doc["ops"].items()):
        lines = [f"  {json.dumps(op_id)}: {json.dumps(record, sort_keys=True)}"
                 for op_id, record in sorted(ops.items())]
        workloads.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n }")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {doc["seed"]}, "passes": {doc["passes"]}, "ops": {{\n'
                 + ",\n".join(workloads) + "\n}}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="dynamics-greedy, dynamics-softmax, certify, montecarlo or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    blas_threads = _pin_blas()
    if args.setup_only:
        return _setup_only(args)
    eee = _import_program(Path.cwd())
    import workloads

    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload}")
    _fix_mmap_threshold()
    return measure(args, eee, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
