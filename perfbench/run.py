#!/usr/bin/env python3
"""Benchmark for tdmafl: host throughput, memory and exact schedule checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sched_async --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20

One workload runs per process, so the peak memory reported belongs to that
workload; ``--workload all`` starts one fresh process per workload and trace
mode and prints a table. The program is imported from ``src/`` next to this
directory and nowhere else. Each workload call is one ``cli.run_experiment``
or ``cli.run_sweep``; after one warm-up call the benchmark repeats calls for
``--seconds`` and reports medians. Every call's outputs are checked against
``expected.json``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones (see README.md). The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracing import CHECK_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
EXPECTED_PATH = HERE / "expected.json"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Relative tolerance for final_loss and avg_grad_norm_sq: a reordered float
# sum moves these by ~1e-15, a changed RNG stream by far more than 1e-9.
FLOAT_RTOL = 1e-9
MIN_CALLS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_rounds": "rounds",
    "sim_staleness_mean": "rounds",
    "sim_channel_util": "ratio",
}

PER_LAYER_UNITS = {
    "simulator.self_s": "s",
    "simulator.us_per_round": "us",
    "simulator.select_transmitters_s": "s",
    "simulator.select_transmitters_calls": "count",
    "simulator.ready_depth_mean": "count",
    "simulator.ready_depth_max": "count",
    "simulator.records": "count",
    "learner.local_update_s": "s",
    "learner.local_update_calls": "count",
    "learner.local_update_us": "us",
    "learner.rng_for_s": "s",
    "learner.apply_round_s": "s",
    "learner.apply_round_calls": "count",
    "learner.round_metrics_s": "s",
    "learner.round_metrics_calls": "count",
    "learner.round_metrics_us": "us",
    "tasks.grad_s": "s",
    "tasks.grad_calls": "count",
    "tasks.loss_s": "s",
    "tasks.loss_calls": "count",
    "tasks.sample_batch_s": "s",
    "tasks.sample_batch_calls": "count",
    "cli.build_task_s": "s",
    "data.make_clustered_dataset_s": "s",
    "data.partition_s": "s",
    "cli.write_metrics_csv_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.invalid_json": "count",
    "timing.rounds_gap": "rounds",
    "timing.staleness_gap": "rounds",
    "trace.overhead_ratio": "ratio",
}


def import_program() -> SimpleNamespace:
    """Import tdmafl from this checkout's ``src/``; exit if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tdmafl
        from tdmafl import cli, learner, simulator, tasks, timing
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tdmafl from {src}: {exc}")
    if Path(tdmafl.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: tdmafl was imported from {tdmafl.__file__}, not {src}")
    return SimpleNamespace(cli=cli, learner=learner, simulator=simulator, tasks=tasks, timing=timing)


class CallStats:
    """What one workload call produced, gathered from the SimResults it built."""

    def __init__(self, timing) -> None:
        self._timing = timing
        self.rounds = 0
        self.tx = hashlib.sha256()
        self.staleness_sum = 0
        self.staleness_n = 0
        self.busy_slots = 0
        self.span_slots = 0
        self.records = 0
        self.rounds_gap = 0
        self.staleness_gap_sum = 0.0
        self.avg_grad_norm_sq: list[float] = []
        self.depth_sum = 0
        self.depth_n = 0
        self.depth_max = 0

    def add_result(self, result) -> None:
        cfg = result.config
        n = result.completed_rounds
        self.rounds += n
        self.tx.update(repr(result.transmitter_sets).encode())
        self.staleness_sum += sum(rec.staleness for rec in result.staleness_records)
        self.staleness_n += len(result.staleness_records)
        self.busy_slots += n * (cfg.group_size + 1) * cfg.slots_per_transfer
        self.span_slots += result.downlink_end_slots[-1] + 1
        m = result.metrics
        self.records += sum(map(len, (
            result.events, result.staleness_records, result.launch_clocks,
            result.downlink_end_slots, result.transmitter_sets, result.model_history or (),
            m.rounds, m.slots, m.staleness, m.loss, m.grad_norm_sq,
        )))
        self.rounds_gap += n - cfg.rounds_closed_form()
        closed = sum(self._timing.idfl_staleness(k, cfg) for k in range(n))
        self.staleness_gap_sum += sum(m.staleness) - closed
        if result.final_model is not None:
            self.avg_grad_norm_sq.append(m.avg_grad_norm_sq())

    def add_depth(self, args) -> None:
        depth = len(args[0])
        self.depth_sum += depth
        self.depth_n += 1
        self.depth_max = max(self.depth_max, depth)


def install_probes(tracer: Tracer, prog, stats: CallStats, traced: bool) -> None:
    """Setup timing and result capture always; every layer span when traced."""
    cli = prog.cli
    tracer.patch(cli, "build_system_config", "cli.build_system_config")
    tracer.patch(cli, "build_task", "cli.build_task")
    tracer.patch(cli, "run_timeline", "simulator.run_timeline", check=stats.add_result)
    if not traced:
        return
    tracer.patch(cli, "run_sweep", "cli.run_sweep")
    tracer.patch(cli, "run_experiment", "cli.run_experiment")
    tracer.patch(cli, "write_metrics_csv", "cli.write_metrics_csv")
    tracer.patch(cli, "make_clustered_dataset", "data.make_clustered_dataset")
    tracer.patch(cli, "partition_single_label", "data.partition")
    tracer.patch(cli, "partition_iid", "data.partition")
    tracer.patch(prog.simulator, "select_transmitters", "simulator.select_transmitters",
                 observe=stats.add_depth)
    for attr in ("local_update", "rng_for", "apply_round", "round_metrics"):
        tracer.patch(prog.learner.SgdLearner, attr, f"learner.{attr}")
    tasks = prog.tasks
    for cls in (tasks.QuadraticTask, tasks.SoftmaxRegressionTask, tasks.MlpTask):
        for attr in ("grad", "loss"):
            if attr in cls.__dict__:
                tracer.patch(cls, attr, f"tasks.{attr}")
    tracer.patch(tasks.Task, "sample_batch", "tasks.sample_batch")


def _reject_constant(token: str):
    raise ValueError(f"bare {token} is not JSON")


def count_invalid_json(out: Path) -> int:
    """summary.json and sweep.json files that a strict JSON parser rejects."""
    bad = 0
    for path in sorted(out.rglob("*.json")):
        if path.name not in ("summary.json", "sweep.json"):
            continue
        try:
            json.loads(path.read_text(), parse_constant=_reject_constant)
        except ValueError:
            bad += 1
    return bad


def check_outputs(name: str, variant: int, fingerprint: dict, expected: dict) -> list[str]:
    """Mismatches between one call's fingerprint and the recorded values."""
    problems = []
    want = expected[name][str(variant)]
    for key in ("sim_rounds", "tx_sha256", "staleness_sum"):
        if fingerprint[key] != want[key]:
            problems.append(f"{key}: got {fingerprint[key]!r}, expected {want[key]!r}")
    for key in ("final_loss", "avg_grad_norm_sq"):
        got, exp = fingerprint[key], want[key]
        if len(got) != len(exp) or not all(
                math.isclose(a, b, rel_tol=FLOAT_RTOL) for a, b in zip(got, exp)):
            problems.append(f"{key}: got {got!r}, expected {exp!r}")
    if name in ("sched_async", "sched_idfl"):
        # Proposition 1: deferring the downlink by alpha* costs no rounds and
        # leaves the transmitter sequence unchanged.
        other = expected["sched_idfl" if name == "sched_async" else "sched_async"][str(variant)]
        for key in ("sim_rounds", "tx_sha256"):
            if fingerprint[key] != other[key]:
                problems.append(f"Proposition 1: {key} {fingerprint[key]!r} differs "
                                f"from the other deferral's {other[key]!r}")
    return problems


def run_call(prog, tracer: Tracer, name: str, spec, out: Path, traced: bool) -> SimpleNamespace:
    """One timed workload call, then its output checks (not timed)."""
    stats = CallStats(prog.timing)
    install_probes(tracer, prog, stats, traced)
    error = None
    t0 = time.perf_counter()
    try:
        produced = workloads.call(prog.cli, name, spec, out)
    except Exception as exc:  # a failed call is counted, and the run goes on
        produced, error = [], f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    tracer.restore()
    spans = tracer.take()

    def inclusive(span_name: str) -> float:
        return spans.get(span_name, (0, 0.0, 0.0))[1]

    call = SimpleNamespace(
        stats=stats,
        spans=spans,
        traced=traced,
        elapsed_s=elapsed,
        wall_s=elapsed - inclusive(CHECK_SPAN),
        setup_s=inclusive("cli.build_system_config") + inclusive("cli.build_task"),
        problems=[error] if error else [],
        artifact_bytes=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        invalid_json=count_invalid_json(out),
    )
    call.problems += [f"sweep point {row}" for row in produced if row.get("status", "ok") != "ok"]
    call.fingerprint = {
        "sim_rounds": stats.rounds,
        "tx_sha256": stats.tx.hexdigest(),
        "staleness_sum": stats.staleness_sum,
        "final_loss": [row["mean_final_loss"] for row in produced
                       if row.get("mean_final_loss") is not None],
        "avg_grad_norm_sq": stats.avg_grad_norm_sq,
    }
    shutil.rmtree(out, ignore_errors=True)
    return call


def layer_metrics(call, untraced_wall: float) -> dict[str, float]:
    """Per-layer values of one traced call; times are speed-normalized."""
    spans, stats = call.spans, call.stats

    def get(name: str, field: int) -> float:
        return spans.get(name, (0, 0.0, 0.0))[field]

    sim_self = get("simulator.run_timeline", 2) + get("simulator.select_transmitters", 2)
    lu_calls = get("learner.local_update", 0)
    rm_calls = get("learner.round_metrics", 0)
    out = {
        "simulator.self_s": sim_self,
        "simulator.us_per_round": 1e6 * sim_self / stats.rounds,
        "simulator.select_transmitters_s": get("simulator.select_transmitters", 2),
        "simulator.select_transmitters_calls": get("simulator.select_transmitters", 0),
        "simulator.ready_depth_mean": stats.depth_sum / stats.depth_n if stats.depth_n else 0.0,
        "simulator.ready_depth_max": stats.depth_max,
        "simulator.records": stats.records,
        "learner.local_update_s": get("learner.local_update", 2),
        "learner.local_update_calls": lu_calls,
        "learner.local_update_us": 1e6 * get("learner.local_update", 1) / lu_calls if lu_calls else 0.0,
        "learner.rng_for_s": get("learner.rng_for", 2),
        "learner.apply_round_s": get("learner.apply_round", 2),
        "learner.apply_round_calls": get("learner.apply_round", 0),
        "learner.round_metrics_s": get("learner.round_metrics", 2),
        "learner.round_metrics_calls": rm_calls,
        "learner.round_metrics_us": 1e6 * get("learner.round_metrics", 1) / rm_calls if rm_calls else 0.0,
        "tasks.grad_s": get("tasks.grad", 2),
        "tasks.grad_calls": get("tasks.grad", 0),
        "tasks.loss_s": get("tasks.loss", 2),
        "tasks.loss_calls": get("tasks.loss", 0),
        "tasks.sample_batch_s": get("tasks.sample_batch", 2),
        "tasks.sample_batch_calls": get("tasks.sample_batch", 0),
        "cli.build_task_s": get("cli.build_task", 2),
        "data.make_clustered_dataset_s": get("data.make_clustered_dataset", 2),
        "data.partition_s": get("data.partition", 2),
        "cli.write_metrics_csv_s": get("cli.write_metrics_csv", 2),
        "cli.artifact_bytes": call.artifact_bytes,
        "cli.invalid_json": call.invalid_json,
        "timing.rounds_gap": stats.rounds_gap,
        "timing.staleness_gap": stats.staleness_gap_sum / stats.rounds,
    }
    for key, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "us") and key in out:
            out[key] *= call.speed
    out["trace.overhead_ratio"] = call.wall_s * call.speed / untraced_wall
    return out


class HostSpeed:
    """Times a fixed reference kernel between workload calls.

    On a shared host the speed of one CPU changes by up to 1.5x within
    seconds, as other tenants come and go, so raw medians of two runs can
    differ by more than any useful bound. The kernel runs before and after
    every call; the call's times are divided by the mean of those two kernel
    times and expressed in seconds at REFERENCE_SECONDS per kernel run. The
    kernel, sorting tuples by a key function, is interpreter-bound like the
    program. Kernels that mix in numpy work tracked the host less well.
    """

    REFERENCE_SECONDS = 0.015

    def __init__(self) -> None:
        self._rows = [((i * 7919) % 1009, i % 17, i) for i in range(5000)]

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            sorted(self._rows, key=lambda row: (row[1], row[0], row[2]))
        return time.perf_counter() - t0


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> int:
    load_before = os.getloadavg()
    prog = import_program()
    expected = json.loads(EXPECTED_PATH.read_text())[scale]
    variant = workloads.variant_of(seed)
    spec = prog.cli.ExperimentSpec.from_dict(workloads.spec_doc(name, variant, scale))
    tracer = Tracer()
    host = HostSpeed()
    work = WORK_DIR / f"{name}-{os.getpid()}"
    calls = []
    try:
        def call(traced: bool):
            c = run_call(prog, tracer, name, spec, work / f"call{len(calls)}", traced)
            c.problems += check_outputs(name, variant, c.fingerprint, expected)
            calls.append(c)
            return c

        call(traced=False)  # warm-up: imports, caches, first-touch allocation
        host.sample()
        measured = []
        started = time.perf_counter()
        deadline = started + seconds
        refs = [host.sample()]  # refs[i] runs just before call i, refs[i + 1] just after
        while True:
            t0 = time.perf_counter()
            # Traced runs alternate untraced and traced calls, so both see the
            # same host load and their ratio is the tracing overhead.
            measured.append(call(traced=trace and len(measured) % 2 == 1))
            refs.append(host.sample())
            typical = time.perf_counter() - t0
            if len(measured) >= MIN_CALLS + trace and time.perf_counter() + typical > deadline:
                break
        for c, before, after in zip(measured, refs, refs[1:]):
            c.speed = 2 * HostSpeed.REFERENCE_SECONDS / (before + after)
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    measured_s = time.perf_counter() - started
    failed = sum(1 for c in calls if c.problems)
    completed = [c for c in measured if c.stats.rounds]  # a call that raised has no timings
    plain = [c for c in completed if not c.traced]
    traced = [c for c in completed if c.traced]
    if not plain or (trace and not traced):
        for c in calls:
            for problem in c.problems:
                print(problem, file=sys.stderr)
        raise SystemExit(f"perfbench: no {name} call completed")
    walls = [c.wall_s * c.speed for c in plain]

    env = environment()
    env["loadavg_before"] = [round(x, 2) for x in load_before]
    env["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    print(f"perfbench {name} seed={seed} (input variant {variant}, scale {scale}) "
          f"trace={int(trace)}: {len(measured)} calls in {measured_s:.1f} s after 1 warm-up call")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("note: the simulated TDMA timing is checked only against the program's own "
          "closed forms (timing.*), not against real hardware")
    for c in calls:
        for problem in c.problems:
            print(f"FAILED check: {problem}")
    print(f"fail_ratio {failed / len(calls):.4g} ({failed} of {len(calls)} calls failed)")
    speeds = [c.speed for c in measured]
    print(f"host speed factor (reference kernel at {HostSpeed.REFERENCE_SECONDS} s / measured): "
          f"median {statistics.median(speeds):.4g}, min {min(speeds):.4g}, max {max(speeds):.4g}; "
          f"host times below are raw times multiplied by it, call by call")

    if trace:
        base = statistics.median(walls)
        rows = [layer_metrics(c, base) for c in traced]
        metrics = {k: statistics.median(r[k] for r in rows) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        print(f"per-layer values: median over {len(traced)} traced calls, per call "
              f"(times are self times; *_us are inclusive per call)")
        print("inclusive share of the call's wall time, median over traced calls:")
        for span_name in sorted({n for c in traced for n in c.spans} - {CHECK_SPAN}):
            share = statistics.median(c.spans.get(span_name, (0, 0.0))[1] / c.elapsed_s
                                      for c in traced)
            print(f"  {span_name:36s} {share:8.1%}")
    else:
        first = plain[0].stats
        rates = [c.stats.rounds / ((c.wall_s - c.setup_s) * c.speed) for c in plain]
        setups = [c.setup_s * c.speed for c in plain]
        metrics = {
            "wall_s": statistics.median(walls),
            "rounds_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_rounds": first.rounds,
            "sim_staleness_mean": first.staleness_sum / first.staleness_n,
            "sim_channel_util": first.busy_slots / first.span_slots,
        }
        units = END_TO_END_UNITS
        raw = [c.wall_s for c in plain]
        print(f"raw wall_s: median {statistics.median(raw):.6g} s of n={len(raw)} calls, "
              f"min {min(raw):.6g}, max {max(raw):.6g}")
        for label, values in (("wall_s", walls), ("rounds_per_s", rates), ("setup_s", setups)):
            p25, p75 = _quartiles(values)
            print(f"{label}: median of n={len(values)} calls; p25 {p25:.6g}, p75 {p75:.6g}, "
                  f"min {min(values):.6g}, max {max(values):.6g}")
    for key, value in metrics.items():
        print(f"  {key:36s} {value:>16.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; untraced then traced unless --trace."""
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = {}
    for name in workloads.NAMES:
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(mode), "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"perfbench: {name} trace={mode} exited with {proc.returncode}")
                return 1
            results[f"{name}/trace{mode}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nsummary:")
    for key, res in results.items():
        print(f"  {key:22s} correct={res['correct']} failed {res['failed']} of {res['attempted']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=tuple(workloads.HORIZONS), default="bench",
                        help="input size; 'smoke' is the smoke test's tiny horizon")
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main())
