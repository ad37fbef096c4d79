"""The names the traced benchmark (perfbench/run.py) patches still exist.

The benchmark wraps the program's public functions from outside, so renaming
or deleting one of them breaks it without failing any other test here. This
test loads the benchmark as it is, installs every probe around one tiny run,
and restores them.
"""

import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from tdmafl import SgdLearner, SystemConfig, idfl_staleness, make_quadratic, run_timeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


TASKS = {
    "quadratic": {"kind": "quadratic", "dim": 3, "samples_per_device": 4},
    "logistic": {"kind": "logistic", "num_classes": 3, "feature_dim": 3,
                 "samples_per_class": 8, "per_device": 4},
    "mlp": {"kind": "mlp", "hidden": 5, "num_classes": 3, "feature_dim": 3,
            "samples_per_class": 8, "per_device": 4},
}


@pytest.mark.parametrize("kind", list(TASKS))
def test_probes_install_trace_and_restore(bench, tmp_path, kind):
    prog = bench.import_program()
    originals = {name: SgdLearner.__dict__[name]
                 for name in ("local_update", "rng_for", "apply_round", "round_metrics")}
    doc = {
        "name": "hooks",
        "system": {"num_devices": 4, "group_size": 2, "compute_slots": 2,
                   "batch_size": 2, "step_size": 0.05, "horizon": 30},
        "task": TASKS[kind],
    }
    stats = bench.CallStats(prog.timing)
    tracer = bench.Tracer()
    bench.install_probes(tracer, prog, stats, traced=True)
    try:
        summary = prog.cli.run_experiment(prog.cli.ExperimentSpec.from_dict(doc), tmp_path)
    finally:
        tracer.restore()
    spans = tracer.take()

    for name in ("cli.build_task", "cli.write_metrics_csv", "simulator.run_timeline",
                 "simulator.select_transmitters", "learner.local_update", "learner.rng_for",
                 "learner.apply_round", "learner.round_metrics", "tasks.grad", "tasks.loss",
                 "tasks.sample_batch"):
        assert spans[name][0] > 0, name
    assert stats.rounds == summary["completed_rounds"] > 0
    assert stats.depth_n == stats.rounds
    assert {name: SgdLearner.__dict__[name] for name in originals} == originals
    assert bench.count_invalid_json(tmp_path) == 0


def test_call_stats_reads_a_timing_only_result(bench):
    prog = bench.import_program()
    # The second system defers by alpha = 1 (m = 3), so its staleness plateaus at 2.
    for cfg in (SystemConfig(6, 2, compute_slots=2, horizon=40),
                SystemConfig(8, 2, compute_slots=3, horizon=60, intentional_delay=1)):
        result = run_timeline(cfg, metrics_every=0)
        stats = bench.CallStats(prog.timing)
        stats.add_result(result)
        rounds, s = result.completed_rounds, cfg.group_size
        assert stats.rounds == rounds
        assert stats.staleness_n == len(result.staleness_records) == s * rounds
        assert stats.staleness_sum == s * sum(idfl_staleness(k, cfg) for k in range(rounds)) > 0
        assert stats.tx.digest() == hashlib.sha256(repr(result.transmitter_sets).encode()).digest()
        assert stats.records > 0 and stats.avg_grad_norm_sq == []


def test_call_stats_reads_a_trained_result(bench):
    # The metric columns are float64 arrays; the check must read them as it
    # reads a timing-only run's. Deferred by alpha = 1, evaluated every other round.
    prog = bench.import_program()
    cfg = SystemConfig(8, 2, compute_slots=3, horizon=60, intentional_delay=1,
                       batch_size=2, step_size=0.05)
    task = make_quadratic(8, 3, 1.0, np.random.default_rng(2), samples_per_device=4)
    result = run_timeline(cfg, SgdLearner(task, cfg, seed=3), metrics_every=2)
    stats = bench.CallStats(prog.timing)
    stats.add_result(result)
    rounds, s = result.completed_rounds, cfg.group_size
    assert stats.rounds == rounds > 0
    assert stats.staleness_sum == s * sum(idfl_staleness(k, cfg) for k in range(rounds)) > 0
    assert stats.staleness_gap_sum == 0
    assert stats.avg_grad_norm_sq == [result.metrics.avg_grad_norm_sq()]
    assert math.isfinite(stats.avg_grad_norm_sq[0])
    assert stats.records > 0
