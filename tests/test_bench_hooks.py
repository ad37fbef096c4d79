"""The names the traced benchmark (perfbench/run.py) patches still exist.

The benchmark wraps the program's public functions from outside, so renaming
or deleting one of them breaks it without failing any other test here. This
test loads the benchmark as it is, installs every probe around one tiny run,
and restores them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tdmafl import SgdLearner, SystemConfig, run_timeline

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
    cfg = SystemConfig(6, 2, compute_slots=2, horizon=40)
    result = run_timeline(cfg, metrics_every=0)
    stats = bench.CallStats(prog.timing)
    stats.add_result(result)
    assert stats.rounds == result.completed_rounds
    assert stats.staleness_n == len(result.staleness_records)
    assert stats.records > 0 and stats.avg_grad_norm_sq == []
