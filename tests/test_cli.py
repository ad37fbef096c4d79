"""Command-line surface: artifacts, schemas, exit codes."""

import concurrent.futures
import contextlib
import copy
import csv
import gzip
import hashlib
import io
import json
import math
import struct
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmafl import cli, load_cifar10_batches, load_idx_dataset
from tdmafl.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    ExperimentSpec,
    build_system_config,
    main,
    run_experiment,
    run_sweep,
    timing_report,
    write_metrics_csv,
)
from tdmafl.learner import SgdLearner
from tdmafl.simulator import RunMetrics, run_timeline
from tdmafl.tasks import Task
from tdmafl.timing import SystemConfig
from util import write_idx_images, write_idx_labels


def quad_spec(**system_overrides):
    system = {
        "num_devices": 4, "group_size": 2, "compute_slots": 6,
        "batch_size": 4, "step_size": 0.05, "horizon": 400,
    }
    system.update(system_overrides)
    return {
        "name": "quad_smoke",
        "mode": "run",
        "seeds": [0, 1],
        "metrics_every": 1,
        "system": system,
        "task": {
            "kind": "quadratic", "dim": 4, "heterogeneity": 1.0,
            "samples_per_device": 24, "sample_noise": 0.4,
            "eig_range": [0.5, 2.0], "data_seed": 0, "init_offset": 2.0,
        },
    }


class NumpyLossTask(Task):
    """Two devices of three points in the plane; its loss is a numpy scalar, not a float."""

    dim, num_devices, shard_sizes = 2, 2, (3, 3)

    def __init__(self):
        self.points = np.arange(12.0).reshape(2, 3, 2)

    def _rows(self, device, batch):
        self.check_batch(device, batch)
        x = self.points.reshape(-1, 2) if device is None else self.points[device]
        return x if batch is None else x[np.asarray(batch)]

    def loss(self, w, device=None, batch=None):
        return 0.5 * np.mean(np.sum((w - self._rows(device, batch)) ** 2, axis=1))

    def grad(self, w, device=None, batch=None):
        return w - self._rows(device, batch).mean(axis=0)


def count_builds(monkeypatch) -> list:
    """Record the N of every ``cli.build_task`` call; the real build still runs."""
    calls, real = [], cli.build_task

    def counting(task_spec, dataset_dir, *, num_devices):
        calls.append(num_devices)
        return real(task_spec, dataset_dir, num_devices=num_devices)

    monkeypatch.setattr(cli, "build_task", counting)
    return calls


def _reject_constant(token):
    raise ValueError(f"bare {token} is not strict JSON")


# Task blocks with a field that their kind does not take; a task without a kind is "none".
UNKNOWN_TASK_FIELDS = [{"dim": 3}, {"kind": "none", "dim": 3}, {"kind": "quadratic", "dimm": 3},
                       {"kind": "mlp", "hiden": 3}]


def full_shards_spec(data_seed):
    """10 classes of 10 samples on 10 devices of 10: the labels hold exactly 10 shards."""
    return {"name": "full_shards", "seeds": [0],
            "system": {"num_devices": 10, "group_size": 2, "compute_slots": 2,
                       "batch_size": 4, "step_size": 0.05, "horizon": 60},
            "task": {"kind": "logistic", "num_classes": 10, "feature_dim": 2,
                     "samples_per_class": 10, "partition": "single_label", "per_device": 10,
                     "data_seed": data_seed}}


def write_spec(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def read_metrics(path):
    """A metrics.csv as columns: round and slot as int, the rest as float."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == CSV_HEADER
    kinds = [int, int, float, float, float]
    return {name: [kind(row[i]) for row in rows]
            for i, (name, kind) in enumerate(zip(header, kinds))}


# Floats whose equal values print differently (0.0, -0.0), that are unequal to
# themselves (nan), or that are at the ends of the double range.
CSV_TAIL_PALETTE = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1 / 3, 5e-324, 1e300]


def reference_csv_bytes(metrics) -> bytes:
    """The metrics table as ``csv.writer`` writes it, one row at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for i in range(len(metrics)):
        writer.writerow([metrics.rounds[i], metrics.slots[i], repr(float(metrics.loss[i])),
                         repr(float(metrics.grad_norm_sq[i])), repr(float(metrics.staleness[i]))])
    return buf.getvalue().encode()


class TestRunCommand:
    def test_artifacts_and_schema(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(write_spec(tmp_path, quad_spec())),
                   "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert {e["seed"] for e in summary["per_seed"]} == {0, 1}

        csv_path = out / "seed0" / "metrics.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        table = read_metrics(csv_path)
        assert table["round"][0] == 0
        assert all(b > a for a, b in zip(table["slot"], table["slot"][1:]))
        assert math.isfinite(table["loss"][0])

    def test_init_offset_zero_starts_at_the_optimum(self, tmp_path):
        # A given offset, 0 included, starts at w_star + offset / sqrt(d); an absent one at 0.
        doc = quad_spec(horizon=40)
        doc["task"]["init_offset"] = 0
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(out)]) == EXIT_OK
        task, init = cli.build_task(doc["task"], None, num_devices=4)
        assert np.array_equal(init, task.w_star)
        assert read_metrics(out / "seed0" / "metrics.csv")["loss"][0] == task.loss(task.w_star)
        del doc["task"]["init_offset"]
        assert cli.build_task(doc["task"], None, num_devices=4)[1] is None

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_classifier_build_peaks_below_two_and_a_half_copies_of_the_samples(self, kind):
        # 20 iid shards of 100 take all 2,000 samples: the dataset, the gather
        # and the task's array are one copy each, and the build drops the
        # dataset before it builds the task.
        spec = {"kind": kind, "dataset": "clusters", "num_classes": 4, "feature_dim": 128,
                "samples_per_class": 500, "partition": "iid", "per_device": 100}
        if kind == "mlp":
            spec["hidden"] = 4
        cli.build_task(spec, None, num_devices=20)  # warm-up: lazy imports are not the build
        tracemalloc.start()
        try:
            task = cli.build_task(spec, None, num_devices=20)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples = 2000 * 128 * 8
        assert sum(task.shard_sizes) * task.feature_dim * 8 == samples
        assert peak < 2.5 * samples

    def test_csv_parses_back_losslessly(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(write_spec(tmp_path, quad_spec())),
              "--out", str(out)])
        path = out / "seed0" / "metrics.csv"
        table = read_metrics(path)
        # Re-serialize with the same formatting and compare bytes.
        lines = [",".join(CSV_HEADER)]
        for i in range(len(table["round"])):
            lines.append(",".join([
                str(table["round"][i]), str(table["slot"][i]),
                repr(table["loss"][i]), repr(table["grad_norm_sq"][i]),
                repr(table["staleness"][i]),
            ]))
        assert path.read_text().strip().splitlines() == lines

    def test_metrics_csv_matches_a_row_by_row_writer(self, tmp_path):
        big = 2**53 + 1
        edge_values = RunMetrics(
            rounds=[0, 1, 2, big], slots=[5, 9, big, 2**64],
            staleness=[0.0, -0.0, float(big), 1 / 3],
            loss=[float("nan"), float("inf"), -0.0, 1e-300],
            grad_norm_sq=[float("-inf"), 2.5, float("nan"), 1e300],
        )
        # Equal values with different reprs, and NaNs that are distinct objects:
        # the rows share a tail only where the bits agree.
        signed_zeros = RunMetrics(
            rounds=list(range(6)), slots=list(range(10, 16)),
            staleness=[0.0, -0.0, -0.0, 0.0, 0.0, 1.0],
            loss=[float("nan"), float("nan"), -float("nan"), 0.0, -0.0, -0.0],
            grad_norm_sq=[0.0, 0.0, 0.0, -0.0, -0.0, -0.0],
        )
        one_row = RunMetrics(rounds=[0], slots=[7], staleness=[0.0], loss=[0.5],
                             grad_norm_sq=[float("nan")])
        timing_only = run_timeline(SystemConfig(1000, 10, compute_slots=500,
                                                horizon=40_000)).metrics
        assert len(timing_only) == 3591 and all(map(math.isnan, timing_only.loss))
        cfg = build_system_config(quad_spec(horizon=120)["system"])
        task, initial = cli.build_task(quad_spec()["task"], None, num_devices=4)
        decimated = run_timeline(cfg, SgdLearner(task, cfg, initial=initial),
                                 metrics_every=3).metrics
        assert [k for k, x in enumerate(decimated.loss) if not math.isnan(x)] == \
            list(range(0, len(decimated), 3))
        for metrics in (edge_values, signed_zeros, one_row, timing_only, decimated, RunMetrics()):
            path = tmp_path / "metrics.csv"
            write_metrics_csv(path, metrics)
            assert path.read_bytes() == reference_csv_bytes(metrics)
        assert path.read_bytes() == b"round,slot,loss,grad_norm_sq,staleness\r\n"  # header only

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(CSV_TAIL_PALETTE)),
                    max_size=60))
    def test_metrics_csv_matches_a_row_by_row_writer_on_repeated_tails(self, edits):
        # Each row sets one column of the previous row's tail to a palette value,
        # or (column 3) repeats it: long runs occur, and boundaries in one column.
        tail, rows = [0.0, 0.0, 0.0], []
        for column, value in edits:
            if column < 3:
                tail[column] = value
            rows.append(tuple(tail))
        metrics = RunMetrics(rounds=list(range(len(rows))),
                             slots=[3 * k + 1 for k in range(len(rows))],
                             loss=[r[0] for r in rows], grad_norm_sq=[r[1] for r in rows],
                             staleness=[r[2] for r in rows])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "metrics.csv"
            write_metrics_csv(path, metrics)
            assert path.read_bytes() == reference_csv_bytes(metrics)

    def test_timing_only_metrics_csv_bytes_are_pinned(self, tmp_path):
        # The digest was recorded when the round table was still built round by round.
        doc = {"name": "sched", "metrics_every": 1,
               "system": {"num_devices": 1000, "group_size": 10, "compute_slots": 500,
                          "horizon": 40_000}}
        run_experiment(ExperimentSpec.from_dict(doc), tmp_path / "out")
        data = (tmp_path / "out" / "seed0" / "metrics.csv").read_bytes()
        assert data.count(b"\r\n") == 3592
        assert hashlib.sha256(data).hexdigest() == \
            "2acad52e28b3c2e10d9e04382eb0077bf50966a6ac8af349479d743e9969d087"

    def test_a_numpy_scalar_loss_reaches_the_csv_as_a_float(self, tmp_path, monkeypatch):
        task = NumpyLossTask()
        assert type(task.loss(np.zeros(2))) is np.float64
        monkeypatch.setattr(cli, "build_task", lambda *a, **k: (task, None))
        doc = quad_spec(num_devices=2, group_size=1, batch_size=2, horizon=60)
        spec = ExperimentSpec.from_dict(doc)
        summary = run_experiment(spec, tmp_path / "out")
        cfg = build_system_config(doc["system"])
        metrics = run_timeline(cfg, SgdLearner(task, cfg, seed=0)).metrics
        assert len(metrics) > 1 and metrics.loss.dtype == np.float64
        for entry in summary["per_seed"]:
            assert type(entry["final_loss"]) is float
            table = read_metrics(tmp_path / "out" / f"seed{entry['seed']}" / "metrics.csv")
            assert len(table["loss"]) == len(metrics) and all(map(math.isfinite, table["loss"]))

    def test_config_echo_round_trips(self, tmp_path):
        # The echo is the spec that ran: its settings as given, with no mode,
        # out_dir or grid, and with the defaults of task, seeds and metrics_every.
        doc = quad_spec(intentional_delay="optimal")
        del doc["system"]["compute_slots"]
        doc["system"]["samples_per_slot"] = "2/3"
        timing_only = {"name": "defaults", "mode": "sweep", "out_dir": "elsewhere",
                       "grid": {"group_size": [1, 2]},
                       "system": {"num_devices": 4, "group_size": 2, "horizon": 40}}
        echoes = [{k: v for k, v in doc.items() if k != "mode"},
                  {"name": "defaults", "system": timing_only["system"],
                   "task": {"kind": "none"}, "seeds": [0], "metrics_every": 1}]
        timings = []
        for given, echo in zip((doc, timing_only), echoes):
            out = tmp_path / given["name"]
            assert main(["run", "--config", str(write_spec(tmp_path, given)),
                         "--out", str(out)]) == EXIT_OK
            summary = json.loads((out / "summary.json").read_text())
            assert summary["config"] == echo
            assert ExperimentSpec.from_dict(summary["config"]) == \
                replace(ExperimentSpec.from_dict(given), out_dir=None, grid=None)
            timings.append(summary["timing"])
        # The timing block holds what the rate q = 2/3 (H*B = 4) and "optimal" resolve to.
        assert (timings[0]["tau_comp"], timings[0]["intentional_delay"]) == (6, 0)

    def test_a_direct_or_replaced_spec_echoes_what_it_ran(self, tmp_path):
        doc = quad_spec(horizon=40)
        direct = ExperimentSpec(name="direct", system=doc["system"], task=doc["task"], seeds=[3])
        replaced = replace(ExperimentSpec.from_dict(doc), name="replaced", seeds=[5],
                           system={**doc["system"], "group_size": 4})
        for spec in (direct, replaced):
            summary = run_experiment(spec, tmp_path / spec.name)
            assert json.loads((tmp_path / spec.name / "summary.json").read_text()) == summary
            assert summary["config"]["system"] == spec.system
            assert summary["config"]["seeds"] == [e["seed"] for e in summary["per_seed"]]
            assert ExperimentSpec.from_dict(summary["config"]) == spec
        assert summary["timing"]["num_groups"] == 1  # the replaced system ran

    def test_deterministic_outputs(self, tmp_path):
        doc = quad_spec()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(write_spec(tmp_path, doc)), "--out", str(out_a)])
        main(["run", "--config", str(write_spec(tmp_path, doc)), "--out", str(out_b)])
        assert (out_a / "seed0" / "metrics.csv").read_bytes() == \
            (out_b / "seed0" / "metrics.csv").read_bytes()

    def test_set_overrides_nested_field(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(write_spec(tmp_path, quad_spec())),
                   "--out", str(out), "--set", "system.group_size=4",
                   "--set", "seeds=[0]"])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["system"]["group_size"] == 4
        assert len(summary["per_seed"]) == 1

    def test_set_seeds_replaces_the_spec_seeds(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(write_spec(tmp_path, quad_spec(horizon=40))),
                   "--out", str(out), "--set", "seeds=[7]"])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seeds"] == [7]  # the echo is the spec that ran
        assert [e["seed"] for e in summary["per_seed"]] == [7]
        assert sorted(p.name for p in out.iterdir()) == ["seed7", "summary.json"]

    def test_timing_only_run(self, tmp_path):
        doc = quad_spec()
        doc["task"] = {"kind": "none"}
        doc["system"]["horizon"] = 2000
        out = tmp_path / "out"
        rc = main(["run", "--config", str(write_spec(tmp_path, doc)),
                   "--out", str(out)])
        assert rc == EXIT_OK
        table = read_metrics(out / "seed0" / "metrics.csv")
        assert all(math.isnan(v) for v in table["loss"])
        assert table["staleness"][-1] == 1.0  # plateau at G - 1
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert all(e["avg_grad_norm_sq"] is None for e in summary["per_seed"])

    def test_closed_forms_are_null_beyond_alpha_star(self, tmp_path):
        # N = 4 singleton groups with 2-slot compute: alpha* = 2, tau_asyn = 2.
        doc = {"name": "defer", "system": {"num_devices": 4, "group_size": 1,
                                           "compute_slots": 2, "horizon": 400}}
        summaries = {}
        for alpha in (0, 2, 3):
            doc["system"]["intentional_delay"] = alpha
            summaries[alpha] = run_experiment(ExperimentSpec.from_dict(doc), tmp_path / str(alpha))
            written = json.loads((tmp_path / str(alpha) / "summary.json").read_text())
            assert written["timing"] == summaries[alpha]["timing"]
        for alpha in (0, 2):
            timing = summaries[alpha]["timing"]
            assert (timing["tau_asyn"], timing["rounds_closed_form"]) == ("2", 200)
            assert "closed_form_note" not in timing
        # One more deferral slows every round: 101 rounds, not the 200 of T / tau_asyn.
        assert summaries[3]["completed_rounds"] == 101
        timing = summaries[3]["timing"]
        assert timing["tau_asyn"] is None and timing["rounds_closed_form"] is None
        assert "alpha* = 2" in timing["closed_form_note"]

    def test_exact_round_count_holds_for_every_alpha(self, tmp_path):
        # Same system: alpha* = 2, and alpha = 3 lengthens the rounds.
        doc = {"name": "defer", "system": {"num_devices": 4, "group_size": 1,
                                           "compute_slots": 2, "horizon": 400}}
        for alpha, rounds in ((0, 200), (2, 200), (3, 101)):
            doc["system"]["intentional_delay"] = alpha
            summary = run_experiment(ExperimentSpec.from_dict(doc), tmp_path / str(alpha))
            assert summary["timing"]["rounds_exact"] == summary["completed_rounds"] == rounds

    def test_round_length_holds_for_every_alpha(self, tmp_path):
        # Four singleton groups, tau_comm = 2. With 2-slot compute alpha* = 2 and
        # alpha = 3 doubles the rounds; with 9-slot compute alpha* = 0.
        for compute, alpha, length in ((2, 0, "2"), (2, 2, "2"), (2, 3, "4"),
                                       (9, 0, "11/4"), (9, 1, "11/3")):
            system = {"num_devices": 4, "group_size": 1, "compute_slots": compute,
                      "horizon": 400, "intentional_delay": alpha}
            doc = {"name": "defer", "system": system}
            out = tmp_path / f"{compute}-{alpha}"
            timing = run_experiment(ExperimentSpec.from_dict(doc), out)["timing"]
            assert timing["round_length"] == length
            m = 4 - alpha
            ends = build_system_config(system).downlink_ends(3 * m)
            assert {str(Fraction(ends[k + m] - ends[k], m)) for k in range(2 * m)} == {length}
            assert timing["tau_asyn"] in (None, length)
            assert (timing["tau_asyn"] is None) == (alpha > (2 if compute == 2 else 0))


def classifier_spec(kind, dataset, partition):
    """A small run of ``kind`` on a real-format ``dataset``: 4 devices of 5 samples."""
    return {"name": "real_format", "seeds": [0],
            "system": {"num_devices": 4, "group_size": 2, "compute_slots": 2,
                       "batch_size": 2, "step_size": 0.05, "horizon": 40},
            "task": {"kind": kind, "dataset": dataset, "partition": partition,
                     "per_device": 5, "data_seed": 3, **({"hidden": 3} if kind == "mlp" else {})}}


def write_mnist(root, gz, count=24):
    """Tiny IDX training files under ``root``, labels 0 and 1 alternating."""
    images = np.random.default_rng(5).integers(0, 256, size=(count, 4, 3), dtype=np.uint8)
    paths = [root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte"]
    write_idx_images(paths[0], images)
    write_idx_labels(paths[1], np.arange(count, dtype=np.uint8) % 2)
    if not gz:
        return paths
    for path in paths:
        with gzip.open(f"{path}.gz", "wb") as fh:
            fh.write(path.read_bytes())
        path.unlink()
    return [Path(f"{path}.gz") for path in paths]


def write_cifar(root, count=12):
    """Two tiny CIFAR-10 batches under ``root/cifar-10-batches-bin``, labels 0 and 1."""
    rng, paths = np.random.default_rng(6), []
    (root / "cifar-10-batches-bin").mkdir()
    for batch in (1, 2):
        records = rng.integers(0, 256, size=(count, 3073), dtype=np.uint8)
        records[:, 0] = np.arange(count) % 2
        paths.append(root / "cifar-10-batches-bin" / f"data_batch_{batch}.bin")
        paths[-1].write_bytes(records.tobytes())
    return paths


def recording(results, real):
    """``real``, appending each result to ``results``."""
    def record(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]
    return record


class TestRealFormatBuilds:
    """A classifier run on IDX or CIFAR files: each device holds its partition's rows."""

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("partition", ["single_label", "iid"])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("fmt", ["idx", "idx.gz", "cifar10"])
    def test_run_builds_each_device_from_its_rows(self, tmp_path, monkeypatch,
                                                  fmt, kind, partition, via):
        root = tmp_path / "data"
        root.mkdir()
        if fmt == "cifar10":
            features, labels = load_cifar10_batches(write_cifar(root))
        else:
            features, labels = load_idx_dataset(*write_mnist(root, gz=fmt == "idx.gz"))
        takes, tasks = [], []
        for name in ("partition_single_label", "partition_iid"):
            monkeypatch.setattr(cli, name, recording(takes, getattr(cli, name)))
        monkeypatch.setattr(cli, "build_task", recording(tasks, cli.build_task))
        flags = ["--dataset-dir", str(root)]
        if via == "env":
            monkeypatch.setenv(cli.DATA_DIR_ENV, str(root))
            flags = []
        doc = classifier_spec(kind, "mnist" if fmt.startswith("idx") else "cifar10", partition)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(out), *flags]) == EXIT_OK
        json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
        (take,), ((task, _),) = takes, tasks
        assert task.num_devices == 4 and len(take) == 20
        for device in range(4):
            rows = take[5 * device: 5 * (device + 1)]
            assert np.array_equal(task.features[device], features[rows])
            assert np.array_equal(task.labels[device], labels[rows])
            if partition == "single_label":
                assert len(set(task.labels[device].tolist())) == 1

    def test_classes_are_those_of_the_whole_dataset(self, tmp_path):
        # Label 2 has 4 samples, too few for a shard of 5, so the devices draw
        # only labels 0 and 1; the classifier still has the dataset's 3 classes.
        write_mnist(tmp_path, gz=False)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                         np.repeat(np.arange(3, dtype=np.uint8), [10, 10, 4]))
        spec = classifier_spec("logistic", "mnist", "single_label")["task"]
        task, _ = cli.build_task(spec, str(tmp_path), num_devices=4)
        assert set(np.concatenate(task.labels).tolist()) == {0, 1}
        assert task.num_classes == 3 and task.dim == 3 * (4 * 3 + 1)


class TestExitCodes:
    def test_config_error(self, tmp_path):
        doc = quad_spec(group_size=9)  # exceeds num_devices
        rc = main(["run", "--config", str(write_spec(tmp_path, doc)),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_data_error(self, tmp_path):
        missing_dataset = quad_spec()
        missing_dataset["task"] = {"kind": "logistic", "dataset": "mnist"}
        batch_over_shard = quad_spec(batch_size=30)  # the shards hold 24 samples
        for doc in (missing_dataset, batch_over_shard):
            out = tmp_path / "out"
            rc = main(["run", "--config", str(write_spec(tmp_path, doc)),
                       "--out", str(out), "--dataset-dir", str(tmp_path / "nowhere")])
            assert rc == EXIT_DATA
            assert not out.exists()

    def test_idx_header_claiming_more_than_the_file(self, tmp_path, capsys):
        root = tmp_path / "data"
        root.mkdir()
        write_mnist(root, gz=False)
        (root / "train-images-idx3-ubyte").write_bytes(
            struct.pack(">iiii", 0x803, 100_000, 100_000, 100_000) + bytes(16))
        doc = classifier_spec("logistic", "mnist", "iid")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_spec(tmp_path, doc)), "--out", str(out),
                     "--dataset-dir", str(root)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: truncated pixel data") and err.count("\n") == 1
        assert not out.exists()

    def test_idx_files_of_zero_images(self, tmp_path, capsys):
        root = tmp_path / "data"
        root.mkdir()
        write_mnist(root, gz=False, count=0)
        doc = classifier_spec("logistic", "mnist", "iid")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_spec(tmp_path, doc)), "--out", str(out),
                     "--dataset-dir", str(root)]) == EXIT_DATA
        assert capsys.readouterr().err == "data error: dataset has 0 samples, need 20\n"
        assert not out.exists()

    @pytest.mark.parametrize("data_seed", [11, 15, 16])
    def test_single_label_partition_that_uses_every_shard_runs(self, tmp_path, monkeypatch,
                                                              data_seed):
        takes = []
        monkeypatch.setattr(cli, "partition_single_label",
                            recording(takes, cli.partition_single_label))
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_spec(tmp_path, full_shards_spec(data_seed))),
                     "--out", str(out)]) == EXIT_OK
        json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
        (take,) = takes
        assert sorted(take.tolist()) == list(range(100))  # every sample, once

    @pytest.mark.parametrize("task, named", [
        ({"num_devices": 12}, "dataset has 100 samples, need 120"),
        ({"samples_per_class": 9, "per_device": 5, "num_devices": 12},
         "labels hold 10 shards of 5 samples, need 12"),
    ], ids=["too-few-samples", "too-few-shards"])
    def test_single_label_partition_that_does_not_exist(self, tmp_path, capsys, task, named):
        doc = full_shards_spec(0)
        doc["system"]["num_devices"] = task.pop("num_devices")
        doc["task"].update(task)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["gz-not-gzip", "gz-truncated", "gz-corrupt",
                                        "idx-directory", "cifar-directory", "mnist-no-directory",
                                        "cifar-no-directory", "cifar-no-batches",
                                        "idx-negative-dimension"])
    def test_dataset_file_that_cannot_be_read(self, tmp_path, capsys, monkeypatch, damage):
        named = {
            "gz-not-gzip": "train-images-idx3-ubyte.gz: Not a gzipped file",
            "gz-truncated": "train-images-idx3-ubyte.gz: Compressed file ended",
            "gz-corrupt": "train-images-idx3-ubyte.gz: Error -3 while decompressing",
            "idx-directory": "'train-images-idx3-ubyte', 'train-images-idx3-ubyte.gz'] is a file",
            "cifar-directory": "data_batch_2.bin: Is a directory",
            "mnist-no-directory": "mnist task needs --dataset-dir or TDMAFL_DATA_DIR",
            "cifar-no-directory": "cifar10 task needs --dataset-dir or TDMAFL_DATA_DIR",
            "cifar-no-batches": "no data_batch_*.bin files under",
            "idx-negative-dimension": "negative dimension in the header of",
        }[damage]
        monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
        root = tmp_path / "data"
        root.mkdir()
        flags = ["--dataset-dir", str(root)]
        if damage.endswith("no-directory"):
            flags = []
        elif damage == "cifar-no-batches":
            (root / "cifar-10-batches-bin").mkdir()
        elif damage == "idx-negative-dimension":
            write_mnist(root, gz=False)
            (root / "train-images-idx3-ubyte").write_bytes(
                struct.pack(">iiii", 0x803, 24, -4, 3) + bytes(288))
        elif damage == "cifar-directory":
            write_cifar(root)[1].unlink()
            (root / "cifar-10-batches-bin" / "data_batch_2.bin").mkdir()
        elif damage == "idx-directory":
            write_mnist(root, gz=False)[0].unlink()
            (root / "train-images-idx3-ubyte").mkdir()
        else:
            images = write_mnist(root, gz=True)[0]
            blob = gzip.decompress(images.read_bytes()) if damage == "gz-not-gzip" else \
                images.read_bytes()
            if damage == "gz-truncated":
                blob = blob[:len(blob) // 2]
            elif damage == "gz-corrupt":  # a header and a trailer around bytes that are not deflate
                blob = blob[:10] + bytes(range(256)) + blob[-8:]
            images.write_bytes(blob)
        doc = classifier_spec("logistic", "cifar10" if damage.startswith("cifar") else "mnist",
                              "iid")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_spec(tmp_path, doc)), "--out", str(out),
                     *flags]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numeric_error_leaves_partial_artifacts(self, tmp_path):
        doc = quad_spec(step_size=1e6, horizon=4000)  # divergent
        out = tmp_path / "out"
        rc = main(["run", "--config", str(write_spec(tmp_path, doc)),
                   "--out", str(out)])
        assert rc == EXIT_NUMERIC
        summary = json.loads((out / "summary.json").read_text())
        assert any("error" in e for e in summary["per_seed"])

    def test_missing_config(self):
        assert main(["run"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "validate-timing"])
    @pytest.mark.parametrize("content", [
        None, "{not json", "\xff\xfe", "[{}]", '{"a": 1}', "[]",
        '[{"num_devices": 4, "horizon": 60, "group_sizes": []}]',
        '[{"num_devices": 4, "intentional_delay": 1, "samples_per_slot": 3, "bogus": 1,'
        ' "group_sizes": [1]}]',
        '[{"num_devices": 4, "group_size": 2, "group_sizes": [1]}]',
    ], ids=["missing", "malformed", "not-utf8", "list-of-empty", "object", "empty-list",
            "empty-group-sizes", "unknown-scenario-key", "scenario-group-size"])
    def test_unreadable_config_file(self, tmp_path, capsys, command, content):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content.encode("latin-1"))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("doc, flags", [(doc, []) for doc in [
        {"system": {"group_size": 1}},
        {"system": {"group_size": 1, "compute_slots": 2}},
        {"system": {"num_devices": 2.5, "group_size": 1}},
        {"system": {"num_devices": 4, "group_size": 2}, "metrics_every": "x"},
        {"system": {"num_devices": 4, "group_size": 2}, "seeds": 5},
        {"system": {"num_devices": 4, "group_size": 2}, "metrics_every": -2},
        {"system": 5},
        {"system": {"num_devices": 4, "group_size": 2, "step_size": "x"}},
        {"system": {"num_devices": 4, "group_size": 2}, "mode": []},
        {"system": {"num_devices": 4, "group_size": 2}, "grid": 5},
        {"system": {"num_devices": 4, "group_size": 2, "step_size": math.nan}},
        {"system": {"num_devices": 4, "group_size": 2, "samples_per_slot": math.nan}},
        {"system": {"num_devices": 4, "group_size": 2, "samples_per_slot": math.inf}},
        {"system": {"num_devices": 4, "group_size": 2, "samples_per_slot": "abc"}},
        {"system": {"num_devices": 4, "group_size": 2, "intentional_delay": None}},
        {"system": {"num_devices": 4, "group_size": 2, "step_size": 10**400}},
        {"system": {"num_devices": 4, "group_size": 2}, "name": math.nan},
        {"system": {"num_devices": 4, "group_size": 2}, "name": ["a"]},
        {"system": {"num_devices": 4, "group_size": 2}, "name": ""},
        {"system": {"num_devices": 4, "group_size": 2}, "out_dir": 5},
        {"system": {"num_devices": 4, "group_size": 2}, "grid": {"step_size": [0.01, math.nan]}},
        {"system": {"num_devices": 4, "group_size": 2}, "seeds": [2**64]},
        {"system": {"num_devices": 4, "group_size": 2}, "seeds": [0, 0]},
        {},
        {"system": {"num_devices": 4, "group_size": 2, "compute_slots": 2, "samples_per_slot": 1}},
    ]] + [({"system": {"num_devices": 4, "group_size": 2}}, ["--set", flag])
          for flag in ("system", "name.x=1", "system.step_size=fast")],
        ids=["no-num-devices", "no-num-devices-compute-slots", "fractional-num-devices",
            "metrics-every-string", "seeds-not-list", "metrics-every-negative",
            "system-not-object", "step-size-string", "mode-list", "grid-number",
            "step-size-nan", "samples-per-slot-nan", "samples-per-slot-inf",
            "samples-per-slot-string", "intentional-delay-null", "step-size-huge",
            "name-nan", "name-list", "name-empty", "out-dir-number", "unused-grid-nan",
            "seed-beyond-64-bits", "seeds-repeated", "no-system", "compute-slots-and-rate",
            "set-without-value", "set-below-a-string", "set-value-not-json"])
    def test_malformed_spec_field(self, tmp_path, capsys, doc, flags):
        doc = {"name": "bad", **doc}
        if isinstance(doc.get("system"), dict):
            doc["system"]["horizon"] = 40
        rc = main(["run", "--config", str(write_spec(tmp_path, doc)),
                   "--out", str(tmp_path / "out"), *flags])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task", [
        "quadratic",
        {"kind": "quadratic", "dim": "x"},
        {"kind": "quadratic", "eig_range": 5},
        {"kind": "mlp", "hidden": 2.5},
        {"kind": ["quadratic"]},
        {"kind": "quadratic", "heterogeneity": math.nan},
        {"kind": "quadratic", "sample_noise": math.nan},
        {"kind": "quadratic", "heterogeneity": 10**400},
        {"kind": "quadratic", "eig_range": [1, 10**400]},
        {"kind": "logistic", "num_classes": 1},
        {"kind": "logistic", "num_classes": 0},
        *UNKNOWN_TASK_FIELDS,
        {"kind": "quadratic", "sample_noise": 0.5, "samples_per_device": 1},
        {"kind": "logistic", "dataset": "imagenet"},
        {"kind": "logistic", "partition": "dirichlet"},
    ], ids=["not-object", "dim-string", "eig-range-number", "fractional-hidden", "kind-list",
            "heterogeneity-nan", "sample-noise-nan", "heterogeneity-huge", "eig-range-huge",
            "one-class", "no-class", "fields-without-kind", "none-with-fields",
            "quadratic-unknown-field", "mlp-unknown-field", "noise-with-one-sample",
            "unknown-dataset", "unknown-partition"])
    def test_malformed_task_field(self, tmp_path, capsys, task):
        doc = {"name": "bad", "system": {"num_devices": 4, "group_size": 2, "horizon": 40},
               "task": task}
        rc = main(["run", "--config", str(write_spec(tmp_path, doc)),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        if task in UNKNOWN_TASK_FIELDS:  # the kind, "none" if absent, rejects them by name
            assert f"{task.get('kind', 'none')} task fields: {sorted(set(task) - {'kind'})}" in err

    @pytest.mark.parametrize("flags, named", [
        (["--groups", "x"], "--groups"),
        (["--groups", "0"], "--groups"),
        (["--groups", "3"], "divides"),  # no group count divides 4 devices
        (["--rounds", "0"], "--rounds"),
        (["--num-devices", "0"], "--num-devices"),
        (["--batch-size", "0"], "--batch-size"),
        (["--heterogeneity", "nan"], "heterogeneity"),
    ], ids=["groups-string", "groups-zero", "groups-none-valid", "rounds-zero",
            "num-devices-zero", "batch-size-zero", "heterogeneity-nan"])
    def test_rate_trend_bad_flag(self, tmp_path, capsys, flags, named):
        out = tmp_path / "rt"
        rc = main(["rate-trend", "--groups", "1,2", "--rounds", "5",
                   "--num-devices", "4", "--out", str(out), *flags])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    def test_rate_trend_batch_over_shard_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "rt"  # each shard holds 40 samples
        rc = main(["rate-trend", "--groups", "1,2", "--rounds", "5",
                   "--num-devices", "4", "--batch-size", "41", "--out", str(out)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: batch_size 41 exceeds") and err.count("\n") == 1
        assert not out.exists()

    def test_rate_trend_checks_the_batch_before_the_step_size(self, tmp_path, recwarn):
        # A batch over the shard would first cap the step size of G = 1, with a warning.
        rc = main(["rate-trend", "--groups", "1,2", "--rounds", "5",
                   "--num-devices", "4", "--batch-size", "41", "--out", str(tmp_path / "rt")])
        assert rc == EXIT_DATA and [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("command", ["run", "sweep", "validate-timing", "rate-trend"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, capsys, monkeypatch, command):
        # The path lies under a regular file, and no run may start before it fails.
        # rate-trend computes its document first, and fails before it prints any of it.
        calls = []
        monkeypatch.setattr(cli, "run_timeline", lambda *a, **k: calls.append(a))
        blocker = tmp_path / "file"
        blocker.write_text("")
        doc = quad_spec(horizon=40)
        doc["grid"] = {"group_size": [1, 2]}
        config = ["--config", str(write_spec(tmp_path, doc))]
        flags = {"run": config, "sweep": config, "validate-timing": [],
                 "rate-trend": ["--groups", "1,2", "--rounds", "5", "--num-devices", "4"]}[command]
        assert main([command, *flags, "--out", str(blocker / "x")]) == EXIT_CONFIG
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("configuration error: cannot create output directory")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert calls == [] and blocker.read_text() == "" and captured.out == ""

    @pytest.mark.parametrize("command, artifact", [
        ("run", "summary.json"), ("run", "seed0/metrics.csv"), ("sweep", "sweep.csv"),
        ("sweep", "sweep.json"), ("validate-timing", "timing.json"),
        ("rate-trend", "rate_trend.json"),
    ])
    def test_artifact_that_cannot_be_written(self, tmp_path, capsys, command, artifact):
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)  # a directory where the file goes
        doc = quad_spec(horizon=40)
        doc["grid"] = {"group_size": [1, 2]}
        config = ["--config", str(write_spec(tmp_path, doc))]
        flags = {"run": config, "sweep": config, "validate-timing": [],
                 "rate-trend": ["--groups", "1,2", "--rounds", "5", "--num-devices", "4"]}[command]
        assert main([command, *flags, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: cannot write {out / artifact}: Is a directory\n"

    @pytest.mark.parametrize("sizes", [[2, 2], [2, "2"]], ids=["repeated", "same-name"])
    def test_sweep_repeated_point_writes_nothing(self, tmp_path, capsys, sizes):
        doc = quad_spec(horizon=40)
        doc["grid"] = {"group_size": sizes}
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "configuration error: grid repeats the point group_size-2\n"
        assert not out.exists()

    def test_sweep_zero_workers(self, tmp_path, capsys):
        doc = quad_spec(horizon=40)
        doc["grid"] = {"group_size": [1, 2]}
        rc = main(["sweep", "--config", str(write_spec(tmp_path, doc)),
                   "--out", str(tmp_path / "sweep"), "--workers", "0"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("sizes, rc", [([3, 5], EXIT_CONFIG), ([2, 3], EXIT_OK)],
                             ids=["all-fail", "one-fails"])
    def test_sweep_fails_only_when_every_point_fails(self, tmp_path, capsys, sizes, rc):
        doc = quad_spec(horizon=40)
        doc["seeds"] = [0]
        doc["grid"] = {"group_size": sizes}  # 3 and 5 do not divide N = 4
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert err.count("configuration error:") == err.count("\n") == (rc == EXIT_CONFIG)
        rows = json.loads((out / "sweep.json").read_text())
        assert [r["status"] for r in rows] == ["ok" if s == 2 else "error" for s in sizes]
        assert (out / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["run", "validate-timing"])
    def test_horizon_shorter_than_one_round(self, tmp_path, capsys, command):
        # 6 compute slots and 3 channel slots: round 0 ends at slot 8 >= T = 8.
        path = write_spec(tmp_path, quad_spec(horizon=8))
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: no training round completes")
        assert err.count("\n") == 1

    def test_round_count_beyond_any_list(self, tmp_path, capsys):
        # About 3.3e29 rounds: the timing report gives the count, and a run,
        # which lists its rounds, is a configuration error.
        system = {"num_devices": 4, "group_size": 2, "compute_slots": 2, "horizon": 10**30}
        spec = write_spec(tmp_path, {"name": "long", "system": system})
        assert main(["validate-timing", "--config", str(spec)]) == EXIT_OK
        rc = main(["run", "--config", str(spec), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert f"({sys.maxsize})" in err
        assert run_timeline(build_system_config(system), max_rounds=5).completed_rounds == 5

    @pytest.mark.parametrize("task", [None, {"kind": "quadratic", "dim": 2}])
    def test_round_count_beyond_any_list_writes_nothing(self, tmp_path, capsys, task):
        system = {"num_devices": 4, "group_size": 2, "compute_slots": 2, "horizon": 10**30}
        doc = {"name": "long", "system": system, **({"task": task} if task else {})}
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "more than a list can hold" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_empty_grid_axis_writes_nothing(self, tmp_path, capsys):
        doc = quad_spec(horizon=40)
        doc["grid"] = {"group_size": [1, 2], "intentional_delay": []}
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "intentional_delay" in err
        assert not out.exists()

    def test_override_on_a_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path), "--set", "a=1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    def test_negative_seed_set(self, tmp_path, capsys):
        rc = main(["run", "--config", str(write_spec(tmp_path, quad_spec(horizon=40))),
                   "--out", str(tmp_path / "out"), "--set", "seeds=[-1]"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "configuration error: each seed must be an integer >= 0, got -1\n"


class TestSweep:
    def test_grid_rows_and_failure_isolation(self, tmp_path):
        doc = quad_spec()
        doc["mode"] = "sweep"
        doc["seeds"] = [0]
        doc["grid"] = {"group_size": [1, 2, 4, 9]}  # 9 is invalid
        out = tmp_path / "sweep"
        spec = ExperimentSpec.from_dict(doc)
        rows = run_sweep(spec, out)
        by_s = {r["group_size"]: r for r in rows}
        assert by_s[9]["status"] == "error"
        assert all(by_s[s]["status"] == "ok" for s in (1, 2, 4))
        # Fewer uplink slots per round buys strictly more rounds.
        assert by_s[1]["completed_rounds"] > by_s[2]["completed_rounds"] > \
            by_s[4]["completed_rounds"]
        assert (out / "sweep.csv").exists() and (out / "sweep.json").exists()

    def test_delay_sweep_reports_staleness_and_identity_at_full_group(self, tmp_path):
        doc = quad_spec(num_devices=4, group_size=1, compute_slots=2, horizon=600)
        doc["mode"] = "sweep"
        doc["seeds"] = [0]
        doc["grid"] = {"group_size": [1, 4], "intentional_delay": [0, "optimal"]}
        spec = ExperimentSpec.from_dict(doc)
        rows = run_sweep(spec, tmp_path / "sweep")
        pick = {(r["group_size"], r["intentional_delay"]): r for r in rows}
        # Plain async with singleton groups sits at the G-1 plateau; the
        # optimal deferral brings it down to d*.
        cfg = build_system_config({**doc["system"], "group_size": 1})
        from tdmafl import optimal_intentional_delay
        d_star = cfg.num_groups - 1 - optimal_intentional_delay(cfg)
        assert pick[(1, 0)]["steady_staleness"] == cfg.num_groups - 1
        assert pick[(1, "optimal")]["steady_staleness"] == d_star
        # Full-group runs are identical with and without deferral.
        assert pick[(4, 0)]["mean_final_loss"] == pick[(4, "optimal")]["mean_final_loss"]

    def test_each_point_writes_one_directory_under_the_output(self, tmp_path):
        doc = quad_spec(horizon=40)
        del doc["system"]["compute_slots"]
        doc["seeds"] = [0]
        doc["grid"] = {"samples_per_slot": ["1/2", "../../esc"]}  # the second is invalid
        rows = run_sweep(ExperimentSpec.from_dict(doc), tmp_path / "a" / "sweep")
        assert [r["status"] for r in rows] == ["ok", "error"]
        point = "a/sweep/samples_per_slot-1%2F2"
        made = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_dir()}
        assert made == {"a", "a/sweep", point, f"{point}/seed0"}
        assert (tmp_path / point / "summary.json").exists()

    def test_set_seeds_reaches_every_point(self, tmp_path):
        doc = quad_spec(horizon=40)  # seeds [0, 1]
        doc["grid"] = {"group_size": [1, 2]}
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(out), "--set", "seeds=[7]"]) == EXIT_OK
        seed_dirs = {p.relative_to(out).as_posix() for p in out.glob("*/seed*")}
        assert seed_dirs == {"group_size-1/seed7", "group_size-2/seed7"}
        for point in ("group_size-1", "group_size-2"):
            summary = json.loads((out / point / "summary.json").read_text())
            assert summary["config"]["seeds"] == [7]

    def test_parallel_points_write_the_same_bytes(self, tmp_path):
        grids = [({"group_size": [1, 2, 4], "intentional_delay": [0, "optimal"]}, 6),
                 ({"group_size": [1, 2], "num_devices": [4, 8]}, 4)]  # run out of grid order
        for grid, points in grids:
            doc = quad_spec(horizon=60)  # seeds [0, 1]
            doc["grid"] = grid
            spec = ExperimentSpec.from_dict(doc)
            trees = {}
            for workers in (1, 2):
                out = tmp_path / f"{points}-{workers}"
                run_sweep(spec, out, workers=workers)
                trees[workers] = {p.relative_to(out).as_posix(): p.read_bytes()
                                  for p in out.rglob("*") if p.is_file()}
            assert trees[1] == trees[2]
            names = sorted(name.rpartition("/")[2] for name in trees[1])
            assert names == (["metrics.csv"] * 2 * points + ["summary.json"] * points
                             + ["sweep.csv", "sweep.json"])

    def test_points_of_one_n_share_one_build(self, tmp_path, monkeypatch):
        calls = count_builds(monkeypatch)
        doc = quad_spec(horizon=60)
        doc["grid"] = {"group_size": [1, 2], "intentional_delay": [0, "optimal"]}
        spec = ExperimentSpec.from_dict(doc)
        rows = run_sweep(spec, tmp_path / "a")
        assert [r["status"] for r in rows] == ["ok"] * 4
        assert calls == [4]
        run_sweep(spec, tmp_path / "b")  # a second sweep builds its own
        assert calls == [4, 4]
        assert (tmp_path / "a" / "sweep.json").read_bytes() == \
            (tmp_path / "b" / "sweep.json").read_bytes()

    def test_points_run_grouped_by_n(self, tmp_path, monkeypatch):
        # Sorted keys put num_devices second, so grid order alternates N.
        calls = count_builds(monkeypatch)
        doc = quad_spec(horizon=60)
        doc["grid"] = {"group_size": [1, 2], "num_devices": [4, 8]}
        rows = run_sweep(ExperimentSpec.from_dict(doc), tmp_path / "sweep")
        assert calls == [4, 8]
        assert [(r["group_size"], r["num_devices"], r["status"]) for r in rows] == [
            (1, 4, "ok"), (1, 8, "ok"), (2, 4, "ok"), (2, 8, "ok")]

    def test_a_failed_build_is_one_row_and_is_not_kept(self, tmp_path, monkeypatch):
        calls = count_builds(monkeypatch)
        doc = {
            "name": "mlp", "seeds": [0],
            "system": {"num_devices": 2, "group_size": 2, "compute_slots": 2,
                       "batch_size": 4, "step_size": 0.05, "horizon": 40},
            "task": {"kind": "mlp", "hidden": 4, "num_classes": 3, "feature_dim": 4,
                     "samples_per_class": 20, "per_device": 10},  # 60 samples: N = 8 lacks data
            "grid": {"num_devices": [2, 8, 4], "step_size": [0.01, 0.05]},
        }
        rows = run_sweep(ExperimentSpec.from_dict(doc), tmp_path / "sweep")
        status = [(r["num_devices"], r["status"]) for r in rows]
        assert status == [(2, "ok"), (2, "ok"), (8, "error"), (8, "error"), (4, "ok"), (4, "ok")]
        assert all(r["error"].startswith("DataError: dataset has 60 samples, need 80")
                   for r in rows if r["status"] == "error")
        assert calls == [2, 8, 8, 4]

    def test_a_spec_built_without_from_dict_runs(self, tmp_path):
        # Each point echoes its own name and system, and the spec's task and seeds.
        system, task = quad_spec(horizon=40)["system"], quad_spec()["task"]
        spec = ExperimentSpec(name="direct", system=system, task=task, seeds=[3],
                              grid={"intentional_delay": [0, "optimal"]})
        rows = run_sweep(spec, tmp_path / "sweep")
        assert [r["status"] for r in rows] == ["ok", "ok"]
        for delay in (0, "optimal"):
            point = f"intentional_delay-{delay}"
            summary = json.loads((tmp_path / "sweep" / point / "summary.json").read_text())
            assert summary["config"] == {"name": f"direct_{point}",
                                         "system": {**system, "intentional_delay": delay},
                                         "task": task, "seeds": [3], "metrics_every": 1}
            assert ExperimentSpec.from_dict(summary["config"]) == replace(
                spec, name=f"direct_{point}", system={**system, "intentional_delay": delay},
                grid=None)
            assert [e["seed"] for e in summary["per_seed"]] == [3]

    def test_delay_deltas_pair_on_every_other_axis(self, tmp_path, capsys):
        doc = quad_spec(horizon=60)
        doc["seeds"] = [0]
        doc["grid"] = {"group_size": [1, 2], "intentional_delay": [0, "optimal"],
                       "step_size": [0.01, 0.05]}
        rows = run_sweep(ExperimentSpec.from_dict(doc), tmp_path / "sweep")
        loss = {(r["group_size"], r["intentional_delay"], r["step_size"]): r["mean_final_loss"]
                for r in rows}
        tail = capsys.readouterr().out.partition("\nfinal-loss delta")[2].splitlines()
        assert tail[1:] == [f"  group_size={s} step_size={eta}: "
                            f"{loss[s, 'optimal', eta] - loss[s, 0, eta]:+.6g}"
                            for s in (1, 2) for eta in (0.01, 0.05)]

    def test_delay_deltas_of_a_two_axis_grid(self, capsys):
        rows = [{"group_size": s, "intentional_delay": d, "status": "ok", "mean_final_loss": x}
                for s, d, x in [(4, 0, 1.5), (4, "optimal", 1.25), (2, 0, 0.5),
                                (2, "optimal", 0.75), (8, 0, 1.0)]]
        cli._print_delay_deltas(rows, ["group_size"])
        assert capsys.readouterr().out == ("\nfinal-loss delta (optimal delay minus plain):\n"
                                           "  group_size=2: +0.25\n  group_size=4: -0.25\n")

    def test_delay_deltas_of_a_delay_only_grid(self, tmp_path, capsys):
        doc = quad_spec(horizon=60)
        doc["seeds"] = [0]
        doc["grid"] = {"intentional_delay": [0, "optimal"]}
        rows = run_sweep(ExperimentSpec.from_dict(doc), tmp_path / "sweep")
        loss = {r["intentional_delay"]: r["mean_final_loss"] for r in rows}
        tail = capsys.readouterr().out.partition("\nfinal-loss delta")[2]
        assert tail == (f" (optimal delay minus plain):\n"
                        f"  : {loss['optimal'] - loss[0]:+.6g}\n")

    def test_a_pool_starts_no_more_workers_than_points(self, tmp_path, monkeypatch):
        # A forked pool starts every worker on its first submit; the pool here
        # records its size and runs the jobs in this process. Each job builds
        # once per run of one N among its points.
        sizes, calls = [], count_builds(monkeypatch)

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        doc = quad_spec(horizon=40)
        doc["grid"] = {"group_size": [1, 2], "intentional_delay": [0, "optimal"]}
        spec = ExperimentSpec.from_dict(doc)
        for workers in (64, 4, 3, 2):
            del calls[:]
            rows = run_sweep(spec, tmp_path / f"w{workers}", workers=workers)
            assert [r["status"] for r in rows] == ["ok"] * 4
            assert calls == [4] * min(workers, 4)
        assert sizes == [4, 4, 3, 2]
        # Two values of N, alternating in grid order: no more builds than points.
        doc["grid"] = {"group_size": [1, 2], "num_devices": [4, 8]}
        for workers in (2, 3):
            del calls[:]
            rows = run_sweep(ExperimentSpec.from_dict(doc), tmp_path / f"n{workers}",
                             workers=workers)
            assert [r["status"] for r in rows] == ["ok"] * 4
            assert calls == [4, 8, 4, 8]

    def test_sweep_needs_grid(self, tmp_path):
        doc = quad_spec()
        doc["mode"] = "sweep"
        spec = ExperimentSpec.from_dict(doc)
        from tdmafl import ConfigError
        with pytest.raises(ConfigError):
            run_sweep(spec, tmp_path / "x")


class TestValidators:
    def test_prop1_output(self, tmp_path):
        # Proposition 1's worked examples: N = 100 singleton groups, compute 50, 10 and 2.
        assert main(["validate-timing", "--out", str(tmp_path)]) == EXIT_OK
        rows = json.loads((tmp_path / "timing.json").read_text())
        prop1 = [(r["tau_comp"], r["alpha_star"], r["d_star"]) for r in rows
                 if r["num_groups"] == 100]
        assert prop1 == [(50, 74, 25), (10, 94, 5), (2, 98, 1)]

    def test_each_row_is_the_timing_block_of_a_sweep_point(self, tmp_path, capsys):
        # Four singleton groups with 2-slot compute (q = 1/2): alpha* = 2, tau_asyn = 2.
        doc = {"name": "tiny", "grid": {"intentional_delay": [0, 3, "optimal"]},
               "system": {"num_devices": 4, "group_size": 1, "horizon": 400,
                          "samples_per_slot": "1/2"}}
        path = write_spec(tmp_path, doc)
        assert main(["validate-timing", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        # The table's columns are the name, the point's fields, then the report.
        assert capsys.readouterr().out.split()[:3] == ["scenario", "intentional_delay",
                                                       "num_groups"]
        rows = json.loads((tmp_path / "out" / "timing.json").read_text())
        plain, late, opt = rows
        assert plain["tau_comp"] == 2  # ceil(H * B / q) with q = 1/2
        assert late["tau_asyn"] is None and late["rounds_closed_form"] is None
        assert "alpha* = 2" in late["closed_form_note"]
        assert (late["intentional_delay"], late["rounds_exact"]) == (3, 101)
        assert opt["intentional_delay"] == opt["alpha_star"] == 2 and opt["d_star"] == 1
        assert (opt["tau_asyn"], opt["rounds_closed_form"], opt["rounds_exact"]) == ("2", 200, 200)
        assert "closed_form_note" not in opt
        # Each row is the timing block that a sweep of the same file writes for its point.
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == EXIT_OK
        for row, point in zip(rows, ["0", "3", "optimal"]):
            summary = tmp_path / "sweep" / f"intentional_delay-{point}" / "summary.json"
            timing = json.loads(summary.read_text())["timing"]
            assert row == {"scenario": "tiny", **timing}

    def test_timing_table_small_config(self, tmp_path, capsys):
        doc = {"name": "tiny", "grid": {"group_size": [2, 6]},
               "system": {"num_devices": 6, "horizon": 600, "compute_slots": 2,
                          "slots_per_transfer": 1}}
        rc = main(["validate-timing", "--config", str(write_spec(tmp_path, doc)),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        rows = json.loads((tmp_path / "out" / "timing.json").read_text())
        by_s = {r["group_size"]: r for r in rows}
        assert by_s[2]["rounds_exact"] == 200  # 600 slots / 3 per round
        assert by_s[6]["rounds_exact"] == 67  # 2 + 7 slots per round, the last one ends past T
        assert by_s[6]["tau_asyn"] == "9"

    def test_a_spec_without_a_grid_is_one_row(self, tmp_path, capsys):
        doc = quad_spec(horizon=40)
        assert main(["validate-timing", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert rows == [{"scenario": "quad_smoke",
                         **timing_report(build_system_config(doc["system"]))}]
        assert capsys.readouterr().out.splitlines()[0].split()[:2] == ["scenario", "num_groups"]

    @pytest.mark.parametrize("doc, message", [
        ([{"label": "old", "num_devices": 4, "horizon": 60, "group_sizes": [1]}],
         "experiment spec must be a JSON object"),
        ({"system": {"num_devices": 4, "horizon": 60}, "grid": {"group_size": [1]}},
         "name must be a non-empty string, got None"),
        ({"name": "x", "system": {"num_devices": 4, "horizon": 60},
          "grid": {"group_size": []}}, "grid axes ['group_size'] are empty lists"),
        ({"name": "x", "system": {"num_devices": 4, "horizon": 60},
          "grid": {"group_size": [2, "2"]}}, "grid repeats the point group_size-2"),
        ({"name": "x", "system": {"num_devices": 4, "horizon": 60, "group_sizes": [1]}},
         "unknown system fields: ['group_sizes']"),
        ({"name": "x", "system": {"num_devices": 4, "horizon": 60},
          "grid": {"group_size": [3, 5]}}, "group_size must divide num_devices (TDMA groups "
                                           "are equal), got group_size=3 with num_devices=4"),
    ], ids=["scenario-list", "no-name", "empty-axis", "repeated-point", "group-sizes",
            "every-point-bad"])
    def test_a_bad_spec_writes_nothing(self, tmp_path, capsys, doc, message):
        out = tmp_path / "out"
        assert main(["validate-timing", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n" and captured.out == ""
        assert not out.exists()

    def test_a_bad_point_is_an_error_row(self, tmp_path, capsys):
        # group_size 3 does not divide 4 devices: that point is an error row, as in a sweep.
        doc = {"name": "mixed", "grid": {"group_size": [2, 3]},
               "system": {"num_devices": 4, "compute_slots": 2, "horizon": 60}}
        path = write_spec(tmp_path, doc)
        assert main(["validate-timing", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        good, bad = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == EXIT_OK
        summary = tmp_path / "sweep" / "group_size-2" / "summary.json"
        assert good == {"scenario": "mixed", "group_size": 2,
                        **json.loads(summary.read_text())["timing"]}
        sweep_bad = json.loads((tmp_path / "sweep" / "sweep.json").read_text())[1]
        assert bad == {"scenario": "mixed", "group_size": 3, "error": sweep_bad["error"]}
        assert bad["error"].startswith("ConfigError: group_size must divide num_devices")
        assert capsys.readouterr().err == ""

    def test_rate_trend_smoke(self, tmp_path, capsys):
        rc = main(["rate-trend", "--groups", "1,2", "--rounds", "40", "--num-devices", "4",
                   "--out", str(tmp_path / "rt")])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "rt" / "rate_trend.json").read_text())
        assert [p["num_groups"] for p in doc["points"]] == [1, 2]


# A run whose loss and gradient norm overflow while its model stays finite.
OVERFLOW_SPEC = {"name": "diverged", "seeds": [0, 1],
                 "system": {"num_devices": 4, "group_size": 2, "compute_slots": 2,
                            "batch_size": 4, "step_size": 1000, "horizon": 330},
                 "task": {"kind": "quadratic", "dim": 4, "samples_per_device": 24,
                          "init_offset": 2.0}}


class TestStrictJson:
    def test_every_json_artifact_is_strict(self, tmp_path):
        doc = quad_spec(horizon=40)
        doc["seeds"] = [0]
        assert main(["run", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        doc["grid"] = {"group_size": [1, 2]}
        assert main(["sweep", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        assert main(["validate-timing", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "timing")]) == EXIT_OK
        assert main(["rate-trend", "--groups", "1,2", "--rounds", "20", "--num-devices", "4",
                     "--out", str(tmp_path / "rt")]) == EXIT_OK
        for name in ["run/summary.json", "sweep/sweep.json", "timing/timing.json",
                     "rt/rate_trend.json"]:
            json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_a_loss_that_overflows_in_a_finite_model_is_null(self, tmp_path):
        # The final loss overflows while the model stays finite, so no server
        # step raises, and with no row evaluated the run completes.
        doc = {**OVERFLOW_SPEC, "metrics_every": 0}
        assert main(["run", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert summary["mean_final_loss"] is None
        assert [(e["final_loss"], e["avg_grad_norm_sq"]) for e in summary["per_seed"]] == \
            [(None, None)] * 2
        doc["grid"] = {"horizon": [330, 500]}
        assert main(["sweep", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text(),
                          parse_constant=_reject_constant)
        assert [(r["status"], r["mean_final_loss"]) for r in rows] == [("ok", None)] * 2

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_an_evaluated_loss_that_overflows_is_a_numerical_failure(self, tmp_path):
        # The same run evaluating every row: the first overflowing row aborts it.
        doc = {**OVERFLOW_SPEC, "metrics_every": 1}
        assert main(["run", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "run")]) == EXIT_NUMERIC
        summary = json.loads((tmp_path / "run" / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert "non-finite loss" in summary["per_seed"][-1]["error"]
        doc["grid"] = {"horizon": [60, 330]}
        assert main(["sweep", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text(),
                          parse_constant=_reject_constant)
        assert [r["status"] for r in rows] == ["ok", "error"]
        assert rows[1]["error"].startswith("NumericsError")


class TestSpecParsing:
    def test_unknown_fields_rejected(self):
        from tdmafl import ConfigError
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({**quad_spec(), "bogus": 1})

    @pytest.mark.parametrize("doc", [[quad_spec()], [], "spec", None, 5])
    def test_a_document_that_is_not_an_object_is_rejected(self, doc):
        from tdmafl import ConfigError
        with pytest.raises(ConfigError, match="^experiment spec must be a JSON object$"):
            ExperimentSpec.from_dict(doc)

    def test_unknown_system_field_rejected(self):
        from tdmafl import ConfigError
        with pytest.raises(ConfigError):
            build_system_config({"num_devices": 2, "group_size": 1, "bogus": 3})

    def test_optimal_delay_resolution(self):
        cfg = build_system_config({
            "num_devices": 100, "group_size": 1, "compute_slots": 50,
            "intentional_delay": "optimal",
        })
        assert cfg.intentional_delay == 74

    @pytest.mark.parametrize("delay", [None, 0.0, False, []],
                             ids=["null", "float-zero", "false", "empty-list"])
    def test_falsy_non_integer_delay_rejected(self, delay):
        from tdmafl import ConfigError
        with pytest.raises(ConfigError, match="intentional_delay must be an integer >= 0"):
            build_system_config({"num_devices": 4, "group_size": 1, "intentional_delay": delay})

    @pytest.mark.parametrize("extra", [{}, {"intentional_delay": 0}], ids=["absent", "zero"])
    def test_absent_or_zero_delay_is_no_deferral(self, extra):
        cfg = build_system_config({"num_devices": 4, "group_size": 1, **extra})
        assert cfg.intentional_delay == 0


# Every user error exits with its code: fields of valid documents are mutated
# from a palette of wrong values. Size fields never get a HUGE value, as a huge
# size is a large run that the user asked for, not an error. 10**400 is beyond
# the float range.
PALETTE = [None, True, "x", [], {}, math.nan, math.inf, -math.inf, -1]
HUGE = [2**70, 10**400]
SIZE_FIELDS = frozenset({"num_devices", "horizon", "dim", "per_device", "samples_per_device",
                         "hidden", "samples_per_class", "feature_dim", "num_classes",
                         "local_steps"})
MLP_SPEC = {
    "name": "mlp", "seeds": [0], "metrics_every": 2,
    "system": {"num_devices": 4, "group_size": 1, "samples_per_slot": "1/2", "local_steps": 2,
               "batch_size": 2, "step_size": 0.1, "horizon": 40, "intentional_delay": "optimal"},
    "task": {"kind": "mlp", "dataset": "clusters", "partition": "iid", "per_device": 5,
             "num_classes": 2, "feature_dim": 3, "samples_per_class": 20, "spread": 3.0,
             "noise": 1.0, "hidden": 3, "data_seed": 1},
}
EIG_RANGE_ERROR = "eig_range must have hi / lo < 2**52, got (0.5, 1.1805916207174113e+21)"
VALID_DOCUMENTS = {  # id: (command, document)
    "run-quadratic": ("run", quad_spec(horizon=60)),
    "run-mlp": ("run", MLP_SPEC),
    "run-quadratic-dim-1": ("run", {**quad_spec(horizon=60), "task": {
        "kind": "quadratic", "dim": 1, "samples_per_device": 8, "init_offset": 1.0}}),
    "run-single-label-full": ("run", full_shards_spec(11)),
    "sweep": ("sweep", {**quad_spec(horizon=60), "seeds": [0], "grid": {
        "group_size": [1, 2], "intentional_delay": [0, "optimal"]}}),
    "validate-timing": ("validate-timing", {
        "name": "a", "grid": {"group_size": [1, 2], "intentional_delay": [1, "optimal"]},
        "system": {"num_devices": 4, "horizon": 60, "samples_per_slot": "1/2",
                   "local_steps": 2, "slots_per_transfer": 1}}),
}


def _field_paths(doc, prefix=()):
    """The key path of every field of a JSON document, list entries included."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


@st.composite
def mutated_documents(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_field_paths(doc))))
        palette = PALETTE if SIZE_FIELDS & set(path) else PALETTE + HUGE
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = copy.deepcopy(draw(st.sampled_from(palette)))
    return doc


def _main_on(command, doc):
    """main(command) on ``doc`` in a fresh directory: (exit code, stderr).

    Every summary.json and sweep.json that the command leaves must be strict JSON.
    """
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--config", path, "--out", f"{tmp}/out"])
        for artifact in [*Path(tmp).rglob("summary.json"), *Path(tmp).rglob("sweep.json")]:
            json.loads(artifact.read_text(), parse_constant=_reject_constant)
    return rc, err.getvalue()


class TestExitCodeProperty:
    @pytest.mark.parametrize("name", sorted(VALID_DOCUMENTS))
    def test_valid_document_exits_ok(self, name):
        assert _main_on(*VALID_DOCUMENTS[name]) == (EXIT_OK, "")

    # Past float64 precision, this range built an indefinite hessian at data seed 0
    # and one that numpy could not invert at 2**70.
    @pytest.mark.parametrize("data_seed", [0, 2**70])
    def test_eig_range_past_float_precision_is_a_config_error(self, data_seed):
        doc = copy.deepcopy(VALID_DOCUMENTS["run-quadratic"][1])
        doc["task"].update(eig_range=[0.5, 2**70], data_seed=data_seed)
        assert _main_on("run", doc) == (EXIT_CONFIG, f"configuration error: {EIG_RANGE_ERROR}\n")

    def test_eig_range_past_float_precision_fails_each_sweep_point(self, tmp_path):
        doc = copy.deepcopy(VALID_DOCUMENTS["sweep"][1])
        doc["task"]["eig_range"] = [0.5, 2**70]
        from tdmafl import ConfigError
        with pytest.raises(ConfigError, match="all 4 sweep points failed"):
            run_sweep(ExperimentSpec.from_dict(doc), tmp_path)
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert {row["error"] for row in rows} == {f"ConfigError: {EIG_RANGE_ERROR}"}

    # The CLI lets a numeric warning pass and then fails with exit 4; here too.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(VALID_DOCUMENTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_document_exits_with_its_code(self, name, data):
        command, doc = VALID_DOCUMENTS[name]
        rc, err = _main_on(command, data.draw(mutated_documents(doc)))
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
        assert "Traceback" not in err
