"""Experiment runner: single runs, sweeps, the rate trend and the timing report.

Experiments are described by one JSON document (the schema is in the
``ExperimentSpec`` docstring); individual fields can be overridden from the
command line with ``--set key.path=value``, as ``--set 'seeds=[N]'`` runs
the one seed N. Each run writes per-seed CSV metrics and a strict-JSON
summary echoing the configuration, with the ``timing_report`` of its
system. A sweep runs each point of its grid as one run; at any worker
count, the points with one N that a worker runs in turn share one build of
the task, as the grid varies only the system. ``validate-timing`` reads the
same document and prints that report for each point of its grid (for the
system alone without one): the timing block of each summary that ``sweep``
would write, with no task built and nothing run. ``rate-trend`` prints and
writes the document of ``rate_trend``: the trend of the convergence bound in
the group count G and the round budget K, read off the exact expected
trajectory of a quadratic task (``simulator.expected_metrics``), not sampled.
Exit codes: 0 success, 2 configuration error (an artifact that cannot be
written is one), 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence
from urllib.parse import quote

import numpy as np

from .data import (
    load_cifar10_batches,
    load_idx_dataset,
    make_clustered_dataset,
    partition_iid,
    partition_single_label,
)
from .errors import ConfigError, DataError, NumericsError
from .learner import SgdLearner, check_batch_size
from .simulator import expected_metrics, round_count, run_timeline
from .tasks import MlpTask, QuadraticTask, SoftmaxRegressionTask, make_quadratic
from .timing import SystemConfig, optimal_intentional_delay, require_integer, require_real

DATA_DIR_ENV = "TDMAFL_DATA_DIR"
CSV_HEADER = ["round", "slot", "loss", "grad_norm_sq", "staleness"]
SYSTEM_FIELDS = frozenset(f.name for f in fields(SystemConfig)) | {"samples_per_slot"}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _read_json_config(path):
    """Parse a JSON config file; a missing or malformed file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Experiment specification
# ---------------------------------------------------------------------------


@dataclass
class ExperimentSpec:
    """One experiment document, as read by ``run``, ``sweep`` and ``validate-timing``.

    Top-level fields:
        name: required non-empty string; the default output directory is
            runs/<name> (runs/<name>_sweep for a sweep).
        system: required object, the run constants (below).
        task: object with a ``kind`` (below); default {"kind": "none"}.
        seeds: non-empty list of distinct integers in [0, 2**64), one run each; default [0].
        metrics_every: evaluate loss and gradient norm every this many rounds;
            0 turns evaluation off; default 1.
        mode: one of "run", "sweep", "validate-timing" or "rate-trend". It is
            checked but not acted on: the subcommand decides what runs.
        out_dir: output directory (a string or null), used when --out is not
            given.
        grid: an object that maps system fields to a value or a list of
            values; a sweep runs every combination as one point with its own
            output directory, ``validate-timing`` prints one row per
            combination, and ``run`` ignores it.

    The document is strict JSON: a NaN or an infinity anywhere in it is a
    ConfigError. A run's summary echoes every field but mode, out_dir and grid,
    and ``from_dict`` of that echo gives back the spec that ran.

    The ``system`` block takes the SystemConfig fields: num_devices and
    group_size (required; group_size must divide num_devices, so the TDMA
    groups are equal), compute_slots, slots_per_transfer, local_steps,
    batch_size, step_size, horizon and intentional_delay. ``samples_per_slot``,
    a processing rate q (an integer, a float or a "p/d" string), may replace
    ``compute_slots``: it sets compute_slots = ceil(H*B/q), the slots one
    local update of H steps of B samples takes; without either, q = 1.
    ``intentional_delay`` may be the string "optimal" for the largest deferral
    that keeps the round length unchanged.

    Task kinds and their fields (all optional):
        none: timing only, no model is trained; it takes no other field.
        quadratic: dim, heterogeneity, samples_per_device, sample_noise,
            eig_range [lo, hi], data_seed, init_offset.
        logistic and mlp: dataset ("clusters", "mnist" or "cifar10"),
            partition ("single_label" or "iid"), per_device, data_seed; for
            "clusters" also num_classes, feature_dim, samples_per_class,
            spread and noise; for mlp also hidden. A "single_label" build
            fails only when the labels cannot fill N shards of per_device
            samples (a label of c samples fills floor(c / per_device)).
    """

    name: str
    system: dict
    task: dict
    seeds: list[int]
    metrics_every: int = 1
    out_dir: Optional[str] = None
    grid: Optional[dict] = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise ConfigError("experiment spec must be a JSON object")
        try:  # one pass, so no NaN or infinity anywhere can reach an artifact
            json.dumps(doc, allow_nan=False)
        except ValueError as exc:
            raise ConfigError(f"experiment spec is not strict JSON: {exc}") from exc
        known = {"name", "mode", "system", "task", "seeds", "metrics_every", "out_dir", "grid"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown spec fields: {sorted(unknown)}")
        if not isinstance(doc.get("name"), str) or not doc["name"]:
            raise ConfigError(f"name must be a non-empty string, got {doc.get('name')!r}")
        out_dir = doc.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError(f"out_dir must be a string or null, got {out_dir!r}")
        seeds = doc.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError(f"seeds must be a non-empty list, got {seeds!r}")
        for seed in seeds:  # kept to 64 bits, as a seed names its output directory
            require_integer("each seed", seed, 0)
            if seed >= 2**64:
                raise ConfigError(f"each seed must be < 2**64, got {seed}")
        if len(set(seeds)) < len(seeds):  # and one directory holds one run
            raise ConfigError(f"seeds must not repeat, got {seeds!r}")
        metrics_every = doc.get("metrics_every", 1)
        require_integer("metrics_every", metrics_every, 0)
        for block in ("system", "task", "grid"):
            if not isinstance(doc.get(block, {}), dict):
                raise ConfigError(f"{block} must be a JSON object, got {doc[block]!r}")
        if doc.get("mode", "run") not in ("run", "sweep", "validate-timing", "rate-trend"):
            raise ConfigError(f"unknown mode {doc['mode']!r}")
        if "system" not in doc:
            raise ConfigError("spec missing required field: 'system'")
        return cls(
            name=doc["name"],
            system=dict(doc["system"]),
            task=dict(doc.get("task", {"kind": "none"})),
            seeds=list(seeds),
            metrics_every=metrics_every,
            out_dir=out_dir,
            grid=doc.get("grid"),
        )


def as_fraction(name: str, value) -> Fraction:
    """Convert a user-supplied rate to an exact Fraction, parsed from its text.

    A float's text is its shortest decimal repr, so an input such as 6.4
    means 32/5, not the nearest binary double. The text of a bool, null, NaN
    or an infinity does not parse, nor does "abc" or "1/0": each is a
    ConfigError that names the field ``name``.
    """
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{name} must be a finite rational number, got {value!r}") from None


def build_system_config(system: dict) -> SystemConfig:
    """Turn the spec's system block into a SystemConfig.

    A rate ``samples_per_slot`` = q becomes compute_slots = ceil(H*B/q) here
    and nowhere else; a null ``compute_slots`` counts as absent.
    ``intentional_delay`` "optimal" applies the largest free deferral.
    """
    sysd = dict(system)
    delay = sysd.pop("intentional_delay", 0)
    compute_slots = sysd.pop("compute_slots", None)
    unknown = set(sysd) - SYSTEM_FIELDS
    if unknown:
        raise ConfigError(f"unknown system fields: {sorted(unknown)}")
    missing = {"num_devices", "group_size"} - set(sysd)
    if missing:
        raise ConfigError(f"system block missing required fields: {sorted(missing)}")
    if compute_slots is not None:
        if "samples_per_slot" in sysd:
            raise ConfigError("give either compute_slots or samples_per_slot, not both")
    else:
        local_steps, batch_size = sysd.get("local_steps", 1), sysd.get("batch_size", 1)
        require_integer("local_steps", local_steps, 1)
        require_integer("batch_size", batch_size, 1)
        q = as_fraction("samples_per_slot", sysd.pop("samples_per_slot", 1))
        if q <= 0:
            raise ConfigError(f"samples_per_slot must be positive, got {q}")
        compute_slots = math.ceil(local_steps * batch_size / q)
    if delay == "optimal":
        delay = optimal_intentional_delay(SystemConfig(compute_slots=compute_slots, **sysd))
    return SystemConfig(compute_slots=compute_slots, intentional_delay=delay, **sysd)


def build_task(task_spec: dict, dataset_dir: Optional[str], *, num_devices: int):
    """Construct the task named by the spec. Returns (task, initial_model)."""
    kind = task_spec.get("kind", "none")
    params = {k: v for k, v in task_spec.items() if k != "kind"}
    if kind == "none":  # takes no fields, so one given without its kind is not lost
        _reject_unknown(kind, params)
        return None, None
    data_seed = _pop_integer(params, "data_seed", 0, minimum=0)
    rng = np.random.default_rng([data_seed, 0xDA7A])

    if kind == "quadratic":
        init_offset = _pop_real(params, "init_offset", 0.0) if "init_offset" in params else None
        eig_range = params.pop("eig_range", (1.0, 1.0))
        if not isinstance(eig_range, (list, tuple)) or len(eig_range) != 2:
            raise ConfigError(f"eig_range must be a list [lo, hi], got {eig_range!r}")
        for bound in eig_range:
            require_real("each eig_range bound", bound)
        task = make_quadratic(
            num_devices=num_devices,
            dim=_pop_integer(params, "dim", 5),
            heterogeneity=_pop_real(params, "heterogeneity", 1.0),
            rng=rng,
            samples_per_device=_pop_integer(params, "samples_per_device", 32),
            sample_noise=_pop_real(params, "sample_noise", 0.0),
            eig_range=tuple(map(float, eig_range)),
        )
        _reject_unknown(kind, params)
        if init_offset is None:
            return task, None
        return task, task.w_star + init_offset * np.ones(task.dim) / np.sqrt(task.dim)

    if kind in ("logistic", "mlp"):
        per_device = _pop_integer(params, "per_device", 50)
        partition = params.pop("partition", "single_label")
        dataset_name = params.pop("dataset", "clusters")
        if dataset_name == "clusters":
            features, labels = make_clustered_dataset(
                num_classes=_pop_integer(params, "num_classes", 10, minimum=2),
                dim=_pop_integer(params, "feature_dim", 16),
                per_class=_pop_integer(params, "samples_per_class", 400),
                rng=rng,
                spread=_pop_real(params, "spread", 3.0),
                noise=_pop_real(params, "noise", 1.0),
            )
        elif dataset_name == "mnist":
            features, labels = _load_mnist(dataset_dir)
        elif dataset_name == "cifar10":
            features, labels = _load_cifar(dataset_dir)
        else:
            raise ConfigError(f"unknown dataset {dataset_name!r}")
        if partition == "single_label":
            take = partition_single_label(labels, num_devices, per_device, rng)
        elif partition == "iid":
            take = partition_iid(labels, num_devices, per_device, rng)
        else:
            raise ConfigError(f"unknown partition {partition!r}")
        # The classes of the whole dataset, not of the shards; an empty one failed above.
        num_classes, shard_sizes = int(labels.max()) + 1, (per_device,) * num_devices
        # The gather is a copy; the build holds two copies at most, not three.
        features, labels = features[take], labels[take]
        if kind == "logistic":
            _reject_unknown(kind, params)
            return SoftmaxRegressionTask(features, labels, shard_sizes, num_classes), None
        hidden = _pop_integer(params, "hidden", 32)
        _reject_unknown(kind, params)
        task = MlpTask(features, labels, shard_sizes, num_classes, hidden=hidden)
        return task, task.init_params(np.random.default_rng([data_seed, 0x1417]))

    raise ConfigError(f"unknown task kind {kind!r}")


def _pop_integer(params: dict, name: str, default: int, minimum: int = 1) -> int:
    value = params.pop(name, default)
    require_integer(f"task field {name}", value, minimum)
    return value


def _pop_real(params: dict, name: str, default: float) -> float:
    value = params.pop(name, default)
    require_real(f"task field {name}", value)
    return float(value)


def _reject_unknown(kind: str, params: dict) -> None:
    if params:
        raise ConfigError(f"unknown {kind} task fields: {sorted(params)}")


def _find_file(root: Path, names: Sequence[str]) -> Path:
    for name in names:
        cand = root / name
        if cand.is_file():
            return cand
    raise DataError(f"none of {list(names)} is a file under {root}")


def _load_mnist(dataset_dir: Optional[str]):
    if dataset_dir is None:
        raise DataError("mnist task needs --dataset-dir or " + DATA_DIR_ENV)
    root = Path(dataset_dir)
    images = _find_file(root, ["train-images-idx3-ubyte", "train-images-idx3-ubyte.gz"])
    labels = _find_file(root, ["train-labels-idx1-ubyte", "train-labels-idx1-ubyte.gz"])
    return load_idx_dataset(images, labels)


def _load_cifar(dataset_dir: Optional[str]):
    if dataset_dir is None:
        raise DataError("cifar10 task needs --dataset-dir or " + DATA_DIR_ENV)
    root = Path(dataset_dir)
    if (root / "cifar-10-batches-bin").is_dir():
        root = root / "cifar-10-batches-bin"
    batches = sorted(root.glob("data_batch_*.bin"))
    if not batches:
        raise DataError(f"no data_batch_*.bin files under {root}")
    return load_cifar10_batches(batches)


# ---------------------------------------------------------------------------
# Metrics output
# ---------------------------------------------------------------------------


def write_metrics_csv(path, metrics) -> None:
    """Write the metrics table, formatted as one string.

    The bytes are those of ``csv.writer``: ints and float reprs never need
    quoting, and every line ends in CRLF. Slots are exact Python ints, floats
    float64 arrays. Rows in a run of equal float bits share one tail, made of
    the run's first ``.tolist()`` floats; each run's ``round,slot`` heads are
    formatted as it is joined, so no list holds every row. A float's repr is a
    function of its bits, so this is exact; equal values would not be (-0.0
    and 0.0 print differently, and nan != nan). A timing-only table is m runs,
    m the groups in flight: NaN losses beside the law's staleness vector."""
    cols = [np.asarray(c, float) for c in (metrics.loss, metrics.grad_norm_sq, metrics.staleness)]
    starts = _bit_run_starts(*cols)
    tails = [",%r,%r,%r\r\n" % row for row in zip(*(c[starts].tolist() for c in cols))]
    rows = zip(metrics.rounds, metrics.slots)
    parts = [",".join(CSV_HEADER) + "\r\n"]
    for a, b, tail in zip(starts, [*starts[1:], len(metrics)], tails):
        parts += (tail.join([f"{k},{s}" for k, s in itertools.islice(rows, b - a)]), tail)
    _write_text(path, "".join(parts))


def _bit_run_starts(*columns: np.ndarray) -> list[int]:
    """The first row of each run of rows whose float64 columns have equal bits.

    The columns are arrays such as the law's staleness vector, never the slots
    (exact Python ints); their int64 views are compared and ORed, not copied."""
    first = np.zeros(len(columns[0]), dtype=bool)
    first[:1] = True
    for bits in (c.view(np.int64) for c in columns):
        first[1:] |= bits[1:] != bits[:-1]
    return np.flatnonzero(first).tolist()


# ---------------------------------------------------------------------------
# run / sweep
# ---------------------------------------------------------------------------


def timing_report(cfg: SystemConfig) -> dict:
    """The timing block of a run summary and of a ``validate-timing`` row.

    rounds_exact and round_length (the schedule law) hold for every alpha;
    alpha_star is Proposition 1's free deferral, with steady staleness d_star.
    tau_asyn (round_length at alpha = 0) and rounds_closed_form hold only up
    to alpha*: above it both are null, and ``closed_form_note`` says why.
    """
    alpha_star = optimal_intentional_delay(cfg)
    closed = cfg.intentional_delay <= alpha_star
    length = str(cfg.round_length)
    report = {
        "num_groups": cfg.num_groups,
        "tau_comp": cfg.compute_slots,
        "tau_comm": cfg.tau_comm,
        "tau_asyn": length if closed else None,
        "rounds_closed_form": cfg.rounds_closed_form() if closed else None,
        "rounds_exact": cfg.rounds_exact(),
        "round_length": length,
        "intentional_delay": cfg.intentional_delay,
        "alpha_star": alpha_star,
        "d_star": cfg.num_groups - 1 - alpha_star,
    }
    if not closed:
        report["closed_form_note"] = (
            f"intentional_delay {cfg.intentional_delay} exceeds alpha* = {alpha_star}, "
            "which lengthens rounds beyond the closed forms")
    return report


def _make_out_dir(path) -> Path:
    """Create a command's output directory; one that cannot be made is a ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    return out


def _write_text(path, text: str) -> None:
    """Write an artifact's text as given; one that cannot be written is a ConfigError."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _finite(value: Optional[float]) -> Optional[float]:
    """A strict JSON value: a non-finite float becomes None."""
    return value if value is not None and math.isfinite(value) else None


def run_experiment(spec: ExperimentSpec, out_dir, dataset_dir=None) -> dict:
    """Execute one experiment spec; returns the summary dict it wrote."""
    cfg = build_system_config(spec.system)
    task, initial = build_task(spec.task, dataset_dir, num_devices=cfg.num_devices)
    return _run_built(spec, cfg, task, initial, out_dir)


def _run_built(spec: ExperimentSpec, cfg: SystemConfig, task, initial, out_dir) -> dict:
    """``run_experiment`` on a task already built for ``cfg``; no seed's run changes it.

    ``config`` echoes name, system, task, seeds and metrics_every; ``timing`` resolves them."""
    timing = timing_report(cfg)
    rounds = round_count(cfg)  # a run too long to list fails here, before any output
    learners = [None if task is None else SgdLearner(task, cfg, seed=seed, initial=initial)
                for seed in spec.seeds]  # so does a bad batch size
    out = _make_out_dir(out_dir)
    summary: dict = {
        "name": spec.name,
        "config": {k: v for k, v in vars(spec).items() if k not in ("out_dir", "grid")},
        "timing": timing,
        "completed_rounds": rounds,
        "per_seed": [],
    }
    error: Optional[NumericsError] = None
    finals = []  # each seed's final loss, before a non-finite one becomes null
    for seed, learner in zip(spec.seeds, learners):
        try:
            result = run_timeline(cfg, learner, metrics_every=spec.metrics_every)
        except NumericsError as exc:
            summary["per_seed"].append({"seed": seed, "error": str(exc)})
            error = exc
            break
        write_metrics_csv(_make_out_dir(out / f"seed{seed}") / "metrics.csv", result.metrics)
        entry = {
            "seed": seed,
            "completed_rounds": result.completed_rounds,
            "steady_staleness": float(result.metrics.staleness[-1]),  # every run completes K >= 2
            # null when nothing was evaluated
            "avg_grad_norm_sq": _finite(result.metrics.avg_grad_norm_sq()),
        }
        if task is not None:
            finals.append(float(task.loss(result.final_model)))
            entry["final_loss"] = _finite(finals[-1])  # a loss can overflow in a finite model
        summary["per_seed"].append(entry)

    if finals:
        summary["mean_final_loss"] = _finite(float(np.mean(finals)))

    _write_json(out / "summary.json", summary)
    if error is not None:
        raise error
    return summary


def _grid_points(grid: dict) -> list[tuple[str, dict]]:
    """Every combination of the grid's values, as (directory name, system overrides).

    Two points with one name, such as a repeated value or 2 and "2", would
    share a directory, so a repeated name is a ConfigError.
    """
    keys = sorted(grid)
    values = [grid[k] if isinstance(grid[k], list) else [grid[k]] for k in keys]
    if [] in values:
        raise ConfigError(f"grid axes {[k for k in keys if grid[k] == []]} are empty lists")
    points = {}
    for combo in itertools.product(*values):
        # Quoting keeps a value such as "1/2" or "../x" inside one directory name.
        name = "_".join(f"{k}-{quote(str(v), safe='')}" for k, v in zip(keys, combo))
        if name in points:
            raise ConfigError(f"grid repeats the point {name}")
        points[name] = dict(zip(keys, combo))
    return list(points.items())


def _run_points(job: tuple) -> list[dict]:
    """Run a list of (name, overrides) grid points in order; returns their rows.

    One task build is kept while N stays the same and dropped before the next
    N's is made. A build that fails is not kept, and a failed point is an
    ``error`` row.
    """
    spec, points, out_dir, dataset_dir = job
    builds, rows = {}, []  # builds: N -> (task, initial), one entry at most
    for point_name, overrides in points:
        point = replace(spec, name=f"{spec.name}_{point_name}",
                        system={**spec.system, **overrides}, grid=None)
        row = dict(overrides)
        try:
            cfg = build_system_config(point.system)
            n = cfg.num_devices
            if n not in builds:
                builds.clear()  # the old task goes before the new one is built
                builds[n] = build_task(spec.task, dataset_dir, num_devices=n)
            summary = _run_built(point, cfg, *builds[n], Path(out_dir) / point_name)
            row.update(
                status="ok",
                completed_rounds=summary["completed_rounds"],
                mean_final_loss=summary.get("mean_final_loss"),
                steady_staleness=summary["per_seed"][0]["steady_staleness"],
            )
        except Exception as exc:  # record and continue with other points
            row.update(status="error", error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return rows


def run_sweep(spec: ExperimentSpec, out_dir, dataset_dir=None, workers: int = 1) -> list[dict]:
    """Run every grid point and write sweep.csv and sweep.json.

    The grid varies only the system, so points that share N share one build
    of the task and its initial model. The points, sorted by where their N
    first appears, are dealt round-robin to min(``workers``, points) jobs
    that each build once per run of one N; one job runs in this process,
    more in a process pool. The rows keep grid order. A failed point becomes
    an ``error`` row and the others still run; if no point succeeds, the
    files are written and a ConfigError is raised. Each pool worker runs
    numpy's default BLAS thread count, so set OPENBLAS_NUM_THREADS=1 before
    a classifier sweep with ``workers`` > 1.
    """
    if not spec.grid:
        raise ConfigError("sweep mode needs a non-empty grid")
    require_integer("workers", workers, 1)
    points = _grid_points(spec.grid)
    out = _make_out_dir(out_dir)
    first: dict = {}  # N as given (repr: a malformed N may be a list) -> its first point
    rank = [first.setdefault(repr(p.get("num_devices", spec.system.get("num_devices"))), i)
            for i, (_, p) in enumerate(points)]
    order = sorted(range(len(points)), key=rank.__getitem__)
    size = min(workers, len(points))
    deals = [order[j::size] for j in range(size)]
    jobs = [(spec, [points[i] for i in deal], str(out), dataset_dir) for deal in deals]
    if size == 1:
        results = [_run_points(jobs[0])]
    else:  # a forked pool starts all its workers on the first submit, so no more than the jobs
        with concurrent.futures.ProcessPoolExecutor(max_workers=size) as pool:
            results = list(pool.map(_run_points, jobs))
    # Back to grid order; the indices are distinct, so no two rows are compared.
    rows = [row for _, row in sorted(zip(itertools.chain(*deals), itertools.chain(*results)))]

    columns = sorted({k for row in rows for k in row})
    text = io.StringIO(newline="")
    writer = csv.DictWriter(text, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    _write_text(out / "sweep.csv", text.getvalue())
    _write_json(out / "sweep.json", rows)

    _print_table(rows, columns)
    _print_delay_deltas(rows, [k for k in sorted(spec.grid) if k != "intentional_delay"])
    if all(row["status"] != "ok" for row in rows):
        raise ConfigError(f"all {len(rows)} sweep points failed; the first: {rows[0]['error']}")
    return rows


def _print_table(rows: list[dict], columns: list[str]) -> None:
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))


def _print_delay_deltas(rows: list[dict], axes: list[str]) -> None:
    """Final-loss gap between deferred-downlink and plain runs at each point of ``axes``.

    ``axes`` are the grid's other axes; rows pair when they agree on all of
    them, and each line is labelled with their values, numbers sorted first.
    With no other axis the one pair prints with an empty label. alpha* is the
    free deferral, the largest that costs no rounds, not the loss-optimal one:
    the sign and size of the gap depend on eta * lambda, S and H, as stale
    updates can contract like momentum. With eta * lambda in [0.025, 0.1] on a
    quadratic, deferral wins at S = 1, loses at S = 4, 5. What deferral does
    widen is the stable range: a mode with a = 1 - (1 - eta * lambda)^H is
    stable at staleness d iff 0 < a < 2 sin(pi / (4d + 2)) (Levin and May, 1976).
    """
    plain, delayed = {}, {}
    for row in rows:
        if row.get("status") != "ok" or row.get("mean_final_loss") is None:
            continue
        key = tuple(row[k] for k in axes)
        if row.get("intentional_delay") == 0:
            plain[key] = row["mean_final_loss"]
        elif row.get("intentional_delay") == "optimal":
            delayed[key] = row["mean_final_loss"]
    common = sorted((k for k in plain if k in delayed), key=lambda key: [
        (0, v, "") if isinstance(v, (int, float)) else (1, 0, str(v)) for v in key])
    if common:
        print("\nfinal-loss delta (optimal delay minus plain):")
        for key in common:
            label = " ".join(f"{k}={v}" for k, v in zip(axes, key))
            print(f"  {label}: {delayed[key] - plain[key]:+.6g}")


# ---------------------------------------------------------------------------
# rate trend
# ---------------------------------------------------------------------------

# rate_trend reruns this group count with this many times the round budget.
KSCALE_GROUP = 2
KSCALE_FACTOR = 4
# The share of the stability bound that caps the theorem's step. At the bound
# itself the top mode's delayed recurrence has spectral radius 1, so it never
# contracts; below it every mode does.
STABILITY_MARGIN = 0.9


def theorem_step_size(smoothness: float, num_devices: int, group_size: int,
                      batch_size: int, rounds: int) -> float:
    """Step size beta / sqrt(K+1), capped below the stability limit of its staleness.

    beta takes the noise scale M = 1, which is exact for the quadratic. The
    rate trend reads the exact expected trajectory of an undeferred run, so
    every round applies updates of staleness d = G - 1 (G = N/S). On a
    quadratic, each eigenmode then follows x_{k+1} = x_k - eta*lambda*x_{k-d},
    which is stable iff 0 < eta*lambda < 2*sin(pi/(4d + 2)) (Levin and May,
    1976). The cap is STABILITY_MARGIN times that bound at lambda = L, so the
    top mode contracts too: 0.9 * 2*sin(pi/(4(G - 1) + 2))/L, which is 1.8/L at
    G = 1 and 0.9/L at G = 2.
    """
    beta = (group_size * batch_size / (2 * smoothness * num_devices)) * (
        math.sqrt(1 + 8 * num_devices / batch_size) - 1)
    eta = beta / math.sqrt(rounds + 1)
    staleness = num_devices // group_size - 1
    cap = STABILITY_MARGIN * 2.0 * math.sin(math.pi / (4 * staleness + 2)) / smoothness
    if eta > cap:
        warnings.warn(f"schedule step size {eta:.3g} exceeds stability cap {cap:.3g}; capping",
                      stacklevel=2)
        return cap
    return eta


def rate_trend(
    task: QuadraticTask,
    group_counts: Sequence[int],
    rounds: int,
    *,
    batch_size: int = 4,
    initial: Optional[np.ndarray] = None,
) -> dict:
    """The ``rate_trend.json`` document: average squared gradient norm versus G.

    Each group count G that divides N is one point: the exact expectation
    (``expected_metrics``) of the average over K rounds of |grad f(w_k)|^2, at
    the theorem's step size for the task's exact smoothness. The others are
    listed as skipped, and if none is left, ConfigError. G = KSCALE_GROUP is
    also read at KSCALE_FACTOR times the rounds to expose the budget scaling.
    A task other than a QuadraticTask is a ConfigError, and a batch_size over
    its shards a SamplingError. A non-finite float is written as null.
    """
    if not isinstance(task, QuadraticTask):
        raise ConfigError("rate_trend needs a QuadraticTask, whose constants are exact")
    n, smoothness = task.num_devices, task.smoothness()
    skipped = [g for g in group_counts if g < 1 or n % g != 0]
    groups = sorted(g for g in group_counts if g not in skipped)
    if not groups:
        raise ConfigError(f"no group count in {list(group_counts)} divides {n} devices")
    check_batch_size(task, batch_size)  # before a step size is capped, with a warning

    @functools.cache
    def point(g: int, k: int) -> tuple[float, float]:
        """(eta, exact mean over k rounds of E|grad f|^2) at G = g."""
        cfg = SystemConfig(num_devices=n, group_size=n // g, compute_slots=1,
                           step_size=theorem_step_size(smoothness, n, n // g, batch_size, k),
                           batch_size=batch_size)
        return cfg.step_size, float(expected_metrics(cfg, task, initial, k)[1].mean())

    means = [point(g, rounds)[1] for g in groups]
    ratio = None
    if n % KSCALE_GROUP == 0:
        ratio = float(np.divide(point(KSCALE_GROUP, rounds)[1],
                                point(KSCALE_GROUP, rounds * KSCALE_FACTOR)[1]))
    return {
        "rounds": rounds,
        "skipped_groups": skipped,
        "monotone_in_groups": all(b >= a for a, b in zip(means, means[1:])),
        "kscale_group": KSCALE_GROUP,
        "kscale_ratio": _finite(ratio),
        "points": [
            {"num_groups": g, "group_size": n // g, "eta": point(g, rounds)[0],
             "mean_avg_grad_norm_sq": _finite(mean)}
            for g, mean in zip(groups, means)
        ],
    }


# ---------------------------------------------------------------------------
# validation commands
# ---------------------------------------------------------------------------

# Proposition 1's worked examples: (alpha*, d*) = (74, 25), (94, 5) and (98, 1) at S = 1.
TIMING_SPECS = [
    {"name": f"N{n}_T{t}_comp{c}", "grid": {"group_size": sizes},
     "system": {"num_devices": n, "horizon": t, "compute_slots": c, "slots_per_transfer": 1}}
    for n, t, c, sizes in [(100, 50000, 50, [1, 5, 10, 25, 50, 100]),
                           (20, 100000, 4, [1, 2, 5, 10, 20]),
                           (100, 50000, 10, [1]), (100, 50000, 2, [1])]
]


def validate_timing(specs=None) -> list[dict]:
    """One row per experiment document and point of its grid (one without a grid).

    A row is the document's name as ``scenario``, the point's fields, then
    the ``timing_report`` of the system at that point, whose resolved
    ``intentional_delay`` replaces a point's "optimal". A point whose system
    is invalid is a row with an ``error`` instead, as in a sweep; if every
    point is, the first one's ConfigError is raised.
    """
    rows, failures = [], []
    for doc in TIMING_SPECS if specs is None else specs:
        spec = ExperimentSpec.from_dict(doc)
        for _, point in _grid_points(spec.grid or {}):
            try:
                report = timing_report(build_system_config({**spec.system, **point}))
            except ConfigError as exc:
                failures.append(exc)
                report = {"error": f"{type(exc).__name__}: {exc}"}
            rows.append({"scenario": spec.name, **point, **report})
    if failures and len(failures) == len(rows):
        raise failures[0]
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _apply_overrides(doc: dict, overrides: Sequence[str]) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"experiment spec must be a JSON object, got {type(doc).__name__}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = doc
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot descend into {key!r}")
        target[parts[-1]] = value
    return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdmafl",
        description="Asynchronous federated learning over a TDMA channel: "
                    "experiment runner and validators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment spec")
    p_sweep = sub.add_parser("sweep", help="run a grid of experiment variants")
    for p in (p_run, p_sweep):
        p.add_argument("--config", type=Path, help="experiment JSON document")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--dataset-dir", type=Path,
                       help=f"dataset root (default: ${DATA_DIR_ENV})")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a spec field, e.g. system.group_size=5, or "
                            "'seeds=[N]' to run the one seed N")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel sweep points; each worker runs numpy's default BLAS "
                              "thread count, so set OPENBLAS_NUM_THREADS=1 for a classifier "
                              "sweep with more than one")
    p_vt = sub.add_parser("validate-timing", help="the run summary's timing block per grid "
                          "point: closed forms, exact schedule law and alpha*")
    p_vt.add_argument("--config", type=Path, help="experiment JSON document, as run and sweep "
                      "read; one row per point of its grid (default: built-in examples)")
    p_vt.add_argument("--out", type=Path, help="output directory")
    p_rt = sub.add_parser("rate-trend", help="exact expected avg squared gradient norm vs "
                          "group count, on a quadratic task")
    p_rt.add_argument("--out", type=Path, help="output directory")
    p_rt.add_argument("--groups", default="1,2,5,10", help="comma-separated group counts G; "
                      "those that do not divide --num-devices are skipped (default: %(default)s)")
    p_rt.add_argument("--rounds", type=int, default=2000,
                      help="rounds K per point (default: %(default)s)")
    p_rt.add_argument("--num-devices", type=int, default=20,
                      help="devices N of the quadratic task (default: %(default)s)")
    p_rt.add_argument("--batch-size", type=int, default=4,
                      help="samples per local step, at most 40 (default: %(default)s)")
    p_rt.add_argument("--heterogeneity", type=float, default=2.0,
                      help="largest distance of a device's gradient from the global one "
                           "(default: %(default)s)")
    return parser


def _dataset_dir(args) -> Optional[str]:
    return args.dataset_dir or os.environ.get(DATA_DIR_ENV)


def _load_spec(args, default_mode: str) -> ExperimentSpec:
    if args.config is None:
        raise ConfigError(f"{default_mode} needs --config")
    return ExperimentSpec.from_dict(_apply_overrides(_read_json_config(args.config), args.set))


def _parse_groups(text: str) -> list[int]:
    """The comma-separated group counts of ``rate-trend --groups``."""
    try:
        groups = [int(g) for g in text.split(",") if g]
    except ValueError:
        raise ConfigError(f"--groups must be comma-separated integers, got {text!r}") from None
    for g in groups:
        require_integer("each --groups entry", g, 1)
    return groups


def _dispatch(args) -> int:
    if args.command == "run":
        spec = _load_spec(args, "run")
        out = args.out or spec.out_dir or f"runs/{spec.name}"
        summary = run_experiment(spec, out, _dataset_dir(args))
        print(f"wrote {out}/summary.json ({len(summary['per_seed'])} seeds, "
              f"{summary['completed_rounds']} rounds)")
        return EXIT_OK

    if args.command == "sweep":
        spec = _load_spec(args, "sweep")
        out = args.out or spec.out_dir or f"runs/{spec.name}_sweep"
        run_sweep(spec, out, _dataset_dir(args), workers=args.workers)
        print(f"\nwrote {out}/sweep.csv")
        return EXIT_OK

    if args.command == "validate-timing":
        rows = validate_timing(None if args.config is None else [_read_json_config(args.config)])
        out = args.out and _make_out_dir(args.out)
        _print_table(rows, list(dict.fromkeys(k for row in rows for k in row)))
        if out:
            _write_json(out / "timing.json", rows)
        return EXIT_OK

    # rate-trend: argparse admits no other command
    groups = _parse_groups(args.groups)
    for flag, value in (("--rounds", args.rounds), ("--num-devices", args.num_devices),
                        ("--batch-size", args.batch_size)):
        require_integer(flag, value, 1)
    rng = np.random.default_rng(5)
    task = make_quadratic(
        args.num_devices, 5, args.heterogeneity, rng,
        samples_per_device=40, sample_noise=0.5, eig_range=(0.5, 2.0),
    )
    init = task.w_star + 4.0 * np.ones(task.dim) / np.sqrt(task.dim)
    doc = rate_trend(task, groups, args.rounds, batch_size=args.batch_size, initial=init)
    out = args.out and _make_out_dir(args.out)  # after rate_trend's checks, before any output
    for p in doc["points"]:  # a null prints as nan
        mean = p["mean_avg_grad_norm_sq"]
        print(f"G={p['num_groups']:3d} S={p['group_size']:3d} eta={p['eta']:.5f} "
              f"E avg|grad|^2={math.nan if mean is None else mean:.6f}")
    print(f"monotone in G: {doc['monotone_in_groups']}")
    if doc["kscale_ratio"] is not None:
        print(f"K vs {KSCALE_FACTOR}K average ratio at G={KSCALE_GROUP}: "
              f"{doc['kscale_ratio']:.3f}")
    if out:
        _write_json(out / "rate_trend.json", doc)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
