"""Experiment runner: single runs, sweeps, and validation commands.

Experiments are described by one JSON document (the schema is in the
``ExperimentSpec`` docstring); individual fields can be overridden from the
command line with ``--set key.path=value``. Each run writes per-seed CSV
metrics and a strict-JSON summary echoing the configuration.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union
from urllib.parse import quote

import numpy as np

from . import analysis
from .data import (
    load_cifar10_batches,
    load_idx_dataset,
    make_clustered_dataset,
    partition_iid,
    partition_single_label,
)
from .errors import ConfigError, DataError, NumericsError
from .learner import SgdLearner
from .simulator import run_timeline
from .tasks import MlpTask, SoftmaxRegressionTask, make_quadratic
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
    """One experiment document, as read by ``run`` and ``sweep``.

    Top-level fields:
        name: required string; the default output directory is runs/<name>
            (runs/<name>_sweep for a sweep).
        system: required object, the run constants (below).
        task: object with a ``kind`` (below); default {"kind": "none"}.
        seeds: non-empty list of integers >= 0, one run each; default [0].
        metrics_every: evaluate loss and gradient norm every this many rounds;
            0 turns evaluation off; default 1.
        mode: one of "run", "sweep", "validate-timing", "validate-prop1",
            "rate-trend". It is checked but not acted on: the subcommand
            decides what runs.
        out_dir: output directory, used when --out is not given.
        grid: sweep only; an object that maps system fields to a value or a
            list of values, and every combination runs as one point with its
            own output directory.

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
        none: timing only, no model is trained.
        quadratic: dim, heterogeneity, samples_per_device, sample_noise,
            eig_range [lo, hi], data_seed, init_offset.
        logistic and mlp: dataset ("clusters", "mnist" or "cifar10"),
            partition ("single_label" or "iid"), per_device, data_seed; for
            "clusters" also num_classes, feature_dim, samples_per_class,
            spread and noise; for mlp also hidden.
    """

    name: str
    system: dict
    task: dict
    seeds: list[int]
    metrics_every: int = 1
    out_dir: Optional[str] = None
    grid: Optional[dict] = None
    raw: Optional[dict] = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise ConfigError("experiment spec must be a JSON object")
        known = {"name", "mode", "system", "task", "seeds", "metrics_every", "out_dir", "grid"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown spec fields: {sorted(unknown)}")
        seeds = doc.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError(f"seeds must be a non-empty list, got {seeds!r}")
        for seed in seeds:
            require_integer("each seed", seed, 0)
        metrics_every = doc.get("metrics_every", 1)
        require_integer("metrics_every", metrics_every, 0)
        for block in ("system", "task", "grid"):
            if not isinstance(doc.get(block, {}), dict):
                raise ConfigError(f"{block} must be a JSON object, got {doc[block]!r}")
        if doc.get("mode", "run") not in ("run", "sweep", "validate-timing", "validate-prop1",
                                          "rate-trend"):
            raise ConfigError(f"unknown mode {doc['mode']!r}")
        try:
            spec = cls(
                name=doc["name"],
                system=dict(doc["system"]),
                task=dict(doc.get("task", {"kind": "none"})),
                seeds=list(seeds),
                metrics_every=metrics_every,
                out_dir=doc.get("out_dir"),
                grid=doc.get("grid"),
                raw=doc,
            )
        except KeyError as exc:
            raise ConfigError(f"spec missing required field: {exc}") from exc
        return spec


RationalLike = Union[int, float, str, Fraction]


def as_fraction(name: str, value: RationalLike) -> Fraction:
    """Convert a user-supplied rate to an exact Fraction.

    Floats go through their shortest decimal repr so that an input such as
    6.4 means 32/5, not the nearest binary double. NaN, an infinity, a bool
    or an unparseable string is a ConfigError that names the field ``name``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            pass  # NaN, an infinity, or text such as "abc" or "1/0"
    raise ConfigError(f"{name} must be a finite rational number, got {value!r}")


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
        delay = optimal_intentional_delay(SystemConfig(compute_slots=compute_slots, **sysd)).alpha
    return SystemConfig(compute_slots=compute_slots, intentional_delay=delay, **sysd)


def build_task(task_spec: dict, dataset_dir: Optional[str], *, num_devices: int):
    """Construct the task named by the spec. Returns (task, initial_model)."""
    kind = task_spec.get("kind", "none")
    if kind == "none":
        return None, None
    params = {k: v for k, v in task_spec.items() if k != "kind"}
    data_seed = _pop_integer(params, "data_seed", 0, minimum=0)
    rng = np.random.default_rng([data_seed, 0xDA7A])

    if kind == "quadratic":
        init_offset = _pop_real(params, "init_offset", 0.0)
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
            eig_range=tuple(eig_range),
        )
        _reject_unknown(kind, params)
        init = None
        if init_offset:
            init = task.w_star + init_offset * np.ones(task.dim) / np.sqrt(task.dim)
        return task, init

    if kind in ("logistic", "mlp"):
        per_device = _pop_integer(params, "per_device", 50)
        partition = params.pop("partition", "single_label")
        dataset_name = params.pop("dataset", "clusters")
        if dataset_name == "clusters":
            dataset = make_clustered_dataset(
                num_classes=_pop_integer(params, "num_classes", 10),
                dim=_pop_integer(params, "feature_dim", 16),
                per_class=_pop_integer(params, "samples_per_class", 400),
                rng=rng,
                spread=_pop_real(params, "spread", 3.0),
                noise=_pop_real(params, "noise", 1.0),
            )
        elif dataset_name == "mnist":
            dataset = _load_mnist(dataset_dir)
        elif dataset_name == "cifar10":
            dataset = _load_cifar(dataset_dir)
        else:
            raise ConfigError(f"unknown dataset {dataset_name!r}")
        if partition == "single_label":
            feats, labels = partition_single_label(dataset, num_devices, per_device, rng)
        elif partition == "iid":
            feats, labels = partition_iid(dataset, num_devices, per_device, rng)
        else:
            raise ConfigError(f"unknown partition {partition!r}")
        num_classes = dataset.num_classes
        if kind == "logistic":
            _reject_unknown(kind, params)
            return SoftmaxRegressionTask(feats, labels, num_classes), None
        hidden = _pop_integer(params, "hidden", 32)
        _reject_unknown(kind, params)
        task = MlpTask(feats, labels, num_classes, hidden=hidden)
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
        if cand.exists():
            return cand
    raise DataError(f"none of {list(names)} found under {root}")


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(metrics.rounds, metrics.slots, map(repr, metrics.loss),
                             map(repr, metrics.grad_norm_sq), map(repr, metrics.staleness)))


# ---------------------------------------------------------------------------
# run / sweep
# ---------------------------------------------------------------------------


def run_experiment(spec: ExperimentSpec, out_dir, dataset_dir=None) -> dict:
    """Execute one experiment spec; returns the summary dict it wrote.

    The summary's ``timing`` block gives tau_asyn and rounds_closed_form only
    where they hold (alpha <= alpha*); above it both are null, and
    ``closed_form_note`` says why. ``rounds_exact``, the schedule law's round
    count, holds for every alpha.
    """
    cfg = build_system_config(spec.system)
    task, init = build_task(spec.task, dataset_dir, num_devices=cfg.num_devices)

    timing = {
        "tau_comp": cfg.compute_slots,
        "tau_comm": cfg.tau_comm,
        "tau_asyn": str(cfg.tau_asyn),
        "num_groups": cfg.num_groups,
        "rounds_closed_form": cfg.rounds_closed_form(),
        "rounds_exact": cfg.rounds_exact(),
    }
    alpha_star = optimal_intentional_delay(cfg).alpha
    if cfg.intentional_delay > alpha_star:
        timing.update(tau_asyn=None, rounds_closed_form=None, closed_form_note=(
            f"intentional_delay {cfg.intentional_delay} exceeds alpha* = {alpha_star}, "
            "which lengthens rounds beyond the closed forms"))
    learners = [None if task is None else SgdLearner(task, cfg, seed=seed, initial=init)
                for seed in spec.seeds]  # a bad batch size fails here, before any output
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {
        "name": spec.name,
        "config": spec.raw if spec.raw is not None else {},
        "timing": timing,
        "per_seed": [],
    }
    error: Optional[NumericsError] = None
    for seed, learner in zip(spec.seeds, learners):
        try:
            result = run_timeline(
                cfg, learner, record_events=False, metrics_every=spec.metrics_every
            )
        except NumericsError as exc:
            summary["per_seed"].append({"seed": seed, "error": str(exc)})
            error = exc
            break
        seed_dir = out / f"seed{seed}"
        seed_dir.mkdir(exist_ok=True)
        write_metrics_csv(seed_dir / "metrics.csv", result.metrics)
        avg_gsq = result.metrics.avg_grad_norm_sq()  # NaN when nothing was evaluated
        entry = {
            "seed": seed,
            "completed_rounds": result.completed_rounds,
            "steady_staleness": result.metrics.staleness[-1] if len(result.metrics) else None,
            "avg_grad_norm_sq": avg_gsq if np.isfinite(avg_gsq) else None,
        }
        if task is not None and result.final_model is not None:
            entry["final_loss"] = task.loss(result.final_model)
        summary["per_seed"].append(entry)

    finals = [e["final_loss"] for e in summary["per_seed"] if "final_loss" in e]
    if finals:
        summary["mean_final_loss"] = float(np.mean(finals))
    counts = [e["completed_rounds"] for e in summary["per_seed"] if "completed_rounds" in e]
    if counts:
        summary["completed_rounds"] = counts[0]

    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if error is not None:
        raise error
    return summary


def _grid_points(grid: dict) -> list[dict]:
    keys = sorted(grid)
    values = [grid[k] if isinstance(grid[k], list) else [grid[k]] for k in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def _run_sweep_point(args: tuple) -> dict:
    spec_doc, overrides, out_dir, dataset_dir = args
    doc = json.loads(json.dumps(spec_doc))  # deep copy
    doc.pop("grid", None)
    doc.setdefault("system", {}).update(overrides)
    # Quoting keeps a value such as "1/2" or "../x" inside one directory name.
    point_name = "_".join(f"{k}-{quote(str(v), safe='')}" for k, v in sorted(overrides.items()))
    doc["name"] = f"{doc.get('name', 'sweep')}_{point_name}"
    spec = ExperimentSpec.from_dict(doc)
    row = dict(overrides)
    try:
        summary = run_experiment(spec, Path(out_dir) / point_name, dataset_dir)
        row.update(
            status="ok",
            completed_rounds=summary.get("completed_rounds"),
            mean_final_loss=summary.get("mean_final_loss"),
            steady_staleness=summary["per_seed"][0].get("steady_staleness"),
        )
    except Exception as exc:  # record and continue with other points
        row.update(status="error", error=f"{type(exc).__name__}: {exc}")
    return row


def run_sweep(spec: ExperimentSpec, out_dir, dataset_dir=None, workers: int = 1) -> list[dict]:
    """Run every grid point and write sweep.csv and sweep.json.

    A failed point becomes an ``error`` row and the others still run; if no
    point succeeds, the files are written and a ConfigError is raised.
    """
    if not spec.grid:
        raise ConfigError("sweep mode needs a non-empty grid")
    require_integer("workers", workers, 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = _grid_points(spec.grid)
    jobs = [(spec.raw, p, str(out), dataset_dir) for p in points]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_point, jobs))
    else:
        rows = [_run_sweep_point(j) for j in jobs]

    columns = sorted({k for row in rows for k in row})
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    (out / "sweep.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")

    _print_table(rows, columns)
    _print_delay_deltas(rows)
    if all(row["status"] != "ok" for row in rows):
        raise ConfigError(f"all {len(rows)} sweep points failed; the first: {rows[0]['error']}")
    return rows


def _print_table(rows: list[dict], columns: list[str]) -> None:
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))


def _print_delay_deltas(rows: list[dict]) -> None:
    """Final-loss gap between deferred-downlink and plain runs per group size."""
    plain, delayed = {}, {}
    for row in rows:
        if row.get("status") != "ok" or row.get("mean_final_loss") is None:
            continue
        key = row.get("group_size")
        if row.get("intentional_delay") == 0:
            plain[key] = row["mean_final_loss"]
        elif row.get("intentional_delay") in ("optimal",):
            delayed[key] = row["mean_final_loss"]
    common = sorted(k for k in plain if k in delayed and k is not None)
    if common:
        print("\nfinal-loss delta (optimal delay minus plain):")
        for key in common:
            print(f"  group_size={key}: {delayed[key] - plain[key]:+.6g}")


# ---------------------------------------------------------------------------
# validation commands
# ---------------------------------------------------------------------------

TIMING_SCENARIOS = [
    {"label": "N100_T50000_comp50", "num_devices": 100, "horizon": 50000,
     "compute_slots": 50, "slots_per_transfer": 1,
     "group_sizes": [1, 5, 10, 25, 50, 100]},
    {"label": "N20_T100000_comp4", "num_devices": 20, "horizon": 100000,
     "compute_slots": 4, "slots_per_transfer": 1,
     "group_sizes": [1, 2, 5, 10, 20]},
]


TIMING_SCENARIO_KEYS = frozenset({"num_devices", "horizon", "compute_slots", "group_sizes"})


def validate_timing(scenarios=None) -> list[dict]:
    scenarios = TIMING_SCENARIOS if scenarios is None else scenarios
    if not isinstance(scenarios, list) or not scenarios or not all(
        isinstance(sc, dict) and TIMING_SCENARIO_KEYS <= sc.keys()
        and isinstance(sc["group_sizes"], list) for sc in scenarios
    ):
        raise ConfigError(
            "timing scenarios must be a non-empty JSON list of objects with "
            f"{sorted(TIMING_SCENARIO_KEYS)} (group_sizes a list)"
        )
    rows = []
    for sc in scenarios:
        for s in sc["group_sizes"]:
            cfg = SystemConfig(
                sc["num_devices"], s, sc["compute_slots"],
                sc.get("slots_per_transfer", 1), horizon=sc["horizon"],
            )
            rows.append({
                "scenario": sc.get("label", "custom"),
                "group_size": s,
                "num_groups": cfg.num_groups,
                "tau_comp": cfg.compute_slots,
                "tau_comm": cfg.tau_comm,
                "tau_asyn": str(cfg.tau_asyn),
                "rounds_closed_form": cfg.rounds_closed_form(),
                "rounds_exact": cfg.rounds_exact(),
            })
    return rows


PROP1_TRIPLES = [(50, 1, 100), (10, 1, 100), (2, 1, 100)]


def validate_prop1(triples=None) -> list[dict]:
    triples = PROP1_TRIPLES if triples is None else triples
    if not isinstance(triples, list) or not triples or not all(
        isinstance(t, (list, tuple)) and len(t) == 3 for t in triples
    ):
        raise ConfigError(
            "prop1 config must be a non-empty JSON list of "
            "[compute_slots, group_size, num_devices] triples"
        )
    rows = []
    for compute_slots, s, n in triples:
        cfg = SystemConfig(n, s, compute_slots)
        choice = optimal_intentional_delay(cfg)
        rows.append({
            "compute_over_transfer": compute_slots,
            "group_size": s,
            "num_devices": n,
            "alpha": choice.alpha,
            "d_star": choice.effective_delay,
        })
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
        p.add_argument("--seed", type=int, help="run a single seed instead of the spec's list")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--dataset-dir", type=Path,
                       help=f"dataset root (default: ${DATA_DIR_ENV})")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a spec field, e.g. system.group_size=5")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel sweep points")
    p_vt = sub.add_parser("validate-timing", help="round counts: paper closed form vs exact schedule law")
    p_vt.add_argument("--config", type=Path, help="JSON list of timing scenarios")
    p_vt.add_argument("--out", type=Path, help="output directory")
    p_vp = sub.add_parser("validate-prop1", help="optimal downlink deferral worked examples")
    p_vp.add_argument("--config", type=Path,
                      help="JSON list of [compute_slots, group_size, num_devices] triples")
    p_rt = sub.add_parser("rate-trend", help="avg squared gradient norm vs group count")
    p_rt.add_argument("--out", type=Path, help="output directory")
    p_rt.add_argument("--groups", default="1,2,5,10")
    p_rt.add_argument("--rounds", type=int, default=2000)
    p_rt.add_argument("--num-seeds", type=int, default=10)
    p_rt.add_argument("--num-devices", type=int, default=20)
    p_rt.add_argument("--batch-size", type=int, default=4)
    p_rt.add_argument("--heterogeneity", type=float, default=2.0)
    return parser


def _dataset_dir(args) -> Optional[str]:
    return args.dataset_dir or os.environ.get(DATA_DIR_ENV)


def _load_spec(args, default_mode: str) -> ExperimentSpec:
    if args.config is None:
        raise ConfigError(f"{default_mode} needs --config")
    doc = _apply_overrides(_read_json_config(args.config), args.set)
    spec = ExperimentSpec.from_dict(doc)
    if args.seed is not None:
        require_integer("--seed", args.seed, 0)
        spec.seeds = [args.seed]
    return spec


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
              f"{summary.get('completed_rounds', 0)} rounds)")
        return EXIT_OK

    if args.command == "sweep":
        spec = _load_spec(args, "sweep")
        out = args.out or spec.out_dir or f"runs/{spec.name}_sweep"
        run_sweep(spec, out, _dataset_dir(args), workers=args.workers)
        print(f"\nwrote {out}/sweep.csv")
        return EXIT_OK

    if args.command == "validate-timing":
        scenarios = None
        if args.config is not None:
            scenarios = _read_json_config(args.config)
        rows = validate_timing(scenarios)
        cols = ["scenario", "group_size", "num_groups", "tau_comp", "tau_comm",
                "tau_asyn", "rounds_closed_form", "rounds_exact"]
        _print_table(rows, cols)
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            (Path(args.out) / "timing.json").write_text(
                json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return EXIT_OK

    if args.command == "validate-prop1":
        triples = None
        if args.config is not None:
            triples = _read_json_config(args.config)
        rows = validate_prop1(triples)
        for row in rows:
            print(
                f"tau_comp/r={row['compute_over_transfer']} S={row['group_size']} "
                f"N={row['num_devices']}: (alpha, d*) = ({row['alpha']}, {row['d_star']})"
            )
        return EXIT_OK

    if args.command == "rate-trend":
        groups = _parse_groups(args.groups)
        for flag, value in (("--rounds", args.rounds), ("--num-seeds", args.num_seeds),
                            ("--num-devices", args.num_devices),
                            ("--batch-size", args.batch_size)):
            require_integer(flag, value, 1)
        rng = np.random.default_rng(5)
        task = make_quadratic(
            args.num_devices, 5, args.heterogeneity, rng,
            samples_per_device=40, sample_noise=0.5, eig_range=(0.5, 2.0),
        )
        init = task.w_star + 4.0 * np.ones(task.dim) / np.sqrt(task.dim)
        report = analysis.rate_trend(
            task, groups, args.rounds, range(args.num_seeds),
            batch_size=args.batch_size, initial=init,
        )
        for p in report.points:
            print(f"G={p.num_groups:3d} S={p.group_size:3d} eta={p.eta:.5f} "
                  f"avg|grad|^2={p.mean:.6f} (se {p.std_error:.2g})")
        print(f"monotone in G: {report.monotone_in_groups()}")
        if report.kscale_ratio is not None:
            print(f"K vs {analysis.KSCALE_FACTOR}K average ratio at G={analysis.KSCALE_GROUP}: "
                  f"{report.kscale_ratio:.3f}")
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            (Path(args.out) / "rate_trend.json").write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        return EXIT_OK

    raise ConfigError(f"unknown command {args.command!r}")


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
