"""The four benchmark workloads: seed -> experiment spec -> one call.

Each workload is one call of a public entry point that a user runs:
``cli.run_experiment`` (``tdmafl run``) or ``cli.run_sweep`` (``tdmafl sweep``
with one worker). The seed picks one of ``VARIANTS`` input variants. The
expected outputs of every variant are recorded in ``expected.json`` (see
``record.py``), so any seed can be checked exactly.

Why these workloads:

* ``sched_async`` -- timing only, N=1000, S=10, a 500-slot local compute and
  no deferral. About 540 devices wait in the ready queue at every selection,
  so transmitter selection dominates the host time.
* ``sched_idfl`` -- the same system at the paper's operating point, with the
  downlink deferred by alpha* (= 53). It gives the same rounds and
  transmitter sets (Proposition 1) with a ready queue of about 13, so a
  change that helps deep queues must not slow this one.
* ``train_mlp`` -- a small MLP on clustered data with metrics every round;
  full-data metric evaluation (``round_metrics``) dominates.
* ``sweep_quad`` -- a 10-point sweep of group size x deferral on a
  quadratic task; local updates (batch sampling, per-(device, round) RNG)
  dominate, and every point pays its own setup and artifact writing.
"""

from __future__ import annotations

import contextlib
import io

VARIANTS = 32

# Base horizons T per scale. "bench" keeps one call under a second on a
# 2-CPU host: short calls let the host-speed samples around each call track
# the host, and a run holds enough calls for a steady median. "smoke" is the
# tiny horizon the smoke test uses.
HORIZONS = {
    "bench": {"sched": 40_000, "train_mlp": 500, "sweep_quad": 500},
    "smoke": {"sched": 3_000, "train_mlp": 100, "sweep_quad": 100},
}

# Timing-only runs draw no randomness, so the variant moves the horizon by a
# few slots instead: each variant ends the run at another phase of the
# group rotation, while the call's cost changes by under 1%.
SCHED_HORIZON_STEP = 7

NAMES = ("sched_async", "sched_idfl", "train_mlp", "sweep_quad")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def spec_doc(name: str, variant: int, scale: str = "bench") -> dict:
    """The experiment document for one workload and input variant."""
    horizons = HORIZONS[scale]
    if name in ("sched_async", "sched_idfl"):
        return {
            "name": name,
            "system": {
                "num_devices": 1000,
                "group_size": 10,
                "compute_slots": 500,
                "slots_per_transfer": 1,
                "horizon": horizons["sched"] + SCHED_HORIZON_STEP * variant,
                "intentional_delay": 0 if name == "sched_async" else "optimal",
            },
            "metrics_every": 1,
        }
    if name == "train_mlp":
        return {
            "name": name,
            "system": {
                "num_devices": 20,
                "group_size": 2,
                "compute_slots": 10,
                "local_steps": 2,
                "batch_size": 8,
                "step_size": 0.05,
                "horizon": horizons["train_mlp"],
                "intentional_delay": "optimal",
            },
            "task": {
                "kind": "mlp",
                "hidden": 32,
                "dataset": "clusters",
                "num_classes": 10,
                "feature_dim": 16,
                "partition": "single_label",
                "per_device": 50,
                "data_seed": variant,
            },
            "seeds": [variant],
            "metrics_every": 1,
        }
    if name == "sweep_quad":
        return {
            "name": name,
            "mode": "sweep",
            "system": {
                "num_devices": 20,
                "group_size": 1,
                "batch_size": 4,
                "local_steps": 1,
                "step_size": 0.05,
                "horizon": horizons["sweep_quad"],
            },
            "task": {
                "kind": "quadratic",
                "dim": 5,
                "samples_per_device": 32,
                "sample_noise": 0.5,
                "heterogeneity": 1.0,
                "eig_range": [0.5, 2.0],
                "init_offset": 4.0,
                "data_seed": variant,
            },
            "seeds": [variant],
            "metrics_every": 1,
            "grid": {"group_size": [1, 2, 4, 5, 10], "intentional_delay": [0, "optimal"]},
        }
    raise ValueError(f"unknown workload {name!r}")


def call(cli, name: str, spec, out_dir) -> list[dict]:
    """Run one workload call; returns the summaries or sweep rows it produced.

    The sweep prints a table; it is swallowed so the benchmark owns stdout.
    """
    if name == "sweep_quad":
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_sweep(spec, out_dir, workers=1)
    return [cli.run_experiment(spec, out_dir)]
