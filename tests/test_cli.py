"""Command-line surface: artifacts, schemas, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

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
    write_metrics_csv,
)
from tdmafl.simulator import RunMetrics


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


def _reject_constant(token):
    raise ValueError(f"bare {token} is not strict JSON")


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
        metrics = RunMetrics(
            rounds=[0, 1, 2, big], slots=[5, 9, big, 2**64],
            staleness=[0.0, -0.0, float(big), 1 / 3],
            loss=[float("nan"), float("inf"), -0.0, 1e-300],
            grad_norm_sq=[float("-inf"), 2.5, float("nan"), 1e300],
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, metrics)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for i in range(len(metrics)):
                writer.writerow([metrics.rounds[i], metrics.slots[i], repr(metrics.loss[i]),
                                 repr(metrics.grad_norm_sq[i]), repr(metrics.staleness[i])])
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_config_echo_round_trips(self, tmp_path):
        doc = quad_spec()
        out = tmp_path / "out"
        main(["run", "--config", str(write_spec(tmp_path, doc)), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"] == doc

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
                   "--seed", "0"])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["system"]["group_size"] == 4
        assert len(summary["per_seed"]) == 1

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

    @pytest.mark.parametrize("command", ["run", "validate-timing", "validate-prop1"])
    @pytest.mark.parametrize("content", [None, "{not json", "\xff\xfe", "[{}]", '{"a": 1}', "[]"],
                             ids=["missing", "malformed", "not-utf8", "list-of-empty",
                                  "object", "empty-list"])
    def test_unreadable_config_file(self, tmp_path, capsys, command, content):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content.encode("latin-1"))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
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
    ], ids=["no-num-devices", "no-num-devices-compute-slots", "fractional-num-devices",
            "metrics-every-string", "seeds-not-list", "metrics-every-negative",
            "system-not-object", "step-size-string", "mode-list", "grid-number",
            "step-size-nan", "samples-per-slot-nan", "samples-per-slot-inf",
            "samples-per-slot-string", "intentional-delay-null"])
    def test_malformed_spec_field(self, tmp_path, capsys, doc):
        doc = {"name": "bad", **doc}
        if isinstance(doc["system"], dict):
            doc["system"]["horizon"] = 40
        rc = main(["run", "--config", str(write_spec(tmp_path, doc)),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("task", [
        "quadratic",
        {"kind": "quadratic", "dim": "x"},
        {"kind": "quadratic", "eig_range": 5},
        {"kind": "mlp", "hidden": 2.5},
        {"kind": ["quadratic"]},
        {"kind": "quadratic", "heterogeneity": math.nan},
        {"kind": "quadratic", "sample_noise": math.nan},
    ], ids=["not-object", "dim-string", "eig-range-number", "fractional-hidden", "kind-list",
            "heterogeneity-nan", "sample-noise-nan"])
    def test_malformed_task_field(self, tmp_path, capsys, task):
        doc = {"name": "bad", "system": {"num_devices": 4, "group_size": 2, "horizon": 40},
               "task": task}
        rc = main(["run", "--config", str(write_spec(tmp_path, doc)),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flags, named", [
        (["--groups", "x"], "--groups"),
        (["--groups", "0"], "--groups"),
        (["--groups", "3"], "divides"),  # no group count divides 4 devices
        (["--num-seeds", "0"], "--num-seeds"),
        (["--rounds", "0"], "--rounds"),
        (["--num-devices", "0"], "--num-devices"),
        (["--batch-size", "0"], "--batch-size"),
        (["--heterogeneity", "nan"], "heterogeneity"),
    ], ids=["groups-string", "groups-zero", "groups-none-valid", "num-seeds-zero",
            "rounds-zero", "num-devices-zero", "batch-size-zero", "heterogeneity-nan"])
    def test_rate_trend_bad_flag(self, capsys, flags, named):
        rc = main(["rate-trend", "--groups", "1,2", "--rounds", "5", "--num-seeds", "1",
                   "--num-devices", "4", *flags])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert named in err

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
        if command == "run":
            path = write_spec(tmp_path, quad_spec(horizon=8))
        else:
            path = tmp_path / "scen.json"
            path.write_text(json.dumps([{"num_devices": 4, "horizon": 8, "compute_slots": 6,
                                         "group_sizes": [2]}]))
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: no training round completes")
        assert err.count("\n") == 1

    def test_override_on_a_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path), "--set", "a=1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    def test_negative_seed_flag(self, tmp_path, capsys):
        rc = main(["run", "--config", str(write_spec(tmp_path, quad_spec(horizon=40))),
                   "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1


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
        d_star = optimal_intentional_delay(cfg).effective_delay
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

    def test_sweep_needs_grid(self, tmp_path):
        doc = quad_spec()
        doc["mode"] = "sweep"
        spec = ExperimentSpec.from_dict(doc)
        from tdmafl import ConfigError
        with pytest.raises(ConfigError):
            run_sweep(spec, tmp_path / "x")


class TestValidators:
    def test_prop1_output(self, capsys):
        assert main(["validate-prop1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(alpha, d*) = (74, 25)" in out
        assert "(alpha, d*) = (94, 5)" in out
        assert "(alpha, d*) = (98, 1)" in out

    def test_timing_table_small_config(self, tmp_path, capsys):
        scenarios = [{"label": "tiny", "num_devices": 6, "horizon": 600,
                      "compute_slots": 2, "slots_per_transfer": 1,
                      "group_sizes": [2, 6]}]
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scenarios))
        rc = main(["validate-timing", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        rows = json.loads((tmp_path / "out" / "timing.json").read_text())
        by_s = {r["group_size"]: r for r in rows}
        assert by_s[2]["rounds_exact"] == 200  # 600 slots / 3 per round
        assert by_s[6]["rounds_exact"] == 67  # 2 + 7 slots per round, the last one ends past T
        assert by_s[6]["tau_asyn"] == "9"

    def test_rate_trend_smoke(self, tmp_path, capsys):
        rc = main(["rate-trend", "--groups", "1,2", "--rounds", "40",
                   "--num-seeds", "2", "--num-devices", "4",
                   "--out", str(tmp_path / "rt")])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "rt" / "rate_trend.json").read_text())
        assert [p["num_groups"] for p in doc["points"]] == [1, 2]


class TestStrictJson:
    def test_every_json_artifact_is_strict(self, tmp_path):
        doc = quad_spec(horizon=40)
        doc["seeds"] = [0]
        assert main(["run", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        doc["grid"] = {"group_size": [1, 2]}
        assert main(["sweep", "--config", str(write_spec(tmp_path, doc)),
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        scenarios = tmp_path / "scen.json"
        scenarios.write_text(json.dumps([{"num_devices": 4, "horizon": 60,
                                          "compute_slots": 2, "group_sizes": [1, 4]}]))
        assert main(["validate-timing", "--config", str(scenarios),
                     "--out", str(tmp_path / "timing")]) == EXIT_OK
        assert main(["rate-trend", "--groups", "1,2", "--rounds", "20", "--num-seeds", "1",
                     "--num-devices", "4", "--out", str(tmp_path / "rt")]) == EXIT_OK
        for name in ["run/summary.json", "sweep/sweep.json", "timing/timing.json",
                     "rt/rate_trend.json"]:
            json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)


class TestSpecParsing:
    def test_unknown_fields_rejected(self):
        from tdmafl import ConfigError
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({**quad_spec(), "bogus": 1})

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
