"""The entry point in a fresh interpreter, ``python -m tdmafl.cli`` with this checkout's src.

Pytest turns a RuntimeWarning into an error in process (pyproject.toml), but a
subprocess prints it, as a user sees it. And a pool forked from the ``-m``
process pickles the functions of ``__main__``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdmafl.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, ExperimentSpec, run_sweep
from util import write_idx_images, write_idx_labels

SRC = Path(__file__).resolve().parent.parent / "src"
SYSTEM = {"num_devices": 4, "group_size": 2, "compute_slots": 2, "batch_size": 4,
          "step_size": 0.05, "horizon": 60}
QUAD = {"name": "quad", "seeds": [0, 1], "system": SYSTEM,
        "task": {"kind": "quadratic", "dim": 4, "samples_per_device": 24, "init_offset": 2.0}}
SPECS = {
    "quad": QUAD,
    "sweep": {**QUAD, "seeds": [0], "grid": {"group_size": [1, 2],
                                             "intentional_delay": [0, "optimal"]}},
    "eig": {**QUAD, "task": {**QUAD["task"], "eig_range": [0.5, 2**70]}},
    "mnist": {"name": "mnist", "seeds": [0], "system": SYSTEM,
              "task": {"kind": "logistic", "dataset": "mnist", "per_device": 4}},
    "scenarios": [{"label": "old", "num_devices": 4, "horizon": 60, "group_sizes": [1, 2]}],
}
# id: (argv, exit code, stderr). {in} holds SPECS and an empty IDX pair; {out} is the output.
CASES = {
    "run": (["run", "--config", "{in}/quad.json", "--out", "{out}"], EXIT_OK, ""),
    "validate-timing": (["validate-timing", "--out", "{out}"], EXIT_OK, ""),
    "rate-trend": (["rate-trend", "--out", "{out}"], EXIT_OK, ""),
    "sweep-workers-2": (["sweep", "--config", "{in}/sweep.json", "--out", "{out}",
                         "--workers", "2"], EXIT_OK, ""),
    "eig-range": (["run", "--config", "{in}/eig.json", "--out", "{out}"], EXIT_CONFIG,
                  "configuration error: eig_range must have hi / lo < 2**52, "
                  "got (0.5, 1.1805916207174113e+21)\n"),
    "empty-idx": (["run", "--config", "{in}/mnist.json", "--dataset-dir", "{in}",
                   "--out", "{out}"], EXIT_DATA, "data error: dataset has 0 samples, need 16\n"),
    "scenario-list": (["validate-timing", "--config", "{in}/scenarios.json", "--out", "{out}"],
                      EXIT_CONFIG, "configuration error: experiment spec must be a JSON object\n"),
    "heterogeneity": (["rate-trend", "--heterogeneity", "1e200", "--out", "{out}"], EXIT_CONFIG,
                      "configuration error: heterogeneity 1e+200 and sample_noise 0.5 (with "
                      "eig_range (0.5, 2.0)) overflow the task's offsets or loss constants\n"),
}


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name, doc in SPECS.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    write_idx_images(root / "train-images-idx3-ubyte", np.zeros((0, 4, 3), np.uint8))
    write_idx_labels(root / "train-labels-idx1-ubyte", np.zeros(0, np.uint8))
    return root


@pytest.mark.parametrize("argv, code, err", CASES.values(), ids=CASES)
def test_command_in_a_fresh_interpreter(inputs, tmp_path, argv, code, err):
    out = tmp_path / "out"
    argv = [arg.format_map({"in": inputs, "out": out}) for arg in argv]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tdmafl.cli", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert out.exists() == (code == EXIT_OK)  # an error writes nothing
    if "--workers" in argv:  # the forked pool writes what one process writes
        run_sweep(ExperimentSpec.from_dict(SPECS["sweep"]), tmp_path / "one", workers=1)
        assert tree(out) == tree(tmp_path / "one")
        assert {row["status"] for row in json.loads((out / "sweep.json").read_text())} == {"ok"}
