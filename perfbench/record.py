#!/usr/bin/env python3
"""Record the expected outputs that run.py checks every workload call against.

    python3 perfbench/record.py

Runs one untraced call of every workload for every input variant at both
scales and writes ``expected.json``: the round count, the sha256 of the
transmitter sets, the staleness sum, and the final losses and average
squared gradient norms of the training workloads. Re-record only when a
change is meant to alter the program's outputs, and say why it does.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads
from tracing import Tracer


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    prog = run.import_program()
    tracer = Tracer()
    doc: dict = {}
    for scale in workloads.HORIZONS:
        doc[scale] = {}
        for name in workloads.NAMES:
            entries = doc[scale][name] = {}
            for variant in range(workloads.VARIANTS):
                spec = prog.cli.ExperimentSpec.from_dict(workloads.spec_doc(name, variant, scale))
                out = run.WORK_DIR / f"record-{os.getpid()}"
                call = run.run_call(prog, tracer, name, spec, out, traced=False)
                if call.problems:
                    raise SystemExit(f"{scale}/{name}/{variant}: {call.problems}")
                entries[str(variant)] = call.fingerprint
            print(f"recorded {scale}/{name}", file=sys.stderr)
        for variant in map(str, range(workloads.VARIANTS)):
            a, b = doc[scale]["sched_async"][variant], doc[scale]["sched_idfl"][variant]
            if (a["sim_rounds"], a["tx_sha256"]) != (b["sim_rounds"], b["tx_sha256"]):
                raise SystemExit(f"Proposition 1 fails at {scale} variant {variant}: {a} vs {b}")
    try:
        run.WORK_DIR.rmdir()
    except OSError:
        pass
    run.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
