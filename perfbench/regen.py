"""Regenerate ``expected.json``, the artefacts every run is checked against.

``python3 perfbench/regen.py [workload ...]`` runs each committed input
of the named workloads (default: all) once, untraced, and rewrites
their entries.  Only do this when a change is meant to alter an
artefact, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from artefacts import (
    EXPECTED_PATH,
    OUT_DIR,
    WORKLOADS,
    ensure_importable,
    run_iteration,
)


def main(names) -> int:
    ensure_importable()
    OUT_DIR.mkdir(exist_ok=True)
    expected = (json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
                if EXPECTED_PATH.exists() else {})
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        outputs = {}
        for input_seed in workload.pool:
            it = run_iteration(workload, input_seed, OUT_DIR)
            if it.error is not None or it.failed:
                raise SystemExit(f"{name} input {input_seed} failed: "
                                 f"{it.error or f'{it.failed} cells'}")
            outputs[str(input_seed)] = it.output
            print(f"{name} input {input_seed}: {it.cells} cells, "
                  f"{it.output['events']} events, {it.wall_s:.1f}s")
        expected[name] = outputs
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
