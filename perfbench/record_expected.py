"""Write perfbench/expected.json: every workload's outputs at the default seed.

    python3 perfbench/record_expected.py

run.py checks each run's default-seed outputs against this file at 1e-9
relative.  Re-record only when a change to the program is meant to change
its results, and say so with the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    stored = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for workload in run.WORKLOADS:
            workdir = Path(tmp) / workload
            workdir.mkdir()
            entries = []
            for op in workloads.build(workload, run.DEFAULT_SEED, workdir):
                output, _ = op()
                entries.append([op.label, checks.flatten(op.golden_view(output))])
            stored[workload] = entries
    run.EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
