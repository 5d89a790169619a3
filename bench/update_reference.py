"""Add reference output values for new seeds from benchmark results.

    python3 bench/update_reference.py

Reads ``bench/results/*.json`` and copies the output values of every
correct run whose workload and seed have no entry yet into
``bench/reference.json``. Existing entries are never changed: a change
that alters the program's numerics on purpose replaces them by hand, in a
change of its own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    path = BENCH / "reference.json"
    with open(path) as fh:
        reference = json.load(fh)
    added = 0
    for result in sorted((BENCH / "results").glob("*-trace*.json")):
        with open(result) as fh:
            record = json.load(fh)
        if not record["correct"] or record["workload"] not in reference:
            continue
        entries = reference[record["workload"]]
        if str(record["seed"]) not in entries:
            entries[str(record["seed"])] = record["values"]
            added += 1
    for workload, entries in reference.items():
        reference[workload] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"added {added} reference entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
