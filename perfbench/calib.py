"""Fixed calibration work that measures how fast the machine runs right now.

Usage: python3 calib.py

It does a fixed amount of the kind of work the CLI does (start the
interpreter, import numpy, parse JSON lines, count into dicts, sort, format
CSV) on input built from a constant seed, and uses nothing from
``culturestream``, so its run time changes only with the machine.  ``run.py``
runs it between the measured commands and scales each command's wall time by
the calibration runs on either side of it.
"""

from __future__ import annotations

import csv
import io
import json
import random

import numpy  # noqa: F401  (the CLI imports it too; its import is part of start-up)


def main() -> None:
    rng = random.Random(12345)
    lines = [
        json.dumps({
            "id": f"r{i}",
            "user": f"u{rng.randrange(500)}",
            "timestamp": rng.randrange(10**6),
            "facts": [f"f{rng.randrange(3000)}" for _ in range(2)],
        })
        for i in range(10000)
    ]
    counts: dict[tuple, dict[str, int]] = {}
    for line in lines:
        rec = json.loads(line)
        cell = counts.setdefault((rec["user"][:2], rec["timestamp"] // 100000), {})
        for fact in rec["facts"]:
            cell[fact] = cell.get(fact, 0) + 1
    writer = csv.writer(io.StringIO())
    for key in sorted(counts):
        for fact, count in sorted(counts[key].items(), key=lambda kv: (-kv[1], kv[0])):
            writer.writerow([key[0], key[1], fact, count])


if __name__ == "__main__":
    main()
