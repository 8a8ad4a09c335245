"""Run one command and record its wall time and resource usage.

Usage: python3 spawn.py LIMIT_S RESULT_JSON COMMAND [ARG...]

Writes {"wall_s", "rss_mb", "cpu_s", "code"} for COMMAND to RESULT_JSON and
kills COMMAND after LIMIT_S seconds.  COMMAND inherits this process's
standard streams.

The benchmark starts commands through this small process instead of forking
them itself because Linux carries the memory high-water mark of the process
that forks into the child's ``ru_maxrss``: a command forked straight from the
benchmark, which holds numpy and the ground truth, would report at least the
benchmark's own peak.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def main() -> int:
    limit, result, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, limit)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "code": os.waitstatus_to_exitcode(status),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
