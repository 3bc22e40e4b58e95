"""Start, time and reap the benchmark's children from a process that stays small.

A child's peak RSS, as wait4 reports it, starts from the memory of the
process that spawned it: the child runs in (or on a copy of) the spawner's
pages until it execs.  The benchmark's own process holds inputs and
references, so it sends each launch here instead.

Protocol: one JSON request per line on stdin, one JSON reply per line on
stdout, until stdin closes.  A request names ``args``, ``cwd``, ``env``,
``timeout`` and the files for ``stdin`` (or null), ``stdout`` and
``stderr``; the reply holds ``code``, ``wall_s`` (launch to exit) and
``maxrss_kb``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def launch(req: dict) -> dict:
    stdin = open(req["stdin"], "rb") if req["stdin"] else subprocess.DEVNULL
    try:
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["args"], stdin=stdin, stdout=out, stderr=err, cwd=req["cwd"], env=req["env"])
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdin is not subprocess.DEVNULL:
            stdin.close()
    return {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
