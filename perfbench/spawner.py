"""Runs the harness's commands from a small process.

On Linux a child's ``ru_maxrss`` is at least the peak RSS of the process
that forked it, so commands forked by the harness, which holds numpy and
parsed CSV files, would report the harness's peak instead of their own.
This process stays small.  It reads one JSON request per line on stdin,
``{"argv", "cwd", "env", "log", "timeout"}``, runs the command with its
output in ``log + ".out"`` and ``log + ".err"``, and answers with one
JSON line ``[wall seconds, peak RSS in KiB, exit code]``.  A command
still running after ``timeout`` seconds (if not null) is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"] + ".out", "wb") as out, open(req["log"] + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], cwd=req["cwd"], env=req["env"],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = None
            if req["timeout"] is not None:
                timer = threading.Timer(req["timeout"], proc.kill)
                timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                if timer is not None:
                    timer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([elapsed, usage.ru_maxrss, proc.returncode]), flush=True)


if __name__ == "__main__":
    main()
