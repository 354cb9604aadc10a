"""Starts the benchmark's child processes and reports their cost.

Reads one JSON request per line on standard input ({"argv", "env", "cwd",
"stdout", "stderr", "timeout_s"}), runs that command to completion and
writes one JSON line back: wall seconds, peak RSS in KiB and exit code.

The peak RSS that wait4 reports for a child also counts the memory
high-water mark of the process that started it. The benchmark's own
process grows while it generates corpora, so children are started from
this small process instead, which never grows.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request):
    with open(request["stdout"], "wb") as stdout, open(request["stderr"], "wb") as stderr:
        started = time.perf_counter()
        child = subprocess.Popen(request["argv"], stdout=stdout, stderr=stderr,
                                 env=request["env"], cwd=request["cwd"])
        timer = threading.Timer(request["timeout_s"], child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
            "returncode": child.returncode}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
