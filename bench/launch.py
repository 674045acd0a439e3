"""Start commands one at a time and report wall time, exit code and peak RSS.

Linux carries a process's resident high-water mark across fork and exec, so
a child's ``ru_maxrss`` is at least that of the process that started it.
``run.py`` holds numpy and the generated bundles in memory; it starts this
small process before loading them and has it start every timed command, so
that ``ru_maxrss`` from ``wait4`` is the command's own peak.

Protocol: one JSON request per line on stdin (``argv``, ``cwd``, ``env``,
``log``), one JSON reply per line on stdout (``seconds``, ``exit_code``,
``maxrss_kb``).  The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            child = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"],
                stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            seconds = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "exit_code": child.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
