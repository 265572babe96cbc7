"""Run commands one at a time and report each one's wall time and peak RSS.

Reads one JSON request per line on stdin ({"argv", "cwd", "stdout",
"stderr"}) and answers each with one JSON line ({"code", "wall_s",
"maxrss_kb"}). It exits when stdin closes.

The benchmark starts this helper while it is still small and spawns every
measured command through it. A child started directly by the benchmark would
report the benchmark's own peak RSS as its floor, because the kernel carries
the parent's high-water mark into a vfork'd child's ru_maxrss.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
