"""A small process that runs commands one at a time and reports each one's peak RSS.

A child's ``ru_maxrss`` counts the memory of the process it was forked
from: Linux carries the parent's high-water mark across fork and exec.
A CLI process started by the benchmark process itself would report at
least the benchmark's own size. Started from this small process
instead, each child reports its own peak.

Protocol: one JSON object per line on stdin, ``{"argv", "env",
"timeout"}``, answered by one per line on stdout, ``{"returncode",
"output", "maxrss_kb"}`` (``returncode`` is null on a timeout). The
process exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys


def _timed_out(signum, frame):
    raise TimeoutError


def run(argv: list[str], env: dict, timeout: int) -> dict:
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    with proc.stdout:
        signal.alarm(timeout)
        try:
            # Output is a few lines; it fits in the pipe until the child has exited.
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            return {"returncode": None, "output": f"ran longer than {timeout} s", "maxrss_kb": 0}
        finally:
            signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"returncode": proc.returncode, "output": proc.stdout.read().decode(),
                "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGALRM, _timed_out)
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["env"], request["timeout"])), flush=True)


if __name__ == "__main__":
    main()
