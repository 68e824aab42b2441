"""Runs the benchmark's calls for run.py and reports wall time and peak RSS.

On Linux a child's peak RSS from wait4 is at least the peak RSS of the
process that spawned it: the child starts on its parent's address space,
and exec folds that space's high-water mark into the child's figure.
run.py holds reference primes of hundreds of MB, so it spawns every call
through this small process, which imports no more than it needs here; a
call's figure is then at least this process's own peak (about 12 MB on
CPython 3.11), far below that of any `kramanujan` call.

Protocol: one JSON request per line on stdin,
{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds};
one JSON reply per line on stdout, {"seconds", "rss_mb", "exit"}.  A call
that outlives its timeout is killed and reported as exit -9.  The process
ends at end of input.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(argv: list, stdout_path: str, stderr_path: str, timeout: float) -> dict:
    """Run argv to completion, timed from spawn to reap."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
