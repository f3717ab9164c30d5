"""Run one command and report its own wall time, CPU time and peak RSS.

    python3 -S -I perfbench/launch.py FD PROGRAM ARG...

Spawns PROGRAM with this process's environment and inherited stdout/stderr,
reaps it with `os.wait4` and writes one line `wall cpu maxrss_kb exitcode` to
file descriptor FD.  Linux carries the parent's resident set over fork and
exec into the child's ru_maxrss, so a child spawned by the benchmark itself
would report at least the benchmark's RSS; this launcher imports almost
nothing, which keeps that floor far below any pillowcase run.
"""

import os
import sys
import time

report_fd = int(sys.argv[1])
argv = sys.argv[2:]
os.set_inheritable(report_fd, False)
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
code = os.waitstatus_to_exitcode(status)
os.write(report_fd, f"{wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss} {code}\n".encode())
sys.exit(0)
