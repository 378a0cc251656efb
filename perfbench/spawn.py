"""Run one command and print its spawn time, wall time, exit code and rusage.

    python3 -S perfbench/spawn.py CMD [ARGS...]

Prints one JSON object on stdout; the command's stdin and stdout are
/dev/null and its stderr is this process's stderr.

The benchmark spawns every CLI child through this small process because on
Linux a child's ru_maxrss starts at the high-water mark of the memory image
its exec replaced. For a child spawned straight from the benchmark, that is
the benchmark's own peak, which would hide the child's.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    devnull = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    json.dump({
        "start": start,
        "wall_s": wall,
        "code": os.waitstatus_to_exitcode(status),
        "maxrss_kib": usage.ru_maxrss,
        "minflt": usage.ru_minflt,
        "sys_s": usage.ru_stime,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
