"""Start commands on request; report each one's exit code, wall time and
peak RSS.

    python3 perfbench/launch.py < requests

Each stdin line is a JSON request ``{"argv": [...], "log": PATH,
"env": {...}}``; each reply is one JSON line ``{"exit", "wall",
"rss_kb"}``. The child's stdout goes to /dev/null and its stderr to
``log``.

A child's peak RSS (``ru_maxrss`` from ``os.wait4``) also counts the
memory of the process that started it, as it stood at the fork or exec.
``run.py`` holds a whole corpus and its reports in memory, so the
commands are started from this small process instead, and their peak
RSS is their own.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        started = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
        reply = {"exit": os.waitstatus_to_exitcode(status), "wall": wall,
                 "rss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
