"""Run one ``delzant`` command in a fresh process, and time it and hash its
standard output.

    python3 tools/json_probe.py CMD...

for example ``python3 tools/json_probe.py check gkm d6.json`` or
``python3 tools/json_probe.py gkm build D 6``.  Run from
any directory; the child imports the package from the ``src/`` of the
checkout this file belongs to.  The child's standard output is streamed
through SHA-256 as it arrives, never held; its standard error passes
through.  Prints one JSON object: the argv, the exit code, the seconds from
the start of the child to its exit (interpreter start-up and imports
included), two times the child measures itself, ``import_s`` from the
start of its script to the end of ``from delzant import cli`` and
``command_s`` from there until the command has returned and standard
output is flushed (null if the child did not get that far), the child's
own peak RSS in MB (``os.wait4``, so no other child of this process
counts), and the byte count and SHA-256 of standard output.  The child
writes its two times to a pipe of their own, so standard output is the
command's alone.  Exits with the child's exit code.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# argv[1] is the write end of the pipe for the two times
CHILD = """import os, sys, time
t0 = time.perf_counter()
from delzant import cli
t1 = time.perf_counter()
try:
    code = cli.main(sys.argv[2:])
    sys.stdout.flush()
finally:
    os.write(int(sys.argv[1]), b"%r %r" % (t1 - t0, time.perf_counter() - t1))
sys.exit(code)
"""


def main(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    sha, size = hashlib.sha256(), 0
    r, w = os.pipe()
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen([sys.executable, "-c", CHILD, str(w), *argv], stdout=subprocess.PIPE,
                                env=env, pass_fds=(w,))
    finally:
        os.close(w)
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            sha.update(chunk)
            size += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with os.fdopen(r, "rb") as fh:
        times = fh.read().split()
    import_s, command_s = [round(float(t), 6) for t in times] if times else (None, None)
    print(json.dumps({
        "argv": argv,
        "exit": code,
        "seconds": round(seconds, 3),
        "import_s": import_s,
        "command_s": command_s,
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "stdout_bytes": size,
        "stdout_sha256": sha.hexdigest(),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
