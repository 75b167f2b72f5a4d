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
included), the child's own peak RSS in MB (``os.wait4``, so no other
child of this process counts), and the byte count and SHA-256 of standard
output.  Exits with the child's exit code.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHILD = "import sys; from delzant import cli; sys.exit(cli.main(sys.argv[1:]))"


def main(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    sha, size = hashlib.sha256(), 0
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdout=subprocess.PIPE, env=env)
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            sha.update(chunk)
            size += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "argv": argv,
        "exit": code,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "stdout_bytes": size,
        "stdout_sha256": sha.hexdigest(),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
