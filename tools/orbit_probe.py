"""Time one ``delzant gkm build`` in process and hash its standard output.

    python3 tools/orbit_probe.py TYPE RANK [--I i,j,...]

Run from the root of a checkout; the package is imported from ``src/``.
The output is streamed through SHA-256 as it is written, never held, so
the peak RSS is that of the build itself.  Prints the exit code, the
seconds taken, the peak RSS of the process in MB, the byte count and the
SHA-256 of standard output.
"""

import hashlib
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from delzant import cli  # noqa: E402


class HashSink:
    """A text stream that keeps only the SHA-256 and length of what is
    written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, s):
        b = s.encode()
        self.sha.update(b)
        self.size += len(b)
        return len(s)

    def flush(self):
        pass


def main(argv):
    sink = HashSink()
    stdout, sys.stdout = sys.stdout, sink
    try:
        t0 = time.perf_counter()
        code = cli.main(["gkm", "build", *argv])
        dt = time.perf_counter() - t0
    finally:
        sys.stdout = stdout
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"exit {code}  {dt:.2f} s  {rss:.0f} MB peak RSS  {sink.size} bytes  "
          f"sha256 {sink.sha.hexdigest()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
