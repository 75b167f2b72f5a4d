"""Print the lines of the package that no test reaches.

    python3 tools/line_trace.py [PYTEST_ARGS...]

Run from the root of a checkout; the package is imported from ``src/``.
Runs pytest in this process, with PYTEST_ARGS (``tests`` when none are
given), under a ``sys.settrace`` collector limited to the files of
``src/delzant``, and then prints, for each module, the executable lines
that no test reached, as ranges, and a total.  Module-level lines, and
the bodies of classes, are left out: they run at import.  A function's
lines are those its code object maps instructions to, so a docstring or a
comment is never named.  Exits with pytest's exit code.

Only this process is traced: a path that runs only in a child process
shows as unreached, such as ``cli.main`` reading ``sys.argv`` and its
closed-pipe handling, which only the tests that start ``delzant`` in a
subprocess reach.  Tracing makes the suite run about four times slower.
"""

import os
import sys
from inspect import CO_NEWLOCALS

ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def executable_lines(path):
    """The lines of every function, method, lambda and comprehension
    compiled from the file at path, without the module's own code and
    class bodies."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        if co.co_flags & CO_NEWLOCALS:
            lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def trace(root, pytest_args):
    """Run pytest on pytest_args in this process, tracing every file under
    the directory root.  Returns pytest's exit code and, for each .py file
    under root, the sorted executable lines that were not reached."""
    import pytest

    root = os.path.realpath(root)
    reached = {}  # file name as the code object gives it -> a set, or None
    files = {}  # real path -> the set of its reached lines

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def collect(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in reached:
            real = os.path.realpath(name)
            inside = real.startswith(root + os.sep)
            reached[name] = files.setdefault(real, set()) if inside else None
        lines = reached[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    old = sys.gettrace()
    sys.settrace(collect)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(old)
    unreached = {}
    for folder, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                unreached[path] = sorted(executable_lines(path) - files.get(path, set()))
    return int(code), unreached


def ranges(lines):
    """Sorted line numbers as "a-b" runs of consecutive lines."""
    out = []
    for n in lines:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv):
    sys.path.insert(0, ROOT)
    code, unreached = trace(os.path.join(ROOT, "delzant"), argv or ["tests"])
    print()
    for path, lines in unreached.items():
        if lines:
            print(f"{os.path.relpath(path)}: {ranges(lines)}")
    print(f"{sum(map(len, unreached.values()))} executable lines unreached "
          f"in {sum(1 for lines in unreached.values() if lines)} of {len(unreached)} modules")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
