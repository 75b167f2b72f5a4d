"""One digest over the bytes of a fixed set of ``delzant`` commands.

    python3 tools/cli_sweep.py [CHECKOUT] [--list]

Imports ``delzant.cli`` from the ``src/`` of CHECKOUT (by default this
file's checkout) and runs every argv of ``argvs()`` through ``cli.main`` in
this process, with standard output and standard error captured.  The JSON
inputs are written into a temporary directory, and the commands run from
there under relative names, so that no message holds a path.  The set:

- under every catalog entry and every input file, each form of ``FORMS``
  (``check`` x4, ``verify`` x11, ``dual``, ``fvector``, ``hvector``,
  ``lengths``, ``gkm check``, three more ``hvector`` forms and three
  ``--with-oracle`` forms), each with and without ``--text``;
- ``catalog show`` of every entry with and without ``--text``, three
  ``catalog list``s, the ``gkm build``s of ``BUILDS``, the ``bounds`` runs
  of ``BOUNDS`` and the usage errors of ``USAGE``.

A usage error's ``SystemExit`` reads as its code, and any other exception
out of ``cli.main`` as "raised NAME".  Each argv's digest is the SHA-256
of the JSON of (argv, exit code, stdout, stderr).  Prints the number of
argv and one SHA-256 over their digests, in order; with ``--list``, first
one line per argv, its digest and the argv.  Two checkouts that give the
same digest printed the same bytes for every argv.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]  # in cyclic order
CP2 = [(-1, -1), (2, -1), (-1, 2)]
CUBE = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
A2_FLAG = [(-2, -2), (-2, 0), (0, -2), (0, 2), (2, 0), (2, 2)]
A2_EDGES = [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]


def _num(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _scaled(points, s):
    return [[_num(s * c) for c in p] for p in points]


def _polytope(points, s=1):
    return {"dim": len(points[0]), "vertices": _scaled(points, s)}


def _graph(points, edges, s=1, ids=None):
    ids = ids or range(len(points))
    return {"ambient_dim": len(points[0]), "degree": 2 * len(edges) // len(points),
            "vertices": [{"id": i, "coords": c} for i, c in zip(ids, _scaled(points, s))],
            "edges": [{"u": ids[u], "v": ids[v]} for u, v in edges]}


HEXAGON_EDGES = [(i, (i + 1) % 6) for i in range(6)]
CUBE_EDGES = [(u, v) for u in range(8) for v in range(u + 1, 8) if (u ^ v).bit_count() == 1]
STRING_IDS = [f"v{i}" for i in range(6)]
FILES = {
    "hexagon-half.json": _polytope(HEXAGON, Fraction(1, 2)),
    "cp2-half.json": _polytope(CP2, Fraction(1, 2)),
    "cp2-double.json": _polytope(CP2, 2),
    "hexagon-skeleton.json": _graph(HEXAGON, HEXAGON_EDGES),
    "cube-skeleton.json": _graph(CUBE, CUBE_EDGES),
    "hexagon-half-skeleton.json": _graph(HEXAGON, HEXAGON_EDGES, Fraction(1, 2)),
    **{f"a2-flag-{s.numerator}-{s.denominator}.json": _graph(A2_FLAG, A2_EDGES, s, STRING_IDS)
       for s in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2))},
}

# Each form's words with the input where "{}" stands.
FORMS = [
    *(["check", which, "{}"] for which in ("delzant", "reflexive", "gkm", "gorenstein")),
    *(["verify", ident, "{}"] for ident in (
        "main", "12-24", "combinatorics2", "length-decomposition", "index-corollary",
        "graph-corollary", "gorenstein:1", "gorenstein:2", "gorenstein:3", "gorenstein:1/2",
        "gorenstein:3/2")),
    ["dual", "{}"], ["fvector", "{}"], ["hvector", "{}"], ["lengths", "{}"], ["gkm", "check", "{}"],
    ["hvector", "{}", "--directed"], ["hvector", "{}", "--xi", "1,3"],
    ["hvector", "{}", "--xi", "1,3,9"],
    ["verify", "main", "{}", "--with-oracle"], ["verify", "gorenstein:2", "{}", "--with-oracle"],
    ["fvector", "{}", "--with-oracle"],
]
BUILDS = [["A", "1"], ["A", "2"], ["A", "3"], ["B", "2"], ["C", "3"], ["D", "4"], ["G2", "2"],
          ["A", "3", "--I", "0"], ["B", "3", "--I", "1,2"], ["A", "2", "--text"],
          ["A", "3", "--I", "0,1,2"]]
BOUNDS = [["table"], ["table", "--n-max", "3", "--text"],
          ["enumerate", "--n", "4", "--k0", "3", "--unimodal"],
          ["enumerate", "--n", "6", "--k0", "2", "--cap", "3", "--text"]]
USAGE = [["verify"], ["frobnicate"]]


def argvs(names):
    """Every argv of the sweep, in order, for the catalog entries names."""
    for source in [*(f"catalog:{name}" for name in names), *FILES]:
        for form in FORMS:
            argv = [w.replace("{}", source) for w in form]
            yield argv
            yield argv + ["--text"]
    for name in names:
        yield ["catalog", "show", name]
        yield ["catalog", "show", name, "--text"]
    yield from (["catalog", "list"], ["catalog", "list", "--kind", "polytope"],
                ["catalog", "list", "--kind", "gkm-graph", "--text"])
    yield from (["gkm", "build", *words] for words in BUILDS)
    yield from (["bounds", *words] for words in BOUNDS)
    yield from USAGE


def run(cli, argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:
            code = f"raised {type(e).__name__}"
    return code, out.getvalue(), err.getvalue()


def sweep(cli, names):
    """(argv, digest) for each argv of the sweep, run from a temporary
    directory that holds the input files."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in FILES.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(doc, fh)
        os.chdir(tmp)
        try:
            return [(argv, hashlib.sha256(json.dumps([argv, *run(cli, argv)]).encode()).hexdigest())
                    for argv in argvs(names)]
        finally:
            os.chdir(here)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", nargs="?", default=ROOT)
    p.add_argument("--list", action="store_true", help="print each argv's digest")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
    from delzant import catalog, cli

    rows = sweep(cli, catalog.names())
    if args.list:
        for words, digest in rows:
            print(digest, " ".join(words))
    total = hashlib.sha256("".join(digest for _, digest in rows).encode()).hexdigest()
    print(f"{len(rows)} argv  sha256 {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
