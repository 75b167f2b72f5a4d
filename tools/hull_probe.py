"""Time one hull in process and hash its JSON.

    python3 tools/hull_probe.py D N
    python3 tools/hull_probe.py cube N

Run from the root of a checkout; the package is imported from ``src/``.
``D N`` hulls the cyclic D-polytope, the convex hull of (t, t^2, ..., t^D)
for t = 0, ..., N - 1, with ``Polytope.from_vertices``, and prints the
facet count beside the closed form of the upper bound theorem.  ``cube N``
hulls the N-cube [-1, 1]^N from its 2N facets with
``Polytope.from_halfspaces``, and prints the vertex count beside 2^N.
Each prints the seconds taken, the peak RSS of the process in MB, the count
and the SHA-256 of the JSON that ``delzant catalog show`` would print for
the polytope.  An input the hull refuses prints the error and its seconds
instead, and exits 2.
"""

import contextlib
import hashlib
import io
import os
import resource
import sys
import time
from math import comb

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from delzant import cli, serialize  # noqa: E402
from delzant.errors import DelzantError  # noqa: E402
from delzant.polytope import Polytope, _signed_units  # noqa: E402


def cyclic_facets(d, n):
    """The facet count of the cyclic d-polytope on n > d points: by Gale's
    evenness condition, n/(n - m) C(n - m, m) for d = 2m and
    2 C(n - m - 1, m) for d = 2m + 1."""
    m = d // 2
    if d % 2:
        return 2 * comb(n - m - 1, m)
    return n * comb(n - m, m) // (n - m)


def main(argv):
    cube = argv[0] == "cube"
    if cube:
        n = int(argv[1])
        hull, given = Polytope.from_halfspaces, [(e, 1) for e in _signed_units(n)]
    else:
        d, n = map(int, argv)
        hull, given = Polytope.from_vertices, [tuple(t**i for i in range(1, d + 1)) for t in range(n)]
    t0 = time.perf_counter()
    try:
        P = hull(given)
    except DelzantError as e:
        print(f"refused in {time.perf_counter() - t0:.2f} s: {type(e).__name__}: {e}")
        return 2
    dt = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(serialize.polytope_to_json(P))
    if cube:
        count = f"{len(P.vertices)} vertices (2^{n} = {2**n})"
    else:
        count = f"{len(P.facets)} facets (closed form {cyclic_facets(d, n)})"
    print(f"{dt:.2f} s  {rss:.0f} MB peak RSS  {count}  "
          f"sha256 {hashlib.sha256(out.getvalue().encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
