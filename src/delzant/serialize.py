"""JSON encoding of polytopes, GKM graphs and reports.

Numbers are serialized exactly: integers as JSON integers, other rationals
as "p/q" strings.  No floats are ever emitted or accepted.  ``num_to_json``
and ``num_from_json`` are the two directions of that format; the CLI's
writer formats every Fraction of its output by ``num_to_json``.
"""

import re
from fractions import Fraction

from .errors import MalformedInput
from .gkm import GkmGraph
from .polytope import Polytope


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def num_to_json(x):
    """An int or Fraction as a JSON integer, or as a "p/q" string."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def num_from_json(x):
    """A JSON number: an integer as itself, a "p" or "p/q" string as a
    Fraction."""
    if isinstance(x, bool):
        raise MalformedInput(f"boolean {x!r} is not a number")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        # Only "p" or "p/q": Fraction would also read "1.5" and "1e999999",
        # whose integer has a million digits.
        if _RATIONAL.fullmatch(x):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
        raise MalformedInput(f"cannot parse rational {x!r}")
    raise MalformedInput(f"expected an integer or 'p/q' string, got {x!r}")


def _point_from_json(coords, dim):
    if not isinstance(coords, list) or len(coords) != dim:
        raise MalformedInput(f"bad coordinate list {coords!r}")
    return tuple(num_from_json(c) for c in coords)


def polytope_to_json(P):
    return {
        "dim": P.dim,
        "vertices": [[num_to_json(c) for c in v] for v in P.vertices],
        "facets": [
            {"normal": [int(c) for c in h.normal], "offset": num_to_json(h.offset)}
            for h in P.facets
        ],
    }


def _list(data, key):
    x = data.get(key, [])
    if not isinstance(x, list):
        raise MalformedInput(f"{key!r} must be a JSON list, got {x!r}")
    return x


def _count(data, key, least=0):
    x = data[key]
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        raise MalformedInput(f"{key!r} must be an integer >= {least}, got {x!r}")
    return x


def _halfspace_from_json(h, dim):
    """A facet's (normal, offset), which ``from_halfspaces`` clears."""
    if not isinstance(h, dict) or "normal" not in h or "offset" not in h:
        raise MalformedInput(f"bad facet {h!r}")
    return _point_from_json(h["normal"], dim), num_from_json(h["offset"])


def polytope_from_json(data):
    if not isinstance(data, dict) or "dim" not in data:
        raise MalformedInput("polytope JSON must be an object with a 'dim' key")
    dim = _count(data, "dim", 1)
    vertices, facets = _list(data, "vertices"), _list(data, "facets")
    if vertices:
        P = Polytope.from_vertices([_point_from_json(v, dim) for v in vertices])
    elif facets:
        P = Polytope.from_halfspaces(_halfspace_from_json(h, dim) for h in facets)
    else:
        raise MalformedInput("polytope JSON needs 'vertices' or 'facets'")
    return P


def graph_to_json(G):
    out = {
        "ambient_dim": G.ambient_dim,
        "degree": G.degree,
        "vertices": [
            {"id": vid, "coords": [num_to_json(c) for c in G.coords[vid]]}
            for vid in G.ids
        ],
        "edges": [],
    }
    for (u, v), w, length in zip(G.edge_list, G._weight_col, G._length_col):
        out["edges"].append(
            {
                "u": u,
                "v": v,
                "weight": list(w),
                "length": num_to_json(length),
            }
        )
    return out


def _vertex_id(x):
    # ids key dicts and sets, so a JSON list or object cannot be one
    if isinstance(x, (list, dict)):
        raise MalformedInput(f"vertex id {x!r} is not a JSON scalar")
    # ids are written back out, and no float is accepted or emitted
    if isinstance(x, float):
        raise MalformedInput(f"vertex id {x!r} is a float")
    # true and false would key the same entries as 1 and 0
    if isinstance(x, bool):
        raise MalformedInput(f"vertex id {x!r} is a boolean")
    return x


def graph_from_json(data):
    if not isinstance(data, dict):
        raise MalformedInput("graph JSON must be an object")
    for key in ("ambient_dim", "degree", "vertices", "edges"):
        if key not in data:
            raise MalformedInput(f"graph JSON missing {key!r}")
    dim = _count(data, "ambient_dim")
    vertices = []
    for v in _list(data, "vertices"):
        if not isinstance(v, dict) or "id" not in v or "coords" not in v:
            raise MalformedInput(f"bad graph vertex {v!r}")
        vertices.append((_vertex_id(v["id"]), _point_from_json(v["coords"], dim)))
    edges = []
    for e in _list(data, "edges"):
        if not isinstance(e, dict) or "u" not in e or "v" not in e:
            raise MalformedInput(f"bad graph edge {e!r}")
        edges.append((_vertex_id(e["u"]), _vertex_id(e["v"])))
    return GkmGraph(dim, _count(data, "degree"), vertices, edges)
