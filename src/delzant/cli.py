"""Command-line interface: JSON ingestion, catalog access, identity
verification, and table reproduction.

Exit codes: 0 on pass, 1 on identity failure, 2 on input or usage errors.
"""

import argparse
import functools
import gc
import io
import json
import os
import sys
from fractions import Fraction
from itertools import chain, islice
from math import lcm

from . import bounds, catalog, gkm, reflexive, roots, serialize
from .errors import DelzantError, MalformedInput, UnboundedSearch
from .gkm import GkmGraph
from .polytope import Polytope
from .report import VerificationReport

_KIND = {Polytope: "a polytope", GkmGraph: "a GKM graph"}


def _read_json(source):
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source) as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise MalformedInput(f"cannot read {source!r}: {e}")
    # ValueError also covers an integer literal too long to convert, and
    # RecursionError arrays or objects nested too deep.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise MalformedInput(f"invalid JSON in {source!r}: {e}")


def _load_input(source, *kinds):
    """Resolve an input spec to a polytope or graph of one of the given
    kinds (Polytope, GkmGraph); another kind is MalformedInput.

    Accepts ``catalog:NAME``, a file path, or ``-`` for standard input.
    """
    if source.startswith("catalog:"):
        name = source[len("catalog:"):]
        try:
            obj = catalog.load(name)
        except KeyError as e:
            raise MalformedInput(e.args[0])
    else:
        data = _read_json(source)
        if isinstance(data, dict) and "ambient_dim" in data:
            obj = serialize.graph_from_json(data)
        else:
            obj = serialize.polytope_from_json(data)
    if not isinstance(obj, kinds):
        raise MalformedInput(
            f"{source} is {_KIND[GkmGraph if isinstance(obj, GkmGraph) else Polytope]}; "
            "this command takes "
            + " or ".join(_KIND[k] for k in kinds)
        )
    return obj


def _parse_ints(text, what):
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise MalformedInput(f"cannot parse {what} {text!r}")


_encode_str = json.encoder.encode_basestring_ascii


def _key(k):
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return _encode_str(k)


def _dumps(o, pad):
    """The text of ``json.dumps(o, indent=2, sort_keys=True)`` for a value
    written after the newline-and-indent ``pad``, with each Fraction
    written as ``serialize.num_to_json`` gives it: an integer or "p/q".
    Only str, int, Fraction, bool, None, list, tuple and dict with str
    keys are taken; anything else, a float included, raises TypeError."""
    if type(o) is int:
        return int.__repr__(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        # Ints, most of a graph's values, are written without a call here
        # and below.  Sorted items order by key alone: the keys are distinct.
        return "{" + inner + ("," + inner).join([
            _key(k) + ": " + (int.__repr__(v) if type(v) is int else _dumps(v, inner))
            for k, v in sorted(o.items())
        ]) + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([
            int.__repr__(v) if type(v) is int else _dumps(v, inner) for v in o
        ]) + pad + "]"
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if type(o) is Fraction:
        return _dumps(serialize.num_to_json(o), pad)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _stream(o, pad="\n", depth=2):
    """The text of ``_dumps(o, pad)`` in pieces: containers in the top
    ``depth`` levels are walked, so no piece holds more than one of their
    members, and deeper values are written whole."""
    if not (depth and o and isinstance(o, (list, tuple, dict))):
        yield _dumps(o, pad)
        return
    inner = pad + "  "
    if isinstance(o, dict):
        close = "}"
        members = ((_key(k) + ": ", v) for k, v in sorted(o.items()))
        sep = "{" + inner
    else:
        close = "]"
        members = (("", v) for v in o)
        sep = "[" + inner
    for head, v in members:
        yield sep + head
        yield from _stream(v, inner, depth - 1)
        sep = "," + inner
    yield pad + close


def _emit(payload, text=False):
    if text:
        # The text is made whole and written once, so a refusal raised
        # while it is made leaves nothing on standard output.
        buf = io.StringIO()
        _emit_text(payload, buf)
        sys.stdout.write(buf.getvalue())
        return
    # The pieces go out in batches, so a large document is never held as
    # one string.
    out = sys.stdout
    chunks = _stream(payload)
    for batch in iter(lambda: list(islice(chunks, 1 << 12)), []):
        out.write("".join(batch))
    out.write("\n")


def _emit_graph(G, extra):
    """Print ``json.dumps(serialize.graph_to_json(G) | extra, indent=2,
    sort_keys=True)`` and a newline.  The vertex and edge records are
    formatted straight from G's coordinates and edge columns and written in
    batches, never built as dicts; each distinct coordinate, weight and
    length is formatted once, the weights by G's weight-index column.  Each
    distinct number, and each id other than an int, goes through
    ``_dumps``."""
    out = sys.stdout

    def texts(xs):
        # the text of each distinct number
        return {x: _dumps(x, "") for x in set(xs)}

    def numbers(k):
        # a list of k numbers inside a record, one %s each
        return "[\n        " + ",\n        ".join(["%s"] * k) + "\n      ]" if k else "[]"

    def records(texts):
        sep = "[\n    "
        for batch in iter(lambda: list(islice(texts, 1 << 12)), []):
            out.write(sep + ",\n    ".join(batch))
            sep = ",\n    "
        out.write("[]" if sep == "[\n    " else "\n  ]")

    ids = {vid: int.__repr__(vid) if type(vid) is int else _dumps(vid, "") for vid in G.ids}
    coords, lengths = G.coords, G._length_col
    table, windex = G._weight_index
    vertex = '{\n      "coords": ' + numbers(G.ambient_dim) + ',\n      "id": %s\n    }'
    weight = numbers(G.ambient_dim)
    wtext = [weight % w for w in table]
    ltext, ctext = texts(lengths), texts(chain.from_iterable(coords.values()))
    edge = '{\n      "length": %s,\n      "u": %s,\n      "v": %s,\n      "weight": %s\n    }'
    vertices = (vertex % (*map(ctext.__getitem__, coords[v]), ids[v]) for v in G.ids)
    edges = (edge % (lt, ids[u], ids[v], wt) for (u, v), lt, wt in
             zip(G.edge_list, map(ltext.__getitem__, lengths), map(wtext.__getitem__, windex)))

    doc = {"ambient_dim": G.ambient_dim, "degree": G.degree,
           "vertices": vertices, "edges": edges} | extra
    sep = "{\n  "
    for k in sorted(doc):
        out.write(sep + _key(k) + ": ")
        v = doc[k]
        if v is vertices or v is edges:
            records(v)
        else:
            out.write(_dumps(v, "\n  "))
        sep = ",\n  "
    out.write("\n}\n")


def _emit_text(payload, out, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:", file=out)
                _emit_text(v, out, indent + 1)
            else:
                print(f"{pad}{k}: {v}", file=out)
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, out, indent + 1)
            else:
                print(f"{pad}{v}", file=out)


def _report_exit(rep, text):
    _emit(rep.to_dict(), text)
    return 0 if rep.passed else 1


def cmd_check(args):
    which = args.which
    obj = _load_input(args.input, Polytope if which in ("delzant", "reflexive") else GkmGraph)
    if which == "delzant":
        rep = reflexive.is_delzant(obj)
    elif which == "reflexive":
        ok = reflexive.is_reflexive(obj)
        rep = VerificationReport("reflexive", ok)
    elif which == "gkm":
        rep = gkm.validate(obj)
    else:  # gorenstein
        rep = VerificationReport("gorenstein", True)
        rep.add_item("index", True, {"r": gkm.gorenstein_index(obj)})
    return _report_exit(rep, args.text)


# Looked up in reflexive at call time, so that wrappers set on the module
# attributes see these calls.
_POLYTOPE_IDENTITIES = {
    "main": "verify_main_theorem",
    "12-24": "verify_12_24",
    "combinatorics2": "verify_thm_combinatorics2",
    "length-decomposition": "verify_length_decomposition",
    "index-corollary": "verify_index_corollary",
}


def cmd_verify(args):
    ident = args.identity
    if ident == "graph-corollary":
        if args.with_oracle:
            raise MalformedInput("--with-oracle takes a polytope identity: graphs have no oracle")
        obj = _load_input(args.input, GkmGraph)
        rep = gkm.verify_graph_corollary(obj)
    elif ident in _POLYTOPE_IDENTITIES:
        obj = _load_input(args.input, Polytope)
        rep = getattr(reflexive, _POLYTOPE_IDENTITIES[ident])(obj)
    elif ident.startswith("gorenstein:"):
        try:
            r = serialize.num_from_json(ident.split(":", 1)[1])
        except MalformedInput:
            raise MalformedInput(f"cannot parse the index in {ident!r}")
        obj = _load_input(args.input, Polytope)
        rep = reflexive.verify_gorenstein(obj, r)
    else:
        raise MalformedInput(f"unknown identity {ident!r}")
    if args.with_oracle:
        from . import oracle  # imported on use: only --with-oracle needs it

        ok = oracle.brute_f_vector(obj) == obj.f_vector()
        rep.add_item("oracle f-vector", ok)
        # An edge of a rational polytope, scaled by q, the lcm of its ends'
        # denominators, has q times its length as lattice length.
        S = obj.skeleton()
        for (u, v), length in zip(S.edge_list, S._length_col):
            a, b = obj.vertices[u], obj.vertices[v]
            q = lcm(*[c.denominator for c in a + b])
            count = oracle.lattice_points_on_segment([q * c for c in a], [q * c for c in b])
            rep.add_item(f"oracle length {(u, v)}", count - 1 == q * length)
    return _report_exit(rep, args.text)


def cmd_dual(args):
    P = _load_input(args.input, Polytope)
    _emit(serialize.polytope_to_json(P.dual()), args.text)
    return 0


def cmd_fvector(args):
    P = _load_input(args.input, Polytope)
    out = {"f": list(P.f_vector())}
    if args.with_oracle:
        from . import oracle

        out["oracle_f"] = list(oracle.brute_f_vector(P))
        if out["oracle_f"] != out["f"]:
            _emit(out, args.text)
            return 1
    _emit(out, args.text)
    return 0


def cmd_hvector(args):
    obj = _load_input(args.input, Polytope, GkmGraph)
    xi = _parse_ints(args.xi, "direction") if args.xi else None
    if isinstance(obj, Polytope):
        out = {"h": list(obj.h_vector_comb())}
        if xi is not None or args.directed:
            out["h_directed"] = list(obj.h_vector_directed(xi))
    else:
        out = {"h": list(gkm.h_vector_graph(obj, xi))}
    _emit(out, args.text)
    return 0


def cmd_lengths(args):
    obj = _load_input(args.input, Polytope, GkmGraph)
    if isinstance(obj, Polytope):
        lengths, G = obj.relative_lengths(), obj.skeleton()
    else:
        lengths, G = obj._length_col, obj
    per = [{"edge": list(e), "length": l} for e, l in zip(G.edge_list, lengths)]
    _emit({"edges": per, "sum": G.sum_lengths()}, args.text)
    return 0


def _show_graph(G, text, extra):
    if text:
        _emit(serialize.graph_to_json(G) | extra, text=True)
    else:
        _emit_graph(G, extra)


def cmd_gkm_build(args):
    I = _parse_ints(args.I, "simple-root indices") if args.I else ()
    rs = roots.build(args.type, args.rank)
    G = roots.coadjoint_graph(rs, I)
    rep = gkm.verify_graph_corollary(G)
    _show_graph(G, args.text, {
        "h": next(i["detail"]["h"] for i in rep.per_item if i["id"] == "h-vector"),
        "sum_lengths": rep.lhs,
        "verification": rep.to_dict(),
    })
    return 0 if rep.passed else 1


def cmd_gkm_check(args):
    G = _load_input(args.input, GkmGraph)
    rep = gkm.validate(G)
    return _report_exit(rep, args.text)


def cmd_bounds_table(args):
    ns = range(args.n_min, args.n_max + 1)
    k0s = range(args.k0_min, args.k0_max + 1)
    table = bounds.table_c(ns, k0s)
    out = [
        {"n": n, "k0": k0, "constant": c, "coefficients": list(coef)}
        for (n, k0), (c, coef) in sorted(table.items())
    ]
    _emit(out, args.text)
    return 0


def cmd_bounds_enumerate(args):
    res = bounds.enumerate_admissible(
        args.n, args.k0, require_unimodal=args.unimodal, cap=args.cap
    )
    out = {
        "n": res.n,
        "k0": res.k0,
        "constraints": res.constraints,
        "half_vectors": [list(h) for h in res.half_vectors],
        "complete": res.complete,
    }
    _emit(out, args.text)
    return 0


def cmd_catalog_list(args):
    out = [
        {"name": e.name, "kind": e.kind, "note": e.note}
        for e in catalog.entries().values()
        if args.kind is None or e.kind == args.kind
    ]
    _emit(out, args.text)
    return 0


def cmd_catalog_show(args):
    obj = _load_input("catalog:" + args.name, Polytope, GkmGraph)
    if isinstance(obj, Polytope):
        _emit(serialize.polytope_to_json(obj), args.text)
    else:
        _show_graph(obj, args.text, {})
    return 0


# Each command by its path: its help (None for none) and its arguments, as
# (name, add_argument keywords).  Its handler is "cmd_" and the path joined
# by "_", looked up in this module at call time.  ``_read`` reads only the
# keywords that a test in tests/test_cli_parse.py allows.
_INPUT = ("input", {})
_FLAG = {"action": "store_true"}
_TEXT = ("--text", {"action": "store_true", "help": "aligned text output instead of JSON"})
_COMMANDS = {
    ("check",): ("validate an input object", [
        ("which", {"choices": ["delzant", "reflexive", "gkm", "gorenstein"]}), _INPUT]),
    ("verify",): ("verify an identity on an input object", [
        ("identity", {}), _INPUT, ("--with-oracle", _FLAG)]),
    ("dual",): ("polar dual of a reflexive polytope", [_INPUT]),
    ("fvector",): ("f-vector of a polytope", [_INPUT, ("--with-oracle", _FLAG)]),
    ("hvector",): ("h-vector of a polytope or graph", [
        _INPUT, ("--xi", {"help": "generic direction as comma-separated integers"}),
        ("--directed", _FLAG)]),
    ("lengths",): ("edge lengths and their sum", [_INPUT]),
    ("gkm", "build"): ("build a coadjoint Weyl-orbit graph", [
        ("type", {"help": "root system type: A, B, C, D or G2"}), ("rank", {"type": int}),
        ("--I", {"default": "", "help": "comma-separated 0-based simple-root indices"})]),
    ("gkm", "check"): ("validate a GKM graph", [_INPUT]),
    ("bounds", "table"): ("coefficient table over ranges of n and k0", [
        ("--n-min", {"type": int, "default": 2}), ("--n-max", {"type": int, "default": 5}),
        ("--k0-min", {"type": int, "default": 1}), ("--k0-max", {"type": int, "default": 6})]),
    ("bounds", "enumerate"): ("admissible symmetric vectors for (n, k0)", [
        ("--n", {"type": int, "required": True}), ("--k0", {"type": int, "required": True}),
        ("--unimodal", _FLAG), ("--cap", {"type": int})]),
    ("catalog", "list"): (None, [("--kind", {"choices": ["polytope", "gkm-graph"]})]),
    ("catalog", "show"): (None, [("name", {})]),
}
# The groups of two-word commands and their help; a group's parser keeps
# the second word in "<group>_command".
_GROUPS = {
    "gkm": "GKM graph operations",
    "bounds": "coefficient tables and admissible vectors",
    "catalog": "built-in example catalog",
}


def _fill(p, path):
    """Give p the arguments of the command ``path``, ``--text`` first, and
    the name of its handler as the ``func`` default."""
    for name, kw in [_TEXT, *_COMMANDS[path][1]]:
        p.add_argument(name, **kw)
    p.set_defaults(func="cmd_" + "_".join(path))
    return p


@functools.cache
def build_parser():
    """The whole argument tree, built from ``_COMMANDS`` in its order once
    per process, on first use."""
    p = argparse.ArgumentParser(
        prog="delzant",
        description="Exact verification of edge-length identities for "
        "reflexive Delzant polytopes and GKM graphs.",
    )
    subs = {(): p.add_subparsers(dest="command", required=True)}
    for path, (summary, _) in _COMMANDS.items():
        group = path[:-1]
        if group not in subs:
            g = subs[()].add_parser(group[0], help=_GROUPS[group[0]])
            subs[group] = g.add_subparsers(dest=group[0] + "_command", required=True)
        # a help of None would still list the command in its group's help
        _fill(subs[group].add_parser(path[-1], **({"help": summary} if summary else {})), path)
    return p


class _Unparsed(Exception):
    """Help, a usage error or another argv that ``_read`` does not take off
    ``_COMMANDS``: argparse's whole tree parses it."""


def _read(path, words):
    """The tree's Namespace for the command ``path`` and the words after
    it, read off its row of ``_COMMANDS`` and ``--text``: positionals in
    order, store_true flags and one-value options (``--name value`` or
    ``--name=value``, the last one winning), each value through its
    ``type`` and ``choices`` as it is read.  Any other word starting with
    "-" but "-" itself, a flag given a value, a missing or extra
    positional, a refused value or a missing required option raises
    _Unparsed."""
    row = dict([_TEXT, *_COMMANDS[path][1]])
    positionals = [(name, kw) for name, kw in row.items() if name[0] != "-"]
    ns = {name: kw.get("default", False if "action" in kw else None) for name, kw in row.items()}
    words = iter(words)
    for value in words:
        if value[:1] != "-" or value == "-":
            if not positionals:
                raise _Unparsed
            name, kw = positionals.pop(0)
        else:
            name, eq, value = value.partition("=")
            kw = row.get(name)
            if kw is None or (eq and "action" in kw):
                raise _Unparsed
            if "action" in kw:
                value = True
            elif not eq:
                value = next(words, None)
                if value is None or (value[:1] == "-" and value != "-"):
                    raise _Unparsed
        try:
            ns[name] = kw["type"](value) if "type" in kw else value
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise _Unparsed from None
        if "choices" in kw and ns[name] not in kw["choices"]:
            raise _Unparsed
    if positionals or any(kw.get("required") and ns[name] is None for name, kw in row.items()):
        raise _Unparsed
    ns.update(command=path[0], func="cmd_" + "_".join(path))
    if len(path) == 2:
        ns[path[0] + "_command"] = path[1]
    return argparse.Namespace(**{k.lstrip("-").replace("-", "_"): v for k, v in ns.items()})


def _parse(argv):
    """``build_parser().parse_args(argv)``, read off ``_COMMANDS`` by
    ``_read`` where it can be.  argparse builds the whole tree only for
    argv that names no command and for argv that ``_read`` does not take:
    help, usage errors and the rarer forms argparse allows.  So every help
    text, usage line and error message is the tree's."""
    if argv is None:
        argv = sys.argv[1:]
    for k in (1, 2):
        path = tuple(argv[:k])
        if path in _COMMANDS:
            try:
                return _read(path, argv[k:])
            except _Unparsed:
                break
    return build_parser().parse_args(argv)


def _to_devnull(stream):
    """Point a stream whose reader left at devnull, so that the flush at
    interpreter exit cannot fail again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _refuse(message):
    """Print the message to standard error and return 2, also when the
    reader closed standard error."""
    try:
        print(message, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)
    return 2


def main(argv=None):
    args = _parse(argv)
    # A command makes no reference cycles, so the cyclic collector would
    # only rescan its growing heap; it is off until the command returns.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = globals()[args.func](args)
        sys.stdout.flush()
        return code
    except (MalformedInput, UnboundedSearch) as e:
        return _refuse(f"error: {e}")
    except DelzantError as e:
        return _refuse(f"error: {type(e).__name__}: {e}")
    except ValueError as e:
        # Python's limit on the digits of an int written as text; the
        # reader's own use of that limit is MalformedInput
        if "integer string conversion" not in str(e):
            raise
        return _refuse(f"error: cannot write a number: {str(e).partition(';')[0]}")
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        return _refuse("error: standard output was closed")
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
