"""Byte pins of the commands that read a GKM graph from its JSON.

For the JSON of every weyl corpus orbit (the output of ``gkm build``) and
of every catalog GKM graph (the output of ``catalog show``), each of
``check gkm``, ``check gorenstein``, ``verify graph-corollary``,
``hvector`` and ``lengths`` keeps the exit code and the SHA-256 of its
standard output recorded in ``graph_pins.json``; so do ``catalog show`` of
each catalog graph and ``gkm build ... --text`` of each orbit.  A graph read
from JSON derives its weights and their index column itself, so these pin
the derived path and the writers, as the build pins in ``test_cli_emit.py``
pin the orbit path."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from delzant import catalog, cli

import weyl_corpus

PINS = json.loads((Path(__file__).with_name("graph_pins.json")).read_text())
COMMANDS = [("check", "gkm"), ("check", "gorenstein"), ("verify", "graph-corollary"),
            ("hvector",), ("lengths",)]


def _build_args(kind, rank, I):
    I = ["--I", ",".join(map(str, I))] if I else []
    return ["G2" if kind == "G" else kind, str(rank), *I]


def run(argv):
    """The exit code and the SHA-256 of standard output of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def _sources():
    """Each pinned graph by name, with the command that prints its JSON."""
    for kind, rank, I in weyl_corpus.WEYL:
        args = _build_args(kind, rank, I)
        yield "gkm build " + " ".join(args), ["gkm", "build", *args]
    for name in catalog.names("gkm-graph"):
        yield "catalog show " + name, ["catalog", "show", name]


SOURCES = dict(_sources())


@pytest.fixture(scope="module")
def json_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    files = {}
    for i, (name, argv) in enumerate(SOURCES.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        files[name] = root / f"g{i}.json"
        files[name].write_text(out.getvalue())
    return files


def test_every_source_and_command_is_pinned():
    assert set(PINS["commands"]) == set(SOURCES)
    for name in SOURCES:
        assert set(PINS["commands"][name]) == {" ".join(c) for c in COMMANDS}
    assert set(PINS["catalog_show"]) == set(catalog.names("gkm-graph"))
    assert len(PINS["build_text"]) == len(weyl_corpus.WEYL)


@pytest.mark.parametrize("name", list(SOURCES))
def test_commands_on_the_graph_json_are_pinned(name, json_files):
    got = {" ".join(c): run([*c, str(json_files[name])]) for c in COMMANDS}
    assert got == PINS["commands"][name]


@pytest.mark.parametrize("name", catalog.names("gkm-graph"))
def test_catalog_show_is_pinned(name):
    assert run(["catalog", "show", name]) == PINS["catalog_show"][name]


@pytest.mark.parametrize("orbit", weyl_corpus.WEYL, ids=str)
def test_build_text_is_pinned(orbit):
    args = _build_args(*orbit)
    assert run(["gkm", "build", *args, "--text"]) == PINS["build_text"][" ".join(args)]
