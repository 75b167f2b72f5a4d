"""How ``delzant`` parses its arguments: each command's arguments read off
the command table, and the whole argparse tree built only for help, usage
errors and the argv that reader does not take.

The tree's help texts, usage lines and error messages are pinned by the
SHA-256 of what they printed before commands had parsers of their own; a
Hypothesis fuzz over the command grammar and its mutations checks that
``cli._parse`` gives the tree's Namespace or the tree's exit, byte for byte,
and a second one over well-formed calls that no parser is built for them.
"""

import argparse
import contextlib
import hashlib
import io

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from delzant import cli

EMPTY = hashlib.sha256(b"").hexdigest()
# Exit code and SHA-256 of the standard output and the standard error of
# `delzant ARGV` at 80 columns, recorded while the whole tree parsed every
# call.
USAGE_SHA256 = {
    (): (2, EMPTY,
        "849fb811011823b938e68f0837ab5c7bf0cfffa77f822cd7f9c3bd3e81f62919"),
    ('-h',): (0, "d120003b0b0ac2ea081e352bdf5ae20a873f92726692fa2de41508b17b980780",
        EMPTY),
    ('--help',): (0, "d120003b0b0ac2ea081e352bdf5ae20a873f92726692fa2de41508b17b980780",
        EMPTY),
    ('--he',): (0, "d120003b0b0ac2ea081e352bdf5ae20a873f92726692fa2de41508b17b980780",
        EMPTY),
    ('nope',): (2, EMPTY,
        "7fda674af5bad7f489885530b4f545f4820ef9087c29c637d0d29f5ab308d49e"),
    ('',): (2, EMPTY,
        "269c205f56ac5f3be8bb5ff2cd78104c7613444e230e989e710db1a45f1e9295"),
    ('check', '-h'): (0, "3cce49727509e05efc890a98e20c49cc5216bae7e3f49a2b9c386262f2d12d83",
        EMPTY),
    ('check', 'nope', 'catalog:cube'): (2, EMPTY,
        "52fcc2fcdf0143430ae79ade11c3d867b762594c018874fd42d7f4b9371d4b9e"),
    ('check', 'delzant'): (2, EMPTY,
        "4e0ea41994b4b97d889576efe41617910e099912eda5f9dbf23e216367c6ebe2"),
    ('verify', '--help'): (0, "2b7b39e0cec33156b4e7c8396f7d6fae531e5575dc09935f1566e8a5ecee2ff4",
        EMPTY),
    ('verify', 'main', 'catalog:cube', 'extra'): (2, EMPTY,
        "55ffd2837d5e632abb306018ea4ea3fb51b0b174c743b9b1af5467d3f3942b39"),
    ('hvector', 'catalog:cube', '--xi'): (2, EMPTY,
        "39dbcc934686542f8f4b51fab815473f88d438d5c93537030d1abb7f86a43efc"),
    ('lengths', 'catalog:cube', '--te'): (0, "a1ce69fc4cff31a34ec14a76372c36cf16f0e396d6de724b16b447b5ba67b30a",
        EMPTY),
    ('gkm',): (2, EMPTY,
        "6e7f5d3fa5922bba4d17c1c13bc48e4b49c4fa4987f4801843ac6be9829ec75b"),
    ('gkm', '-h'): (0, "8d1f1b8a6aab12c5225a240b4fce9be8ffa472aff8dae6dfe5f01f6c5f834b7f",
        EMPTY),
    ('gkm', 'nope'): (2, EMPTY,
        "4dc46a93b70e20c1aa4789ae8c991a1ad9568b21280ab710526a4f33d385c8d8"),
    ('gkm', 'build', '-h'): (0, "7d5fe8c2f436143a5ad587886f07ec8d3be9f0a30a5dbed4695ef303ee12bdc2",
        EMPTY),
    ('gkm', 'build', '--he'): (0, "7d5fe8c2f436143a5ad587886f07ec8d3be9f0a30a5dbed4695ef303ee12bdc2",
        EMPTY),
    ('gkm', 'build', 'A'): (2, EMPTY,
        "f1d3b51011b2305df53d50ee2d0253668087139f60035517315aaaed13af5137"),
    ('gkm', 'build', 'A', 'x'): (2, EMPTY,
        "005abd92849528bf098b099fa50d58caa08e2a8175701a6955e8f67c0b0e9663"),
    ('gkm', 'build', 'A', '2', 'extra'): (2, EMPTY,
        "55ffd2837d5e632abb306018ea4ea3fb51b0b174c743b9b1af5467d3f3942b39"),
    ('gkm', 'build', 'A', '2', '--I'): (2, EMPTY,
        "dcd8611309c359159e1562d264077c09b55b62756d941bcc310488dbab0cd685"),
    ('gkm', 'build', '--', 'A', '2', '-h'): (2, EMPTY,
        "48a5273548124fe5a984d083b67de68ac25823d8c896f50c39783eef7d1a9d17"),
    ('bounds', '-h'): (0, "44a45645b27d1eda46a930594c962b89a37188829c69b69c9d2a3dbe8a08da5a",
        EMPTY),
    ('bounds', 'table', '--n-m', '3'): (2, EMPTY,
        "ea43a2e4d21da2d0115a9b49260193f416a0fcd116085f9fb64e6fa8c790cd16"),
    ('bounds', 'enumerate', '--n', '2'): (2, EMPTY,
        "a473872afc3134f7afc5c1ffa25b8d4364ef92833faa82d3c4ba012fbb94b8f3"),
    ('bounds', 'enumerate', '--n', '-1', '--k0'): (2, EMPTY,
        "9b374358b1d2d2825e5fc419456cdc394cb27a34dff9b7ba573a081822878f8d"),
    ('catalog',): (2, EMPTY,
        "b920eeb4b747368911cfea9e0f12e663229f4e69da5893445e6aa02a0442dcb8"),
    ('catalog', 'list', '--kind', 'x'): (2, EMPTY,
        "3263cb41a4826a3c640d1ce7d5d3a19e2e44af8ac9ff2133aba25de2795c1304"),
    ('catalog', 'show', '-h'): (0, "b5da64a6e57ca52e617ae0f2710b7cf7e0b7ce9f793dd17f32d4288837fdfadd",
        EMPTY),
    ('catalog', 'show'): (2, EMPTY,
        "94096233916f04b29c9c001519158b77c31d834ea6adb1c60b9f9c8647700b43"),
    ('fvector', 'catalog:cube', '--with'): (0, "0aaaff14980331bfa306e2f1878e6feaa456a2a25df12820ee1377b18ef98d47",
        EMPTY),
    ('dual', '-x'): (2, EMPTY,
        "feb591ec7ff37cdf506610df4a0d47ad16d69432fc4ba121740bb22dca53ea06"),
}


@pytest.fixture
def fresh_parsers():
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def _outcome(parse, argv):
    """What parse(argv) returns or, on SystemExit, its code, and what it
    printed to standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", list(USAGE_SHA256), ids=" ".join)
def test_help_and_usage_output_is_pinned(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _outcome(cli.main, argv)
    digests = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
    assert (code, *digests) == USAGE_SHA256[argv]


@pytest.mark.parametrize("argv", [["check", "delzant", "catalog:nope"], ["catalog", "show", "nope"]])
def test_catalog_miss_names_the_entry(argv):
    assert _outcome(cli.main, argv) == (2, "", "error: no catalog entry named 'nope'\n")


NUM = st.integers(-3, 9).map(str)
INPUT = st.sampled_from(["catalog:cube", "catalog:nope", "-", "-1", "x.json"])
# Per command: its positionals, then its options, each given or left out.
GRAMMAR = {
    ("check",): ([st.sampled_from(["delzant", "reflexive", "gkm", "gorenstein"]), INPUT], []),
    ("verify",): ([st.sampled_from(["main", "graph-corollary", "gorenstein:1"]), INPUT],
                  [st.just(["--with-oracle"])]),
    ("dual",): ([INPUT], []),
    ("fvector",): ([INPUT], [st.just(["--with-oracle"])]),
    ("hvector",): ([INPUT], [st.sampled_from(["1,2", "x"]).map(lambda x: ["--xi", x]),
                             st.just(["--directed"])]),
    ("lengths",): ([INPUT], []),
    ("gkm", "build"): ([st.sampled_from(["A", "B", "G2"]), NUM],
                       [st.sampled_from(["0", "0,1", ""]).map(lambda i: ["--I", i])]),
    ("gkm", "check"): ([INPUT], []),
    ("bounds", "table"): ([], [NUM.map(lambda x, o=o: [o, x])
                               for o in ("--n-min", "--n-max", "--k0-min", "--k0-max")]),
    ("bounds", "enumerate"): ([], [NUM.map(lambda x: ["--n", x]), NUM.map(lambda x: ["--k0", x]),
                                   st.just(["--unimodal"]), NUM.map(lambda x: ["--cap", x])]),
    ("catalog", "list"): ([], [st.sampled_from(["polytope", "gkm-graph", "x"]).map(
        lambda k: ["--kind", k])]),
    ("catalog", "show"): ([st.sampled_from(["cube", "nope"])], []),
}
MUTATIONS = st.sampled_from([
    "-h", "--help", "--he", "extra", "--", "--I=0", "--I=", "--with", "--te", "--n-m",
    "--text", "-1", "-2.5", "nope", "", "gkm", "build",
])


@st.composite
def argvs(draw):
    """A command's argv, well formed, then changed by up to three inserted
    or deleted words."""
    path = draw(st.sampled_from(list(GRAMMAR)))
    positionals, options = GRAMMAR[path]
    argv = [draw(s) for s in positionals]
    for option in options + [st.just(["--text"])]:
        if draw(st.booleans()):
            at = draw(st.integers(0, len(argv)))
            argv[at:at] = draw(option)
    argv = list(path) + argv
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        if argv and draw(st.booleans()):
            del argv[min(at, len(argv) - 1)]
        else:
            argv.insert(at, draw(MUTATIONS))
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_command_parsers_agree_with_the_tree(argv):
    # the same Namespace, or the same exit, standard output and standard
    # error
    assert _outcome(cli._parse, argv) == _outcome(cli.build_parser().parse_args, argv)


@pytest.fixture
def parsers_made(monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return made


def test_a_command_builds_no_parser(fresh_parsers, parsers_made):
    # the whole tree has 16 parsers; a well-formed call builds none
    assert _outcome(cli.main, ["gkm", "build", "A", "2"])[0] == 0
    assert parsers_made == []
    assert cli.build_parser.cache_info().currsize == 0


# The option names of the table, --text included.
OPTIONS = {"--text"} | {name for _, arguments in cli._COMMANDS.values()
                        for name, _ in arguments if name.startswith("-")}


@st.composite
def well_formed(draw):
    """A command's argv that the tree parses, with no word starting with
    "-" but an option and "-" itself: its positionals in order, and each
    option, --text included, given up to twice (the last one wins) as
    "--name value" or "--name=value", anywhere among them."""
    path = draw(st.sampled_from(list(GRAMMAR)))
    positionals, options = GRAMMAR[path]
    argv = [draw(s) for s in positionals]
    for option in options + [st.just(["--text"])]:
        for _ in range(draw(st.integers(0, 2))):
            words = draw(option)
            if len(words) == 2 and draw(st.booleans()):
                words = ["=".join(words)]
            at = draw(st.integers(0, len(argv)))
            argv[at:at] = words
    assume(all(w == "-" or not w.startswith("-") or w.partition("=")[0] in OPTIONS
               for w in argv))
    argv = list(path) + argv
    assume(isinstance(_outcome(cli.build_parser().parse_args, argv)[0], argparse.Namespace))
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=well_formed())
@example(argv=["check", "gkm", "-"])
@example(argv=["gkm", "build", "A", "2", "--I=0,1"])
@example(argv=["gkm", "build", "--I", "0", "A", "2"])
@example(argv=["gkm", "build", "A", "2", "--I", "0", "--I", "1"])
@example(argv=["bounds", "enumerate", "--n=-1", "--k0", "2", "--unimodal", "--unimodal"])
def test_well_formed_calls_build_no_parser(argv, fresh_parsers, parsers_made):
    # read off the table, with not one ArgumentParser made (the tree
    # fallback would build 16), into the tree's Namespace
    cli.build_parser.cache_clear()
    parsers_made.clear()
    args = cli._parse(argv)
    assert parsers_made == []
    assert args == cli.build_parser().parse_args(argv)


def test_the_command_table_holds_only_what_the_reader_reads():
    # cli._read interprets these keywords alone; argparse would read any
    # other (nargs, const, another action) in its own way, and it converts
    # a str default by the type, which _read would not
    for path, (_, arguments) in cli._COMMANDS.items():
        for name, kw in arguments:
            where = (path, name)
            assert name.startswith("--") or not name.startswith("-"), where
            assert set(kw) <= {"type", "default", "choices", "required", "help", "action"}, where
            assert kw.get("action", "store_true") == "store_true", where
            assert not ("type" in kw and isinstance(kw.get("default"), str)), where


@pytest.mark.parametrize("argv", [["gkm", "build", "A"], ["gkm", "build", "--help"], ["gkm"]])
def test_help_and_usage_errors_build_the_tree(argv, fresh_parsers, parsers_made):
    assert _outcome(cli.main, argv)[0] in (0, 2)
    assert cli.build_parser.cache_info().currsize == 1
    assert cli.build_parser() in parsers_made
