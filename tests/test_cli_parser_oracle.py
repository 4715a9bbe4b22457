"""The parser ``main`` builds for one subcommand answers like the full one.

``repro.cli.main`` registers only the invoked subcommand
(``build_parser(command_of(argv))``).  Over a fixed corpus of argvs,
this holds that parser to the full ``build_parser()``: the same
namespace, or the same stdout, stderr and ``SystemExit`` code.  Parsing
reads no file, so the paths in the corpus need not exist.
"""

import contextlib
import io

import pytest

from repro.cli import SUBCOMMANDS, build_parser, command_of

#: positionals that satisfy each subcommand's parser
VALID = {
    "list": [],
    "trace": ["embar"],
    "predict": ["t.jsonl"],
    "timeline": ["run.json"],
    "report": ["t.jsonl"],
    "validate": ["t.jsonl"],
    "bench": [],
    "machine": ["embar"],
    "calibrate": [],
    "compare": ["t.jsonl", "cm5"],
    "study": ["embar"],
    "experiment": ["fig4"],
    "reproduce": [],
    "sweep": ["run", "spec.json"],
    "serve": [],
}

#: every argv main() is called with in tests/test_cli.py and
#: tests/test_cli_robustness.py, paths replaced by fixed names
FROM_TESTS = [
    ["list"],
    ["trace", "embar", "-n", "4", "-o", "t.jsonl"],
    ["predict", "t.jsonl", "--preset", "cm5"],
    ["trace", "embar", "-n", "2", "-o", "t.bin"],
    ["predict", "t.bin", "--preset", "ideal", "--set", "processor.mips_ratio=0.5",
     "--set", "network.contention=false"],
    ["predict", "t.jsonl", "--set", "nonsense"],
    ["report", "t.jsonl", "--preset", "cm5"],
    ["machine", "embar", "-n", "4"],
    ["compare", "t.jsonl", "ideal", "cm5", "distributed_memory"],
    ["calibrate"],
    ["study", "cyclic", "--preset", "distributed_memory", "-p", "1,2,4"],
    ["study", "embar", "--preset", "ideal", "-p", "1,2", "--set",
     "processor.mips_ratio=2.0"],
    ["study", "sort", "-p", "1,2,3,4"],
    ["study", "grid", "-p", "1,two"],
    ["experiment", "fig4"],
    ["validate", "t.jsonl"],
    ["validate", "partial.jsonl", "--no-global-barriers"],
    ["predict", "trunc.jsonl"],
    ["report", "trunc.jsonl"],
    ["predict", "t.jsonl", "--faults", "plan.json"],
    ["report", "t.jsonl", "--faults", "plan.json"],
    ["predict", "t.jsonl", "--wall-budget", "600"],
    ["predict", "t.jsonl", "--preset", "cm-5"],
    ["predict", "t.jsonl", "--set", "processor.mips_ration=0.5"],
    ["predict", "t.jsonl", "--set", "nodots"],
    ["predict", "t.jsonl", "--wall-budget", "-1"],
    ["report", "t.jsonl", "--preset", "nope"],
    ["study", "embar", "-p", "1,two,4"],
    ["study", "embar", "-p", ","],
    ["study", "embar", "--preset", "sharedmemory"],
    ["predict", "t.jsonl", "--timeline", "run.json"],
    ["trace", "embar", "-n", "0", "-o", "t.jsonl"],
    ["machine", "embar", "-n", "0"],
    ["study", "embar", "-p", "0"],
    ["timeline", "run.json", "--ascii", "--width", "3"],
    ["bench", "--repeats", "0"],
    ["report", "partial.jsonl"],
    ["compare", "partial.jsonl", "cm5", "ideal"],
    ["validate", "partial.jsonl", "--no-global-barriers", "--diagnose"],
]

_ARGVS = (
    [["-h"], ["--help"], ["sweep", "run", "-h"], ["sweep", "stats", "-h"]]
    + [[name, "-h"] for name in SUBCOMMANDS]
    # no argv, an unknown command, a misspelled one
    + [[], ["frobnicate"], ["predcit", "t.jsonl"], ["sweep", "walk"]]
    # root options before a command
    + [
        ["-v", "predict", "t.jsonl"],
        ["-vv", "predict", "t.jsonl"],
        ["--verbose", "list"],
        ["--log-level", "info", "predict", "t.jsonl"],
        ["--log-level=info", "predict", "t.jsonl"],
        ["-v", "--log-level", "debug", "-vv", "list"],
        ["--log-level", "loud", "predict", "t.jsonl"],
        ["--log-level=loud", "list"],
        ["--log-level", "-v", "predict", "t.jsonl"],
        ["--log-level", "predict", "t.jsonl"],
        ["-vvv", "list"],
        ["--log", "info", "list"],
        ["-h", "predict", "t.jsonl"],
    ]
    # --log-level with no value; -h after a command
    + [["--log-level"], ["-v"], ["predict", "t.jsonl", "-h"], ["list", "--help"]]
    # a missing positional and an unknown option, per subcommand
    + [[name] for name in SUBCOMMANDS]
    + [[name, "--no-such-flag"] for name in SUBCOMMANDS]
    + [[name, *VALID[name], "--no-such-flag"] for name in SUBCOMMANDS]
    + [[name, *VALID[name], "extra"] for name in SUBCOMMANDS]
    + [[name, *VALID[name]] for name in SUBCOMMANDS]
    + FROM_TESTS
)

#: ``_ARGVS`` without repeats, in order
CORPUS = [list(argv) for argv in dict.fromkeys(map(tuple, _ARGVS))]


def parse(parser, argv):
    """``(namespace or None, stdout, stderr, exit code or None)``."""
    out, err = io.StringIO(), io.StringIO()
    namespace = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return namespace, out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
@pytest.mark.parametrize("columns", ["80", "200"])
def test_lean_parser_answers_like_the_full_one(argv, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    assert parse(build_parser(command_of(argv)), argv) == parse(build_parser(), argv)


def test_command_of_picks_the_plain_command_only():
    assert command_of(["predict", "t.jsonl"]) == "predict"
    assert command_of(["-v", "--log-level", "info", "sweep", "run"]) == "sweep"
    assert command_of(["--log-level=info", "-vv", "list"]) == "list"
    assert command_of(["--log-level", "predict", "t.jsonl"]) is None
    assert command_of(["-h", "predict"]) is None
    assert command_of(["--log", "info", "list"]) is None
    assert command_of(["predcit"]) is None
    assert command_of([]) is None
    # the corpus runs the single-subcommand parser for most of its argvs
    assert sum(command_of(argv) is not None for argv in CORPUS) > 100
