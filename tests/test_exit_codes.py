"""The exit-code contract, over generated argv: every input gets an answer
or a documented exit code, never a traceback, and a refusal prints nothing
to stdout.  The three forms of a `compute` answer agree, and a
`table --values` row is the count `compute` gives."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import cli

# edge integers as the CLI reads them: small and negative values, the
# request bounds and past them, a value past `int`'s digit limit, and
# spellings that `int` alone would accept
# spellings that `int` alone would accept; three draws in four are small
INTS = st.one_of(
    st.integers(0, 5).map(str),
    st.integers(0, 5).map(str),
    st.integers(-2, 9).map(str),
    st.sampled_from(["0", "-0", "-1", "12", "80", "159", "160", "161", "2501",
                     "9" * 20, "9" * 5000, "1_0", "+3", "٣", " 4", "", "x"]),
)
# partitions: well-formed ones, in any order of parts (three draws in
# four), and malformed ones
_WELL_FORMED = st.lists(st.integers(1, 5), min_size=1, max_size=6).map(
    lambda ps: ",".join(map(str, ps)))
PARTS = st.one_of(
    _WELL_FORMED,
    _WELL_FORMED,
    _WELL_FORMED,
    st.sampled_from(["1," * 80 + "1", "160", "161", "200,1", "", ",", "0", "-1,2",
                     "3_0,1", "x", "1,,2", " 2 , 1", "٣", "9" * 5000, "2.5"]),
)
FORMATS = st.sampled_from([[], [], ["--format", "csv"], ["--format", "json"],
                           ["--format", "json"], ["--format", "text"], ["--format", "xml"]])
CACHES = ("none", "warm", "missing", "file")


def _opt(flag, values):
    """`[flag, value]` in nine draws of ten, else nothing."""
    return st.tuples(st.integers(0, 9), values).map(lambda t: [flag, t[1]] if t[0] else [])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["compute", "table", "verify", "cache", "bogus"]))
    cache = draw(st.sampled_from(CACHES))
    argv = [command]
    if command == "compute":
        argv += draw(_opt("--alpha", PARTS)) + draw(_opt("--genus", INTS)) + draw(FORMATS)
    elif command == "table":
        argv += draw(_opt("--genus", INTS)) + draw(_opt("--m", INTS))
        argv += draw(st.sampled_from([[], ["--values"]])) + draw(_opt("--n-max", INTS))
        argv += draw(FORMATS)
        cache = "none"  # table takes no --cache-dir
    elif command == "verify":
        argv += draw(_opt("--suite", st.sampled_from(
            ["appendix", "oracle", "recurrence", "closedform", "all", "none"])))
        argv += draw(_opt("--n-max", INTS))
    elif command == "cache":
        argv += draw(st.sampled_from([[], ["--clear"], ["--warm"], ["--clear", "--warm"]]))
        argv += draw(_opt("--genus", INTS)) + draw(_opt("--m", INTS))
        if "--clear" in argv and cache == "warm":
            cache = "missing"  # keep the shared cache warm
    return argv, cache


@pytest.fixture(scope="module")
def cache_dirs(tmp_path_factory):
    """--cache-dir values: a warmed cache, a directory that is missing and
    cannot be made (its parent is a file), and a file."""
    root = tmp_path_factory.mktemp("exit_codes")
    warm = root / "warm"
    afile = root / "a-file"
    afile.write_text("not a directory")
    assert _main(["cache", "--warm", "--m", "5", "--cache-dir", str(warm)])[0] == 0
    return {"warm": str(warm), "missing": str(afile / "cells"), "file": str(afile)}


def _main(argv):
    """Exit code, stdout and stderr of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=120)
@given(drawn=argvs())
def test_every_argv_gets_an_answer_or_a_documented_exit(cache_dirs, drawn):
    argv, cache = drawn
    if cache != "none":
        argv = argv + ["--cache-dir", cache_dirs[cache]]
    code, out, err = _main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    if code in (2, 3):
        assert out == "", argv
    if code or "json" not in argv:
        return
    if argv[0] == "compute":
        # the text and CSV forms of the answer say what the JSON form says
        row = json.loads(out)
        at = argv.index("json")
        text = _main(argv[:at] + ["text"] + argv[at + 1:])
        csv = _main(argv[:at] + ["csv"] + argv[at + 1:])
        assert text[0] == csv[0] == 0, argv
        lines = dict(line.split(" = ") for line in text[1].splitlines())
        header, values = csv[1].splitlines()
        fields = dict(zip(header.split(","), values.split(",")))
        for key in ("f", "mu", "c", "route"):
            assert lines[key] == fields[key] == row[key], (argv, key)
    elif argv[0] == "table" and "--values" in argv:
        rows = json.loads(out)
        for row in rows[:1] + rows[-1:]:
            alpha = ",".join(map(str, row["alpha"]))
            got = _main(["compute", "--alpha", alpha, "--genus", str(row["g"]),
                         "--format", "json", "--cache-dir", cache_dirs["warm"]])
            assert got[0] == 0, (argv, row, got[2])
            answer = json.loads(got[1])
            assert [answer[k] for k in ("f", "mu", "c")] == [row[k] for k in ("f", "mu", "c")]
