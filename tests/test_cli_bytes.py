"""The CLI's bytes, pinned: stdout, stderr and exit code of a fixed
request list, as SHA-256 digests recorded in `cli_bytes.json`.

The list covers `verify --suite all` and each suite alone, `table` (the
polynomial and `--values`) for every appendix `(g, m)`, and `compute` on
each route, all in every output format.  A change that alters any byte of
these answers fails here.  To record the digests again, deliberately:

    PYTHONPATH=src python tests/test_cli_bytes.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from hurwitz import cli, formulas

DIGESTS = Path(__file__).with_name("cli_bytes.json")
FORMATS = ("text", "json", "csv")

# (alpha, genus) per route of `compute`
COMPUTE = {
    "engine": [("2,1", 1), ("1,1,1", 0), ("3,2,1", 2), ("4,2", 3), ("2,2", 4),
               ("3,3,2,1,1", 1), ("5,3,2", 0)],
    "formulas": [("3", 0), ("2,1", 0), ("5", 6), ("7", 9)],
    "oracle": [("1,1,1,1,1,1,1", 1), ("2,1", 5), ("1,1", 5)],
    "refused": [("5,4,3,2,1", 10), ("3,3,3", 5), ("200", 0)],
}


def requests() -> list:
    reqs = [["verify", "--suite", "all"]]
    for suite in ("appendix", "oracle", "recurrence", "closedform"):
        reqs.append(["verify", "--suite", suite, "--n-max", "4"])
    for g, m_max in sorted(formulas.TABLE_M_MAX.items()):
        for m in range(1, m_max + 1):
            for fmt in FORMATS:
                base = ["table", "--genus", str(g), "--m", str(m), "--format", fmt]
                reqs += [base, base + ["--values"]]
    for cases in COMPUTE.values():
        for alpha, g in cases:
            for fmt in FORMATS:
                reqs.append(["compute", "--alpha", alpha, "--genus", str(g),
                             "--format", fmt])
    return reqs


def answer_digest(argv) -> str:
    """SHA-256 of one request's exit code, stdout and stderr, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict:
    return {" ".join(argv): answer_digest(argv) for argv in requests()}


def test_every_answer_keeps_its_bytes():
    want = json.loads(DIGESTS.read_text())
    got = digests()
    assert list(got) == list(want)
    changed = [req for req in got if got[req] != want[req]]
    assert not changed, f"{len(changed)} answers changed, first: {changed[0]}"


def test_the_list_covers_every_route_and_refusal():
    # each compute case takes the route it is filed under
    engine = cli.Engine()
    for route, cases in COMPUTE.items():
        for alpha, g in cases:
            part = cli._partition_arg(alpha)
            try:
                got = cli.best_route(part, g, engine)[1]
            except cli.BudgetExceeded:
                got = "refused"
            assert got == route, (alpha, g)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
