"""Command line interface: what a `verify` row cannot hold.

The `cli/*` rows of the reference table pin the stdout of every other
successful command (tests/test_verify.py runs them). Here: the CSV side
files, the `sieve` round trip, exit codes 1 and 2 with their stderr, the
`verify` wiring, the import probe and the export list.
"""

import dataclasses
import os
import re
import subprocess
import sys

import pytest

import bernpairs
from bernpairs import cli, verify
from bernpairs.pairs import build_database, load_database, save_database
from bernpairs.verify import MN2_SEARCH


@pytest.fixture
def db_file(tmp_path, db16000):
    """Saves db16000 restricted to primes below max_p; returns the path."""

    def save(max_p):
        path = tmp_path / f"db{max_p}.txt"
        save_database(db16000.restrict(max_p), str(path))
        return str(path)

    return save


def test_sieve_roundtrip(tmp_path, capsys):
    out = tmp_path / "db.txt"
    assert cli.main(["sieve", "--max-p", "40", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"1 pairs over primes below 40 -> {out}\n"
    assert load_database(str(out)) == build_database(40)


def test_pairs_listing(db_file, tmp_path):
    csv_path = tmp_path / "pairs.csv"
    code = cli.main(
        ["pairs", "--p", "157", "--db", db_file(160), "--csv", str(csv_path)]
    )
    assert code == 0
    assert csv_path.read_text().splitlines() == ["p,l", "157,62", "157,110"]


def test_exceptions_listing(db_file, tmp_path):
    csv_path = tmp_path / "exc.csv"
    code = cli.main(["exceptions", "--db", db_file(6500), "--csv", str(csv_path)])
    assert code == 0
    assert csv_path.read_text().splitlines() == [
        "p,l,m,factors,witnesses",
        '6449,4884,31490468,19*257,"(257,164)"',
    ]


def _set_str(pairs):
    return "{" + ",".join(f"({p},{l})" for p, l in pairs) + "}"


def test_mn_pinned_line(db_file, tmp_path):
    csv_path = tmp_path / "mn.csv"
    code = cli.main(
        [
            "mn",
            "--n", "2",
            "--u0", str(MN2_SEARCH["u0"]),
            "--db", db_file(160),
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    assert csv_path.read_text().splitlines() == ["n,S,U,u"] + [
        f'2,"{_set_str(ps)}",{v},{root}' for v, root, ps in MN2_SEARCH["log"]
    ]


def test_usage_errors_exit_2(monkeypatch):
    # argparse refuses each before any file is read
    monkeypatch.setattr(cli, "load_database", None)
    for argv in (
        ["lift", "--p", "37"],  # missing --l
        ["no-such-command"],
        ["ratio", "--m", "-4"],
        [],
        # a database comes only from --db, and only sieving commands take --jobs
        ["exceptions", "--max-p", "6500"],
        ["lambda", "--c", "2183", "--max-p", "160"],
        ["exceptions", "--db", "x.txt", "--jobs", "2"],
        ["exceptions"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


def test_lambda_regular_prime_fails(db_file, capsys):
    assert cli.main(["lambda", "--c", "7", "--db", db_file(160)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NotIrregular:")


def test_domain_errors_exit_1(db_file, tmp_path, capsys):
    # regular pair: delta refuses
    assert cli.main(["delta", "--p", "37", "--l", "30"]) == 1
    assert capsys.readouterr().err.startswith("NotIrregular:")
    # shape errors surface as ValueError, same exit code
    assert cli.main(["delta", "--p", "35", "--l", "12"]) == 1
    assert capsys.readouterr().err.startswith("ValueError:")
    # p that is not a prime >= 5, refused before the lookup
    for p in ("4", "9"):
        assert cli.main(["pairs", "--p", p, "--db", db_file(160)]) == 1
        assert capsys.readouterr().err == f"ValueError: p must be a prime >= 5, got {p}\n"
    # query beyond database coverage
    assert cli.main(["pairs", "--p", "1000003", "--db", db_file(160)]) == 1
    assert capsys.readouterr().err.startswith("DatabaseTooSmall:")
    # files the command cannot open: one line, no traceback
    missing = str(tmp_path / "no-such-dir" / "db.txt")
    for argv in (
        ["pairs", "--p", "37", "--db", missing],
        ["sieve", "--max-p", "40", "--out", missing],
    ):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("FileNotFoundError:")


def test_verify_quick(monkeypatch, capsys):
    # the CLI wiring on two rows; tests/test_verify.py runs every real row
    real = next(c for c in verify.CHECKS if c.id == "joint-index/37-59")
    wrong = dataclasses.replace(real, id="joint-index/wrong", want=real.want + 1)
    monkeypatch.setattr(verify, "CHECKS", (real, wrong))
    assert cli.main(["verify", "--quick", "--jobs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    seconds = r"\(\d+\.\d{3} s\)"
    assert re.fullmatch(rf"PASS joint-index/37-59 {seconds}", lines[0])
    assert re.fullmatch(
        rf"FAIL joint-index/wrong {seconds}: expected 272877, got 272876", lines[1]
    )
    assert lines[2:] == ["1/2 checks passed"]

    monkeypatch.setattr(verify, "CHECKS", (real,))
    assert cli.main(["verify", "--quick", "--jobs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(rf"PASS joint-index/37-59 {seconds}", lines[0])
    assert lines[1:] == ["1/1 checks passed"]


def test_public_names_resolve_once():
    # every exported name exists, and none is listed twice
    missing = [name for name in bernpairs.__all__ if not hasattr(bernpairs, name)]
    assert missing == []
    assert len(set(bernpairs.__all__)) == len(bernpairs.__all__)


def test_library_import_leaves_out_front_ends():
    # a fresh `import bernpairs` loads neither the argparse front end nor the
    # reference table
    src = os.path.dirname(os.path.dirname(bernpairs.__file__))
    probe = "import sys, bernpairs; print({'bernpairs.cli', 'bernpairs.verify'} & set(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "set()\n"
