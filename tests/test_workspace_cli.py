"""Workspace text format, its JSON mirror, and the command line surface."""

import json
import subprocess
import sys

import pytest

from mfcat import Workspace, parse_workspace
from mfcat.cli import main
from mfcat.errors import ParseError, UsageError
from mfcat.fields import PrimeField

BASIC = """
# a quadric with its sign action
ring 2 over q
potential x1^2 + x2^2
action 2 : 1 1
mf kos
  p0 [x1, -x2;
      x2, x1]
  p1 [x1, x2; -x2, x1]
  chars0 (0) (0)
  chars1 (1) (1)
end
"""

UNGRADED = """
ring 1 over q
potential x1^2
weights none
mf f
  p0 [x1]
  p1 [x1]
end
"""


def test_parse_basic_workspace():
    ws = parse_workspace(BASIC)
    assert ws.nvars == 2
    assert ws.names() == ("kos",)
    mf = ws.factorization("kos")
    # weights are detected and generator degrees inferred
    assert (ws.weights.weights, ws.weights.degree) == ((1, 1), 2)
    assert mf.m0.degrees == (1, 1)
    assert mf.m1.degrees == (0, 0)
    assert mf.verify()["ok"]
    report = ws.verify_all()
    assert report["ok"]
    assert report["objects"]["kos"]["ok"]


def test_structure_from_workspace():
    ws = parse_workspace(BASIC)
    e = ws.structure("kos")
    assert e.chars0 == ((0,), (0,))
    assert e.chars1 == ((1,), (1,))


def test_render_round_trip():
    ws = parse_workspace(BASIC)
    again = parse_workspace(ws.render())
    assert again.factorization("kos") == ws.factorization("kos")
    assert again.potential == ws.potential
    assert again.action == ws.action
    assert again.weights == ws.weights


def test_json_round_trip():
    ws = parse_workspace(BASIC)
    back = Workspace.loads(ws.dumps())
    assert back.factorization("kos") == ws.factorization("kos")
    assert back.action == ws.action


def test_ungraded_workspace():
    ws = parse_workspace(UNGRADED)
    assert ws.weights is None
    assert ws.factorization("f").verify()["ok"]
    assert "weights none" in ws.render()


def test_parse_rejects_broken_factorization():
    bad = BASIC.replace("p1 [x1, x2; -x2, x1]", "p1 [x1, x2; -x2, x2]")
    with pytest.raises(ParseError):
        parse_workspace(bad)
    ws = parse_workspace(bad, validate=False)
    report = ws.verify_all()
    assert not report["ok"]


def test_parse_rejects_duplicate_names():
    dup = BASIC + BASIC.split("action 2 : 1 1")[1]
    with pytest.raises(ParseError):
        parse_workspace(dup)


def test_parse_rejects_noninvariant_action():
    # squares absorb signs, so an order-2 action always fixes this W;
    # order 3 does not
    bad = BASIC.replace("action 2 : 1 1", "action 3 : 1 1")
    with pytest.raises(ParseError):
        parse_workspace(bad)


def test_parse_rejects_wrong_weights():
    bad = BASIC.replace("action 2 : 1 1", "weights 1 2 degree 2")
    with pytest.raises(ParseError):
        parse_workspace(bad)


def test_unknown_name():
    ws = parse_workspace(BASIC)
    with pytest.raises(UsageError):
        ws.factorization("nope")


def test_field_override():
    ws = parse_workspace(BASIC, field_override=PrimeField(5))
    mf = ws.factorization("kos")
    assert mf.W.field == PrimeField(5)
    assert mf.verify()["ok"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_verify_ok(tmp_path, capsys):
    path = tmp_path / "ws.mfw"
    path.write_text(parse_workspace(BASIC).render())
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 0
    assert "kos: ok" in out


def test_cli_verify_corrupt_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.mfw"
    path.write_text(BASIC.replace("p1 [x1, x2; -x2, x1]",
                                  "p1 [x1, x2; -x2, x2]"))
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert "FAILED" in out


def test_cli_hom_json(tmp_path, capsys):
    path = tmp_path / "ws.mfw"
    path.write_text(parse_workspace(BASIC).render())
    code, out, _ = run_cli(["hom", str(path), "kos", "kos", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["certified"]
    assert data["total"] == 2


def test_cli_hom_over_large_prime_field(tmp_path, capsys):
    path = tmp_path / "ws.mfw"
    path.write_text(parse_workspace(BASIC).render())
    code, out, _ = run_cli(["hom", str(path), "kos", "kos", "--json",
                            "--field", "p:2305843009213693951"], capsys)
    assert code == 0
    assert json.loads(out)["total"] == 2


def test_cli_hom_shift(tmp_path, capsys):
    path = tmp_path / "ws.mfw"
    path.write_text(parse_workspace(BASIC).render())
    code, out, _ = run_cli(
        ["hom", str(path), "kos", "kos", "--shift", "1", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["certified"]


def test_cli_hom_equivariant(tmp_path, capsys):
    path = tmp_path / "ws.mfw"
    path.write_text(parse_workspace(BASIC).render())
    code, out, _ = run_cli(
        ["hom", str(path), "kos", "kos", "--equivariant", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    totals = [v["total"] for v in data["twists"].values()]
    assert sum(totals) == 2


def test_cli_hom_ungraded_contract(tmp_path, capsys):
    path = tmp_path / "u.mfw"
    path.write_text(UNGRADED)
    code, out, _ = run_cli(["hom", str(path), "f", "f", "--window", "3"], capsys)
    assert code == 2
    assert "window-truncated" in out
    code, _, err = run_cli(["hom", str(path), "f", "f"], capsys)
    assert code == 1
    assert "--window" in err


def test_cli_structures(tmp_path, capsys):
    path = tmp_path / "ws.mfw"
    path.write_text(parse_workspace(BASIC).render())
    code, out, _ = run_cli(["structures", str(path), "kos", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["orbits"] == [[0, 1]]


def test_cli_cok(tmp_path, capsys):
    path = tmp_path / "ws.mfw"
    path.write_text(parse_workspace(BASIC).render())
    code, out, _ = run_cli(["cok", str(path), "kos", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["two_periodicity"]["exact"]
    assert data["two_periodicity"]["certified"]


def test_cli_demo_minimal_table(capsys):
    code, out, _ = run_cli(["demo", "an", "--n", "2", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert list(data["hom"].keys()) == ["f1->f1"]
    assert data["hom"]["f1->f1"]["total"] == 1


def test_cli_demo_deterministic(capsys):
    code1, out1, _ = run_cli(["demo", "an", "--n", "4", "--json"], capsys)
    code2, out2, _ = run_cli(["demo", "an", "--n", "4", "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_demo_writes_fixture(tmp_path, capsys):
    out_dir = tmp_path / "fix"
    code, _, _ = run_cli(
        ["demo", "an", "--n", "3", "--dir", str(out_dir)], capsys)
    assert code == 0
    ws = Workspace.load(out_dir / "workspace.mfw")
    assert ws.names() == ("f1", "f2")
    expected = json.loads((out_dir / "expected.json").read_text())
    assert expected["n"] == 3


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    # argparse reports bad subcommands itself, via SystemExit
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 1
    capsys.readouterr()
    path = tmp_path / "ws.mfw"
    path.write_text(parse_workspace(BASIC).render())
    code, _, err = run_cli(["hom", str(path), "kos", "nope"], capsys)
    assert code == 1
    assert "nope" in err
    code, _, _ = run_cli(["verify", str(tmp_path / "missing.mfw")], capsys)
    assert code == 1


def test_cli_entry_point_subprocess():
    first = subprocess.run(
        [sys.executable, "-m", "mfcat.cli", "demo", "an", "--n", "4", "--json"],
        capture_output=True, text=True)
    second = subprocess.run(
        [sys.executable, "-m", "mfcat.cli", "demo", "an", "--n", "4", "--json"],
        capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_other_demos_run(capsys):
    for name in ("brick", "cone-axioms"):
        code, out, _ = run_cli(["demo", name, "--json"], capsys)
        assert code == 0
        json.loads(out)
    code, out, _ = run_cli(["demo", "fermat", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["structure_count"] == 3
    assert data["isotypic_sums_match"]
