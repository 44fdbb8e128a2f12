"""Workspace text format, its JSON mirror, and the command line surface."""

import json
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import suites
from mfcat import Workspace, parse_workspace
from mfcat.cli import main
from mfcat.demos import DEMO_NAMES, run_demo
from mfcat.errors import ParseError, UsageError
from mfcat.fields import PrimeField
from mfcat.workspace import infer_generator_degrees

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


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_workspaces_survive_json_and_text(name):
    ws = parse_workspace(run_demo(name)[0])
    back = Workspace.loads(json.dumps(ws.to_json()))
    assert back == ws
    assert parse_workspace(back.render()) == ws


def _an_json(**changes):
    data = parse_workspace(run_demo("an")[0]).to_json()
    data.update(changes)
    return data


def test_json_refuses_what_the_text_grammar_refuses(tmp_path, capsys):
    long_chars = _an_json()
    long_chars["factorizations"]["f1"]["chars0"] = [[0, 5]]
    wrong_degree = _an_json(weights={"weights": [1], "degree": 5})
    for data in (long_chars, wrong_degree):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data))
        for args in (["verify", str(path)],
                     ["hom", str(path), "f1", "f1", "--equivariant"]):
            code, _, _ = run_cli(args, capsys)
            assert code == 1, (args, data["weights"])
    with pytest.raises(ParseError, match="not quasi-homogeneous"):
        Workspace.from_json(wrong_degree)
    with pytest.raises(ParseError, match="one entry per variable"):
        Workspace.from_json(_an_json(weights={"weights": [1, 1], "degree": 4}))
    # a factorization's weight system must be the workspace's, None included
    ungraded = _an_json(weights=None)
    with pytest.raises(ParseError, match="'f1' carries another weight system"):
        Workspace.from_json(ungraded)
    for mf in ungraded["factorizations"].values():
        del mf["weights"], mf["degree"]
    assert Workspace.from_json(ungraded).weights is None
    regraded = _an_json()
    regraded["factorizations"]["f2"].update(weights=[2], degree=8)
    with pytest.raises(ParseError, match="'f2' carries another weight system"):
        Workspace.from_json(regraded)


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


def test_inferred_generator_degrees_are_the_declared_ones():
    # entry degrees fix generator degrees up to one constant per component
    # and the split degree a, which inference sets to 0: deg1 comes back
    # lowered by a, and the whole moved so that its least degree is 0
    for label, mf in suites.full_suite():
        for x in (mf, mf.shift()):
            a = x.split_degree
            deg0, deg1 = x.m0.degrees, tuple(g - a for g in x.m1.degrees)
            low = min(deg0 + deg1)
            want = (tuple(g - low for g in deg0), tuple(g - low for g in deg1))
            assert infer_generator_degrees(x.p0, x.p1, x.weights) == want, label


def test_conflicting_entries_leave_generator_degrees_uninferred():
    # x1 and x2 in row 0 give both P0 generators one degree; x2 and x1^2
    # in row 1 then ask their degrees to differ by one
    text = """
ring 2 over q
potential x1^2 + x2^2
weights 1 1 degree 2
mf bad
  p0 [x1, x2; x2, x1^2]
  p1 [x1, x2; x2, x1]
end
"""
    with pytest.raises(ParseError, match="cannot infer generator degrees for 'bad'"):
        parse_workspace(text)


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


@pytest.mark.parametrize("command", [["cok", "kos"], ["hom", "kos", "kos"]])
def test_cli_refuses_a_negative_window(tmp_path, capsys, command):
    path = tmp_path / "ws.mfw"
    path.write_text(parse_workspace(BASIC).render())
    name, *objs = command
    with pytest.raises(SystemExit) as exc:
        main([name, str(path), *objs, "--window", "-4"])
    assert exc.value.code == 1
    assert "--window" in capsys.readouterr().err
    code, _, _ = run_cli([name, str(path), *objs, "--window", "0"], capsys)
    assert code == 0


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


@lru_cache(maxsize=None)
def _demo_tokens(name):
    """The rendered workspace of a demo, one token list per line."""
    return tuple(tuple(line.split()) for line in run_demo(name)[0].splitlines())


# words, numbers and punctuation of the workspace grammar, some of them
# invalid where they land: zero or vanishing denominators, the zero
# potential, comments that swallow the rest of a line
_GRAMMAR_TOKENS = (
    "ring", "over", "q", "p:7", "potential", "weights", "none", "degree",
    "action", ":", "mf", "end", "p0", "p1", "deg0", "deg1", "chars0",
    "chars1", "[", "]", ";", ",", "x1", "x2", "x3", "x1^2", "0", "1", "-1",
    "2", "1/0", "1/2", "1/7", "(0)", "(1,1)", "+", "-", "*", "^", "#",
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(DEMO_NAMES),
    st.lists(
        st.tuples(
            st.sampled_from(("replace", "insert", "delete")),
            # token positions; the first 20 cover the header lines
            st.one_of(st.integers(0, 20), st.integers(0, 10**6)),
            st.sampled_from(_GRAMMAR_TOKENS),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_mutated_workspaces_parse_or_fail_on_a_line(name, edits):
    lines = [list(toks) for toks in _demo_tokens(name)]
    for op, at, token in edits:
        spots = [(i, k) for i, toks in enumerate(lines)
                 for k in range(len(toks) + (op == "insert"))]
        i, k = spots[at % len(spots)]
        if op == "replace":
            lines[i][k] = token
        elif op == "insert":
            lines[i].insert(k, token)
        else:
            del lines[i][k]
    text = "\n".join(" ".join(toks) for toks in lines) + "\n"
    try:
        parse_workspace(text)
    except ParseError as exc:
        assert exc.line is not None, (str(exc), text)
        if exc.column is not None:
            # a column lies in its line, or just past its end
            line = text.splitlines()[exc.line - 1]
            assert 1 <= exc.column <= len(line) + 1, (str(exc), text)


@pytest.mark.parametrize("text, line", [
    ("ring 1 over p:7\npotential x1^3 + 1/0*x1^3\n", 2),
    ("ring 1 over q\npotential 1/0\n", 2),
    ("ring 1 over q\npotential 0\n", 2),
    ("ring 1 over q\npotential x1^3\nweights 1 degree 2\n", 3),
])
def test_bad_potentials_fail_on_their_line(text, line):
    with pytest.raises(ParseError) as info:
        parse_workspace(text)
    assert info.value.line == line


@pytest.mark.parametrize("text, line, column", [
    ("ring 1 over q\npotential 1/0\n", 2, 11),
    ("ring 1 over q\n  potential x1^2 + 1/0  # tail\n", 2, 20),
    (BASIC.replace("      x2, x1]", "      x2, x1 + 1/0]"), 8, 16),
    (BASIC.replace("p1 [x1, x2; -x2, x1]", "p1 [x1, x2; -x2, x3]"), 9, 20),
])
def test_parse_errors_name_the_column_in_the_line(text, line, column):
    # the potential and each matrix cell are parsed as fragments; an error
    # names the column in the workspace line, also on a continuation line
    with pytest.raises(ParseError) as info:
        parse_workspace(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert f"(line {line}, column {column})" in str(info.value)


def test_zero_denominator_over_a_prime_field():
    with pytest.raises(UsageError, match="bad rational literal"):
        PrimeField(7).parse("1/0")
