"""The committed output hashes, replayed in-process through ``mfcat.cli.main``.

The four demo reports (perfbench/reference.json) and every hom table, cokernel
report and equivariant hom table listed in tests/hom_hashes.json,
tests/cok_hashes.json and tests/equivariant_hom_hashes.json must hash to the
committed bytes.  The CI steps check the same bytes from fresh processes;
here every read after the first of a pair is warm, answered from the kept
stores.
"""

import hashlib
import json
import os

from mfcat.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(*path):
    with open(os.path.join(ROOT, *path), encoding="utf-8") as fh:
        return json.load(fh)


def digest(capsys, argv):
    """sha256 of what ``mfcat argv`` prints to stdout."""
    main(argv)
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def objects(workspace):
    with open(workspace, encoding="utf-8") as fh:
        return [line.split()[1] for line in fh if line.startswith("mf ")]


def test_outputs_match_the_committed_hashes(tmp_path, capsys):
    demos = load("perfbench", "reference.json")["demos"]
    hom, cok = load("tests", "hom_hashes.json"), load("tests", "cok_hashes.json")
    equivariant = load("tests", "equivariant_hom_hashes.json")
    checked = 0
    for name, want in demos.items():
        ws = str(tmp_path / name / "workspace.mfw")
        assert digest(capsys, ["demo", name, "--json", "--dir", str(tmp_path / name)]) == want
        objs = objects(ws)
        for obj in objs:
            for shift in "01":
                got = digest(capsys, ["cok", ws, obj, "--json", "--shift", shift])
                assert got == cok[name][obj][shift], (name, obj, shift)
                checked += 1
        for src in objs:
            for tgt in objs:
                for shift in "01":
                    got = digest(capsys, ["hom", ws, src, tgt, "--json", "--shift", shift])
                    assert got == hom[name][src][tgt][shift], (name, src, tgt, shift)
                    checked += 1
                    if name not in equivariant:
                        continue
                    got = digest(capsys, ["hom", ws, src, tgt, "--equivariant", "--json",
                                          "--shift", shift])
                    assert got == equivariant[name][src][tgt][shift], (name, src, tgt, shift)
                    checked += 1
    assert checked == 16 + 36 + 18
