"""Write reference.json: the answers the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Run from the root of a source checkout.  The committed file was recorded
on the commit that introduced the benchmark and must not be re-recorded to
make a later change pass: it holds

- brick_stable: the per-degree stable hom tables (Z, B, H per degree) of
  brick-stable's queries over Q.  The same tables are computed over F_p
  with p = 2^31 - 1 here and must agree, so prime-field checks F_p against
  these Q answers;
- equivariant: per structure pair of every equivariant-isotypic group,
  [invariant total, isotypic totals by character, twisted totals by
  character, plain total];
- demos: sha256 of the standard output of `mfcat demo NAME --json`.
"""

import hashlib
import json
import os
import subprocess
import sys

import run

run.import_library()
import workloads as wl  # noqa: E402
from mfcat import (  # noqa: E402
    QQ,
    PrimeField,
    cok,
    equivariant_hom_space,
    hom_space,
    isotypic_decompose,
    stable_hom,
    trivial_brick,
)

DEMOS = ("an", "fermat", "brick", "cone-axioms")


def stable_tables(fld):
    out = {}
    for label, q in wl.brick_suite(fld):
        cok_b, cok_q = cok(trivial_brick(q)), cok(q)
        for shift in (0, 1):
            for direction, src, tgt in (("fwd", cok_b, cok_q), ("back", cok_q, cok_b)):
                out[wl.stable_key(label, direction, shift)] = \
                    stable_hom(src, tgt, shift).to_json()
    return out


def equivariant_table():
    out = {}
    for name, act, structs in wl.equivariant_groups(QQ):
        rows = []
        for e1 in structs:
            row = []
            for e2 in structs:
                row.append(wl.pair_answers(
                    equivariant_hom_space(e1, e2),
                    isotypic_decompose(e1, e2),
                    [equivariant_hom_space(e1, e2.twist(ch)) for ch in act.characters()],
                    hom_space(e1.factorization, e2.factorization, want_reps=False)))
            rows.append(row)
        out[name] = rows
    return out


def demo_hashes():
    env = dict(os.environ)
    env["PYTHONPATH"] = run.SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = {}
    for name in DEMOS:
        proc = subprocess.run([sys.executable, "-m", "mfcat.cli", "demo", name, "--json"],
                              cwd=run.ROOT, env=env, capture_output=True, check=True)
        out[name] = hashlib.sha256(proc.stdout).hexdigest()
    return out


def main():
    over_q = stable_tables(QQ)
    over_p = stable_tables(PrimeField(wl.PRIME))
    if over_q != over_p:
        sys.exit("stable hom tables differ between Q and F_p")
    reference = {
        "brick_stable": over_q,
        "equivariant": equivariant_table(),
        "demos": demo_hashes(),
    }
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
