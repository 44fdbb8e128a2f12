"""Command line entry point.

Subcommands: verify, hom, structures, cok, demo.  Exit codes follow one
contract everywhere: 0 means every reported result is certified, 2
means the run passed but some result is window-truncated, 1 means
failure (bad input, failed verification, or an internal error).  JSON
output is deterministic: keys sorted, indent 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .demos import DEMO_NAMES, run_demo
from .equivariant import EquivariantStructure, enumerate_structures, twist_orbits
from .errors import MfcatError, UsageError
from .fields import QQ, field_from_name
from .homotopy import default_window, hom_space, truncated_hom_space
from .singcat import cok, two_periodicity_check
from .workspace import Workspace

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_TRUNCATED = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; that code means
    'passed, truncated' here, so route usage errors to 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAIL, f"{self.prog}: error: {message}\n")


def _dump(data):
    return json.dumps(data, sort_keys=True, indent=2)


def _field(args):
    return field_from_name(args.field) if args.field else None


def _load(args, validate=True):
    return Workspace.load(args.file, validate=validate, field_override=_field(args))


def _hom_table_lines(title, data):
    lines = [title]
    lines.append("  %6s %5s %5s %5s" % ("d", "Z", "B", "H"))
    for row in data["per_degree"]:
        lines.append(
            "  %6d %5d %5d %5d" % (row["d"], row["Z"], row["B"], row["H"])
        )
    status = "certified" if data["certified"] else "window-truncated"
    lines.append("  total %d (%s)" % (data["total"], status))
    return lines


def cmd_verify(args):
    ws = _load(args, validate=False)
    rep = ws.verify_all()
    if args.json:
        print(_dump(rep))
    else:
        for name, obj in rep["objects"].items():
            if obj["ok"]:
                print(f"{name}: ok")
            else:
                print(f"{name}: FAILED")
                for problem in obj["problems"]:
                    print(f"  - {problem}")
        print("workspace:", "ok" if rep["ok"] else "FAILED")
    return EXIT_OK if rep["ok"] else EXIT_FAIL


def cmd_hom(args):
    ws = _load(args)
    src = ws.factorization(args.source)
    tgt = ws.factorization(args.target)
    graded = src.weights is not None
    if args.equivariant:
        if not graded:
            raise UsageError("equivariant tables need a graded workspace")
        es = ws.structure(args.source)
        et = ws.structure(args.target)
        if args.shift:
            et = EquivariantStructure(
                et.factorization.shift(), et.action, validate=False
            )
        window = _graded_window(args, es.factorization, et.factorization)
        from .equivariant import isotypic_decompose

        pieces = isotypic_decompose(es, et, window)
        data = {
            "source": args.source,
            "target": args.target,
            "shift": args.shift,
            "twists": {
                ",".join(str(v) for v in chi): hs.to_json()
                for chi, hs in pieces.items()
            },
        }
        certified = all(hs.certified for hs in pieces.values())
        if args.json:
            print(_dump(data))
        else:
            for chi in sorted(pieces):
                label = "(" + ",".join(str(v) for v in chi) + ")"
                title = f"hom {args.source} -> {args.target} twist {label}"
                print("\n".join(_hom_table_lines(title, pieces[chi].to_json())))
        return EXIT_OK if certified else EXIT_TRUNCATED
    if graded:
        hs = hom_space(src, tgt, _graded_window(args, src, tgt), shift=args.shift)
    else:
        if args.window is None:
            raise UsageError("ungraded workspace: give --window")
        hs = truncated_hom_space(src, tgt.shift(args.shift), args.window)
    data = hs.to_json()
    data["source"] = args.source
    data["target"] = args.target
    data["shift"] = args.shift
    if args.json:
        print(_dump(data))
    else:
        title = f"hom {args.source} -> {args.target} [shift {args.shift}]"
        print("\n".join(_hom_table_lines(title, data)))
    return EXIT_OK if hs.certified else EXIT_TRUNCATED


def _graded_window(args, src, tgt):
    if args.window is None:
        return None
    lo, hi = default_window(src, tgt)
    return (min(-args.window, lo), max(args.window, hi))


def cmd_structures(args):
    ws = _load(args)
    if ws.action is None:
        raise UsageError("workspace has no group action")
    mf = ws.factorization(args.name).strip_chars()
    sts = enumerate_structures(mf, ws.action)
    orbits = twist_orbits(sts)
    key_of = {}
    for idx, st in enumerate(sts):
        key_of[(st.chars0, st.chars1)] = idx
    orbit_indices = [
        [key_of[(st.chars0, st.chars1)] for st in orbit] for orbit in orbits
    ]
    data = {
        "name": args.name,
        "count": len(sts),
        "structures": [
            {
                "chars0": [list(c) for c in st.chars0],
                "chars1": [list(c) for c in st.chars1],
            }
            for st in sts
        ],
        "orbits": orbit_indices,
    }
    if args.json:
        print(_dump(data))
    else:
        print(f"{len(sts)} structure(s) on {args.name}, {len(orbits)} twist orbit(s)")
        for idx, st in enumerate(sts):
            c0 = " ".join("(" + ",".join(str(v) for v in c) + ")" for c in st.chars0)
            c1 = " ".join("(" + ",".join(str(v) for v in c) + ")" for c in st.chars1)
            print(f"  #{idx} chars0 {c0} chars1 {c1}")
    return EXIT_OK


def cmd_cok(args):
    ws = _load(args)
    if args.equivariant:
        mf = ws.structure(args.name).factorization
    else:
        mf = ws.factorization(args.name)
    if args.shift:
        mf = mf.shift()
    module = cok(mf)
    data = module.to_json()
    exit_code = EXIT_OK
    if mf.weights is not None:
        report = two_periodicity_check(mf, args.window)
        data["two_periodicity"] = report.to_json()
        if not report.certified:
            exit_code = EXIT_TRUNCATED
    if args.json:
        print(_dump(data))
    else:
        print(f"cokernel module of {args.name} ({module.rank} generators)")
        for i, row in enumerate(module.presentation.entries):
            print("  [" + ", ".join(str(a) for a in row) + "]")
        if "two_periodicity" in data:
            tp = data["two_periodicity"]
            print(
                "two-periodicity: %s over degrees %d..%d (%s)"
                % (
                    "exact" if tp["exact"] else "NOT exact",
                    tp["window"][0],
                    tp["window"][1],
                    "certified" if tp["certified"] else "window-truncated",
                )
            )
    return exit_code


def cmd_demo(args):
    field = _field(args) or QQ
    text, report = run_demo(args.name, n=args.n, field=field)
    if args.dir:
        os.makedirs(args.dir, exist_ok=True)
        with open(os.path.join(args.dir, "workspace.mfw"), "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(os.path.join(args.dir, "expected.json"), "w", encoding="utf-8") as fh:
            fh.write(_dump(report) + "\n")
    if args.json:
        print(_dump(report))
    else:
        print(f"demo {args.name}: report keys " + ", ".join(sorted(report)))
        if args.dir:
            print(f"wrote workspace.mfw and expected.json under {args.dir}")
    return EXIT_OK


def window_size(text):
    """A --window half-size: an int, at least 0."""
    size = int(text)
    if size < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {size}")
    return size


def build_parser():
    parser = _Parser(
        prog="mfcat",
        description="exact computations with matrix factorizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_window=True):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument(
            "--field",
            metavar="q|p:PRIME",
            help="override the coefficient field of the workspace",
        )
        if with_window:
            p.add_argument("--window", type=window_size, help="degree window half-size")

    p_verify = sub.add_parser("verify", help="verify every object in a workspace")
    p_verify.add_argument("file")
    common(p_verify, with_window=False)
    p_verify.set_defaults(func=cmd_verify)

    p_hom = sub.add_parser("hom", help="homotopy-class hom table between two objects")
    p_hom.add_argument("file")
    p_hom.add_argument("source")
    p_hom.add_argument("target")
    p_hom.add_argument("--shift", type=int, choices=(0, 1), default=0)
    p_hom.add_argument(
        "--equivariant", action="store_true", help="split by character twist"
    )
    common(p_hom)
    p_hom.set_defaults(func=cmd_hom)

    p_struct = sub.add_parser(
        "structures", help="enumerate equivariant structures on an object"
    )
    p_struct.add_argument("file")
    p_struct.add_argument("name")
    common(p_struct, with_window=False)
    p_struct.set_defaults(func=cmd_structures)

    p_cok = sub.add_parser("cok", help="cokernel module and exactness report")
    p_cok.add_argument("file")
    p_cok.add_argument("name")
    p_cok.add_argument("--shift", type=int, choices=(0, 1), default=0)
    p_cok.add_argument(
        "--equivariant", action="store_true", help="keep generator characters"
    )
    common(p_cok)
    p_cok.set_defaults(func=cmd_cok)

    p_demo = sub.add_parser("demo", help="run a bundled demo suite")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--n", type=int, default=None, help="size parameter")
    p_demo.add_argument("--dir", default=None, help="write workspace and golden output")
    common(p_demo, with_window=False)
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MfcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
