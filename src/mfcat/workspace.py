"""Self-contained workspace files: a text grammar plus a JSON mirror.

The text format is line oriented, with '#' comments:

    ring 2 over q
    potential x1^2 + x2^2
    weights 1 1 degree 2
    action 2 : 1 1
    mf kos
      p0 [x1, -x2; x2, x1]
      p1 [x1, x2; -x2, x1]
      deg0 0 1
      deg1 1 1
      chars0 (0) (1)
      chars1 (1) (0)
    end

ring gives the variable count (variables are x1..xn) and the field,
'q' for the rationals or 'p:PRIME'.  potential is the hypersurface
equation.  The weights line is optional: when omitted, a weight system
is detected from the potential if one exists; 'weights none' forces an
ungraded workspace.  Each action line adds one cyclic factor acting
diagonally, of the stated order, with the listed character exponents,
one per variable; the potential must be invariant or the file is
rejected.  Inside an mf block the matrices are written row by row, rows
separated by ';', entries by ','; a matrix may continue across lines
until its bracket closes.  deg0/deg1 list generator degrees and may be
omitted in a graded workspace when the matrices determine them (every
entry homogeneous and the constraints consistent).  chars0/chars1
attach a character tuple per generator and require an action.

The JSON mirror holds the same data: keys ring {nvars, field},
potential, weights, action, factorizations; polynomials are term lists
and each factorization uses its own JSON shape.  Its weights, potential
and characters are checked as the text's are, and its characters reduced
mod the orders likewise, so a workspace read from either form renders to
text that reads back equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .action import GroupAction
from .errors import MfcatError, ParseError, UsageError
from .factorization import (
    GradedFreeModule,
    MatrixFactorization,
    _generator_components,
)
from .fields import QQ, field_from_name
from .matrices import PolyMatrix
from .poly import Polynomial, WeightSystem, detect_weights, format_poly, parse_poly

_AUTO = object()


@dataclass
class Workspace:
    nvars: int
    field: object
    potential: Polynomial
    weights: WeightSystem | None
    action: GroupAction | None
    factorizations: dict = dc_field(default_factory=dict)

    def names(self):
        return tuple(self.factorizations)

    def factorization(self, name):
        try:
            return self.factorizations[name]
        except KeyError:
            raise UsageError(f"no factorization named {name!r} in the workspace")

    def structure(self, name):
        """The named factorization as an equivariant structure."""
        from .equivariant import EquivariantStructure

        mf = self.factorization(name)
        if self.action is None:
            raise UsageError("workspace has no group action")
        if mf.m0.chars is None:
            raise UsageError(f"factorization {name!r} carries no characters")
        return EquivariantStructure(mf, self.action)

    def verify_all(self):
        """Verification report for every named object."""
        from .equivariant import check_equivariant

        objects = {}
        ok = True
        for name, mf in self.factorizations.items():
            report = mf.verify()
            problems = list(report["problems"])
            if mf.m0.chars is not None and self.action is not None:
                problems.extend(check_equivariant(mf, self.action))
            good = report["ok"] and not problems
            objects[name] = {"ok": good, "problems": problems}
            ok = ok and good
        return {"ok": ok, "objects": objects}

    def to_json(self):
        data = {
            "ring": {"nvars": self.nvars, "field": self.field.name},
            "potential": self.potential.to_json(),
            "weights": self.weights.to_json() if self.weights else None,
            "action": self.action.to_json() if self.action else None,
            "factorizations": {
                name: mf.to_json() for name, mf in self.factorizations.items()
            },
        }
        return data

    def render(self):
        """The workspace as text in the grammar parse_workspace reads."""
        lines = [
            f"ring {self.nvars} over {self.field.name}",
            f"potential {format_poly(self.potential)}",
        ]
        if self.weights is None:
            lines.append("weights none")
        else:
            ws = " ".join(str(w) for w in self.weights.weights)
            lines.append(f"weights {ws} degree {self.weights.degree}")
        if self.action is not None:
            for m, row in zip(self.action.orders, self.action.exponents):
                lines.append(f"action {m} : " + " ".join(str(v) for v in row))
        for name, mf in self.factorizations.items():
            lines.append(f"mf {name}")
            for key, mat in (("p0", mf.p0), ("p1", mf.p1)):
                body = "; ".join(
                    ", ".join(format_poly(a) for a in row) for row in mat.entries
                )
                lines.append(f"  {key} [{body}]")
            lines.append("  deg0 " + " ".join(str(d) for d in mf.m0.degrees))
            lines.append("  deg1 " + " ".join(str(d) for d in mf.m1.degrees))
            if mf.m0.chars is not None:
                for key, chars in (("chars0", mf.m0.chars), ("chars1", mf.m1.chars)):
                    toks = " ".join(
                        "(" + ",".join(str(v) for v in c) + ")" for c in chars
                    )
                    lines.append(f"  {key} {toks}")
            lines.append("end")
        return "\n".join(lines) + "\n"

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, data, validate=True, field_override=None):
        ring = data["ring"]
        nvars = int(ring["nvars"])
        field = field_override or field_from_name(ring["field"])
        potential = Polynomial.from_json(data["potential"], nvars, field)
        weights = None
        if data.get("weights"):
            weights = WeightSystem(
                tuple(data["weights"]["weights"]), data["weights"]["degree"]
            )
            if len(weights.weights) != nvars:
                raise ParseError("weights need one entry per variable")
            if potential.weighted_degrees(weights) != {weights.degree}:
                raise ParseError(
                    "potential is not quasi-homogeneous of the declared degree")
        action = None
        if data.get("action"):
            action = GroupAction.from_json(data["action"], nvars)
            if not action.is_invariant(potential):
                raise ParseError("potential is not invariant under the action")
        ws = cls(nvars, field, potential, weights, action)
        for name, mfdata in data.get("factorizations", {}).items():
            chars = _checked_chars(
                name, (mfdata.get("chars0"), mfdata.get("chars1")),
                (len(mfdata["P0_deg"]), len(mfdata["P1_deg"])), action)
            if chars[0] is not None:
                mfdata = dict(mfdata, chars0=chars[0], chars1=chars[1])
            mf = MatrixFactorization.from_json(mfdata, nvars, field, validate=validate)
            if mf.W != potential:
                raise ParseError(
                    f"factorization {name!r} was built for a different potential"
                )
            if mf.weights != weights:
                raise ParseError(
                    f"factorization {name!r} carries another weight system"
                )
            ws.factorizations[name] = mf
        return ws

    @classmethod
    def loads(cls, text, validate=True, field_override=None):
        """Parse either format: JSON when the text starts with '{'."""
        for ch in text:
            if ch.isspace():
                continue
            if ch == "{":
                return cls.from_json(
                    json.loads(text), validate=validate, field_override=field_override
                )
            break
        return parse_workspace(text, validate=validate, field_override=field_override)

    @classmethod
    def load(cls, path, validate=True, field_override=None):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(
                fh.read(), validate=validate, field_override=field_override
            )


def _parse_at(text, start, segs, nvars, field):
    """parse_poly of text, a fragment starting at character start of the
    joined lines segs describes: (start in the join, line, column offset
    of that start in the line) per line.  A ParseError names the line and
    the column in that line."""
    try:
        return parse_poly(text, nvars, field)
    except ParseError as exc:
        k = start + exc.column - 1
        at, line, col = max(seg for seg in segs if seg[0] <= k)
        raise ParseError(exc.message, line, col + k - at + 1) from None


def _parse_matrix(text, segs, nvars, field):
    line = segs[0][1]
    s = text.strip()
    if not s.startswith("["):
        raise ParseError("expected '[' to open the matrix", line)
    if not s.endswith("]"):
        raise ParseError("matrix bracket never closes", line)
    start = text.index("[") + 1
    body = text[start:text.rindex("]")]
    if not body.strip():
        raise ParseError("empty matrix", line)
    rows = []
    width = None
    for chunk in body.split(";"):
        entries = []
        for cell in chunk.split(","):
            entries.append(_parse_at(cell, start, segs, nvars, field))
            start += len(cell) + 1
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError("matrix rows have different lengths", line)
        rows.append(entries)
    return PolyMatrix.from_rows(rows, nvars, field)


def _parse_char(token, line):
    t = token.strip()
    if t.startswith("(") and t.endswith(")"):
        inner = t[1:-1].strip()
        if not inner:
            return ()
        try:
            return tuple(int(x) for x in inner.split(","))
        except ValueError:
            raise ParseError(f"bad character tuple {token!r}", line)
    try:
        return (int(t),)
    except ValueError:
        raise ParseError(f"bad character {token!r}", line)


def _checked_chars(name, chars, counts, action, lines=(None, None, None)):
    """The (chars0, chars1) of factorization name, both None or both given,
    with every component reduced mod its factor's order.  ParseError, at
    lines (the block's, chars0's, chars1's), for one without the other,
    characters without an action, or a character list whose length is not
    its count of generators or a character whose length is not the
    action's number of factors."""
    if chars == (None, None):
        return chars
    if None in chars:
        raise ParseError(f"{name!r} needs both chars0 and chars1 or neither", lines[0])
    if action is None:
        raise ParseError(
            f"{name!r} has characters but the workspace has no action", lines[0])
    out = []
    for label, cs, line, count in zip(("chars0", "chars1"), chars, lines[1:], counts):
        if len(cs) != count:
            raise ParseError(
                f"{label} of {name!r} has {len(cs)} entries for {count} generators",
                line)
        if any(len(c) != action.nfactors for c in cs):
            raise ParseError(
                f"{label} entries of {name!r} need {action.nfactors} components",
                line)
        out.append(tuple(tuple(v % m for v, m in zip(c, action.orders)) for c in cs))
    return tuple(out)


def infer_generator_degrees(p0, p1, weights):
    """Generator degrees determined by homogeneous matrices, or None.

    Solves the constraints that nonzero entries put on generators
    (``factorization._generator_components``); the split-degree ambiguity
    cancels between p0 and p1, and each connected component is shifted so
    its least degree is zero.  Returns (deg0, deg1) or None when an entry
    is inhomogeneous or the constraints conflict.
    """
    dd = weights.degree

    def label(f, k):
        # an entry of degree d: -d from column to row in p0, D - d in p1
        d = f.homogeneous_weighted_degree(weights)
        return None if d is None else k * dd - d

    comp = _generator_components(p0, p1, label)
    if comp is None:
        return None
    value = {}
    for members in comp.values():
        base = min(off for _, off in members)
        value.update((v, off - base) for v, off in members)
    deg0 = tuple(value[("g0", j)] for j in range(p0.ncols))
    deg1 = tuple(value[("g1", i)] for i in range(p0.nrows))
    return deg0, deg1


def parse_workspace(text, validate=True, field_override=None):
    nvars = None
    field = QQ
    potential = None
    weights = _AUTO
    action_orders = []
    action_rows = []
    ws = None
    lines = text.splitlines()
    i = 0
    mf_blocks = []

    def clean(raw):
        return raw.split("#", 1)[0].rstrip()

    while i < len(lines):
        line_no = i + 1
        stripped = clean(lines[i]).strip()
        i += 1
        if not stripped:
            continue
        tokens = stripped.split()
        head = tokens[0]
        if head == "ring":
            if len(tokens) != 4 or tokens[2] != "over":
                raise ParseError("expected 'ring N over FIELD'", line_no)
            try:
                nvars = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad variable count {tokens[1]!r}", line_no)
            if nvars < 1:
                raise ParseError("the ring needs at least one variable", line_no)
            try:
                field = field_override or field_from_name(tokens[3])
            except UsageError as exc:
                raise ParseError(str(exc), line_no)
        elif head == "potential":
            if nvars is None:
                raise ParseError("'potential' before 'ring'", line_no)
            raw = clean(lines[i - 1])
            col = raw.index(head) + len(head)
            potential = _parse_at(raw[col:], 0, [(0, line_no, col)], nvars, field)
            potential_line = line_no
        elif head == "weights":
            if nvars is None:
                raise ParseError("'weights' before 'ring'", line_no)
            if tokens[1:] == ["none"]:
                weights = None
                continue
            if len(tokens) != nvars + 3 or tokens[-2] != "degree":
                raise ParseError(
                    "expected 'weights w1 .. wn degree D' or 'weights none'",
                    line_no,
                )
            try:
                wvals = tuple(int(t) for t in tokens[1 : nvars + 1])
                dval = int(tokens[-1])
            except ValueError:
                raise ParseError("weights and degree must be integers", line_no)
            try:
                weights = WeightSystem(wvals, dval)
            except UsageError as exc:
                raise ParseError(str(exc), line_no)
            weights_line = line_no
        elif head == "action":
            if nvars is None:
                raise ParseError("'action' before 'ring'", line_no)
            if len(tokens) != nvars + 3 or tokens[2] != ":":
                raise ParseError(
                    "expected 'action ORDER : c1 .. cn' with one exponent per variable",
                    line_no,
                )
            try:
                order = int(tokens[1])
                row = tuple(int(t) for t in tokens[3:])
            except ValueError:
                raise ParseError("action parameters must be integers", line_no)
            if order < 1:
                raise ParseError("the order of a cyclic factor must be positive", line_no)
            action_orders.append(order)
            action_rows.append(row)
        elif head == "mf":
            if len(tokens) != 2:
                raise ParseError("expected 'mf NAME'", line_no)
            if nvars is None or potential is None:
                raise ParseError("'mf' before 'ring' and 'potential'", line_no)
            name = tokens[1]
            block = {"name": name, "line": line_no}
            closed = False
            while i < len(lines):
                bline_no = i + 1
                bstripped = clean(lines[i]).strip()
                i += 1
                if not bstripped:
                    continue
                btokens = bstripped.split()
                key = btokens[0]
                if key == "end":
                    closed = True
                    break
                if key in ("p0", "p1"):
                    raw = clean(lines[i - 1])
                    col = raw.index(key) + len(key)
                    rest = raw[col:]
                    segs = [(0, bline_no, col)]
                    while rest.count("[") > rest.count("]") and i < len(lines):
                        rest += " "
                        segs.append((len(rest), i + 1, 0))
                        rest += clean(lines[i])
                        i += 1
                    block[key] = (rest, segs)
                elif key in ("deg0", "deg1"):
                    try:
                        block[key] = tuple(int(t) for t in btokens[1:])
                    except ValueError:
                        raise ParseError("degrees must be integers", bline_no)
                elif key in ("chars0", "chars1"):
                    block[key] = (
                        tuple(_parse_char(t, bline_no) for t in btokens[1:]),
                        bline_no,
                    )
                else:
                    raise ParseError(
                        f"unknown directive {key!r} inside an mf block", bline_no
                    )
            if not closed:
                raise ParseError(f"mf block {name!r} never reaches 'end'", block["line"])
            if "p0" not in block or "p1" not in block:
                raise ParseError(
                    f"mf block {name!r} needs both p0 and p1", block["line"]
                )
            if name in (b["name"] for b in mf_blocks):
                raise ParseError(f"duplicate factorization name {name!r}", line_no)
            mf_blocks.append(block)
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    if nvars is None:
        raise ParseError("workspace has no 'ring' line")
    if potential is None:
        raise ParseError("workspace has no 'potential' line")
    if weights is _AUTO:
        try:
            weights = detect_weights(potential)
        except UsageError as exc:
            raise ParseError(str(exc), potential_line)
    elif weights is not None:
        mismatched = potential.weighted_degrees(weights) != {weights.degree}
        if mismatched:
            raise ParseError(
                "potential is not quasi-homogeneous of the declared degree",
                weights_line,
            )
    action = None
    if action_orders:
        action = GroupAction(
            orders=tuple(action_orders),
            exponents=tuple(action_rows),
            nvars=nvars,
        )
        if not action.is_invariant(potential):
            raise ParseError("potential is not invariant under the action")

    ws = Workspace(nvars, field, potential, weights, action)
    for block in mf_blocks:
        name = block["name"]
        p0 = _parse_matrix(*block["p0"], nvars, field)
        p1 = _parse_matrix(*block["p1"], nvars, field)
        if weights is not None:
            deg0 = block.get("deg0")
            deg1 = block.get("deg1")
            if deg0 is None or deg1 is None:
                inferred = infer_generator_degrees(p0, p1, weights)
                if inferred is None:
                    raise ParseError(
                        f"cannot infer generator degrees for {name!r}; "
                        "give deg0 and deg1",
                        block["line"],
                    )
                deg0 = deg0 if deg0 is not None else inferred[0]
                deg1 = deg1 if deg1 is not None else inferred[1]
        else:
            deg0 = block.get("deg0", tuple(0 for _ in range(p0.ncols)))
            deg1 = block.get("deg1", tuple(0 for _ in range(p0.nrows)))
        if len(deg0) != p0.ncols:
            raise ParseError(
                f"deg0 of {name!r} has {len(deg0)} entries for {p0.ncols} generators",
                block["line"],
            )
        if len(deg1) != p0.nrows:
            raise ParseError(
                f"deg1 of {name!r} has {len(deg1)} entries for {p0.nrows} generators",
                block["line"],
            )
        chars0, cline0 = block.get("chars0", (None, None))
        chars1, cline1 = block.get("chars1", (None, None))
        chars0, chars1 = _checked_chars(
            name, (chars0, chars1), (p0.ncols, p0.nrows), action,
            (block["line"], cline0, cline1))
        try:
            mf = MatrixFactorization(
                W=potential,
                weights=weights,
                m0=GradedFreeModule(p0.ncols, tuple(deg0), chars0),
                m1=GradedFreeModule(p0.nrows, tuple(deg1), chars1),
                p0=p0,
                p1=p1,
                validate=validate,
            )
        except MfcatError as exc:
            raise ParseError(
                f"factorization {name!r} does not verify: {exc}", block["line"]
            )
        ws.factorizations[name] = mf
    return ws
