"""Source rules that no test of behaviour would catch.

A ``functools.cached_property`` on a frozen dataclass writes the instance
dict directly, and on CPython 3.11 every later attribute read of that
object then takes a slower path (twice as long for a field read).  Kept
values belong in a slot (as ``Polynomial`` and ``PolyMatrix`` keep their
hash) or are set once with ``object.__setattr__`` (``factorization._kept_hash``).
The ones that remain are listed below and may only be removed.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, class, attribute) of each cached_property on a frozen dataclass
# that is still allowed: each slows the reads of its object, as above.
ALLOWED = {
    ("factorization", "MatrixFactorization", "split_degree"),
    ("factorization", "MatrixFactorization", "_shifted"),
    ("poly", "WeightSystem", "_hash"),
    ("action", "GroupAction", "_hash"),
    ("equivariant", "EquivariantStructure", "_orbit_key"),
}


def _name(node):
    return ast.unparse(node.func if isinstance(node, ast.Call) else node).split(".")[-1]


def _is_frozen_dataclass(cls):
    for dec in cls.decorator_list:
        if (isinstance(dec, ast.Call) and _name(dec) == "dataclass"
                and any(kw.arg == "frozen" and ast.unparse(kw.value) == "True"
                        for kw in dec.keywords)):
            return True
    return False


def cached_properties_on_frozen_dataclasses(root=ROOT):
    """{(module, class, attribute)} read from the source of root/src/mfcat."""
    out = set()
    for path in sorted(glob.glob(os.path.join(root, "src", "mfcat", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)[:-3]
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not _is_frozen_dataclass(cls):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and any(_name(d) == "cached_property" for d in node.decorator_list)):
                    out.add((module, cls.name, node.name))
    return out


def test_no_new_cached_property_on_a_frozen_dataclass():
    found = cached_properties_on_frozen_dataclasses()
    assert found <= ALLOWED, sorted(found - ALLOWED)
    # an entry whose property is gone must leave the list too
    assert ALLOWED <= found, sorted(ALLOWED - found)


def test_the_rule_sees_a_cached_property_on_a_frozen_dataclass(tmp_path):
    src = tmp_path / "src" / "mfcat"
    src.mkdir(parents=True)
    (src / "demo.py").write_text(
        "import dataclasses, functools\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    @functools.cached_property\n"
        "    def kept(self):\n"
        "        return 1\n"
        "@dataclasses.dataclass\n"
        "class Open:\n"
        "    @functools.cached_property\n"
        "    def kept(self):\n"
        "        return 1\n")
    assert cached_properties_on_frozen_dataclasses(str(tmp_path)) == {
        ("demo", "Frozen", "kept")}
