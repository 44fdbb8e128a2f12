"""Source rules that no test of behaviour would catch.

A ``functools.cached_property`` writes the instance dict directly, and on
CPython 3.11 every later attribute read of that object then takes a slower
path (twice as long for a field read), on a frozen dataclass and a plain
class alike.  A value derived from an object's fields is kept with
``poly.kept``, which stores it with ``object.__setattr__``, or in a slot
(as ``Polynomial`` and ``PolyMatrix`` keep their hash).  The package names
``cached_property`` nowhere: not as a decorator, an attribute or an import.

The value types made on every witness check and every hom read are
``__slots__`` classes, immutable by convention: ``PolyMatrix``,
``MfMorphism``, ``Homotopy``, ``HomSpace`` and ``DegreeData``.  None of
them may give its instances a ``__dict__`` again (as a dataclass, or a
subclass or base without ``__slots__``, would), since a dict per object
costs memory and a slower construction on those paths.
"""

import ast
import dataclasses
import glob
import os

from mfcat.factorization import Homotopy, MfMorphism
from mfcat.homotopy import DegreeData, HomSpace
from mfcat.matrices import PolyMatrix

SLOTTED = (PolyMatrix, MfMorphism, Homotopy, HomSpace, DegreeData)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cached_property_uses(root=ROOT):
    """{(module, line)} of each name, attribute or import of
    cached_property in the source of root/src/mfcat."""
    out = set()
    for path in sorted(glob.glob(os.path.join(root, "src", "mfcat", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)[:-3]
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id == "cached_property")
                    or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
                    or (isinstance(node, ast.ImportFrom)
                        and any(a.name == "cached_property" for a in node.names))):
                out.add((module, node.lineno))
    return out


def test_no_cached_property_in_the_package():
    assert not cached_property_uses(), sorted(cached_property_uses())


def test_the_rule_sees_every_cached_property(tmp_path):
    src = tmp_path / "src" / "mfcat"
    src.mkdir(parents=True)
    (src / "demo.py").write_text(
        "import dataclasses, functools\n"
        "from functools import cached_property\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    @functools.cached_property\n"
        "    def kept(self):\n"
        "        return 1\n"
        "class Plain:\n"
        "    @cached_property\n"
        "    def kept(self):\n"
        "        return 1\n"
        "    other = functools.cached_property(len)\n"
        "# cached_property in a comment is no use\n")
    assert cached_property_uses(str(tmp_path)) == {
        ("demo", 2), ("demo", 5), ("demo", 9), ("demo", 12)}


def with_instance_dict(classes):
    """The names of those classes whose instances have a ``__dict__``."""
    return [cls.__name__ for cls in classes if cls.__dictoffset__]


def test_slotted_value_types_keep_no_instance_dict():
    assert not with_instance_dict(SLOTTED), with_instance_dict(SLOTTED)


def test_the_rule_sees_every_instance_dict():
    class Slotted:
        __slots__ = ("a",)

    class Unslotted(Slotted):
        pass

    class Plain:
        pass

    frozen = dataclasses.make_dataclass("Frozen", ["a"], frozen=True)
    assert with_instance_dict((Slotted, Unslotted, Plain, frozen)) == [
        "Unslotted", "Plain", "Frozen"]
