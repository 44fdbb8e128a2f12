"""README's Caches section states each cache's bound as the module
constant holds it, and names every ``functools.lru_cache`` of the
package.

A table row names its cache as `module.name` in the first cell and its
bound as `_CONSTANT` = value in the second; the text below the table
names `module._CONSTANT` = value in full.  Values are integers, written
plainly, with thousands commas, or as a power such as 2^16.
"""

import ast
import glob
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VALUE = r"(\d[\d,]*(?:\^\d+)?)"


def caches_section():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("\n## Caches\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def value(text):
    base, _, power = text.replace(",", "").partition("^")
    return int(base) ** int(power) if power else int(base)


def stated_bounds():
    """[(module, constant, value)] for every bound the section states."""
    out = []
    section = caches_section()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = line.split("|")
        module = re.match(r" `(\w+)\.", cells[1]).group(1)
        bounds = re.findall(r"`(_[A-Z_]+)` = " + VALUE, cells[2])
        assert bounds, line
        out += [(module, name, value(v)) for name, v in bounds]
    out += [(module, name, value(v)) for module, name, v in
            re.findall(r"`(\w+)\.(_[A-Z_]+)` = " + VALUE, section)]
    return out


def test_every_stated_cache_bound_is_the_module_constant():
    bounds = stated_bounds()
    assert bounds
    for module, name, stated in bounds:
        actual = getattr(importlib.import_module("mfcat." + module), name)
        assert actual == stated, (module, name)


def lru_caches():
    """[(module, name)] of every function an mfcat module decorates with
    ``lru_cache`` or ``cache``, read from the source."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "mfcat", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                if ast.unparse(func).split(".")[-1] in ("lru_cache", "cache"):
                    out.append((os.path.basename(path)[:-3], node.name))
    return out


def test_every_lru_cache_has_a_row_and_a_stated_constant_bound():
    rows = {}
    for line in caches_section().splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            bounds = [name for name, _ in
                      re.findall(r"`(_[A-Z_]+)` = " + VALUE, cells[2])]
            for cache in re.findall(r"`(\w+\.\w+)`", cells[1]):
                rows[cache] = bounds
    caches = lru_caches()
    assert caches
    for module, name in caches:
        assert module + "." + name in rows, (module, name)
        mod = importlib.import_module("mfcat." + module)
        maxsize = getattr(mod, name).cache_info().maxsize
        assert maxsize is not None, (module, name)
        assert maxsize in [getattr(mod, c) for c in rows[module + "." + name]], (
            module, name)
