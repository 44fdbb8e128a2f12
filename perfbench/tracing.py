"""Span tracing installed from outside the library.

`install()` replaces public names, in every module that holds them (the
library's own and the benchmark's), with wrappers that record a span
(name, start, end, parent) around each call, plus exact counters at the
same boundaries.  Spans are recorded only while a query span is open, so
the benchmark's own checks stay out of the trace.  Spans live in flat
arrays in memory until `layer_metrics()` folds them into per-layer
numbers at the end of the pass.

A span's self time is its duration minus the time its child spans cover.
A hook whose target no longer exists is skipped, and the metrics it feeds
read 0.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array

LINALG = ("linalg.rank", "linalg.nullspace", "linalg.solve")
EQUIVARIANT = ("equivariant.equivariant_hom_space", "equivariant.isotypic_decompose")
# Counters that must repeat exactly between runs with the same seed.
EXACT = (
    "poly.monomials.calls", "homotopy.degree_block.calls",
    "homotopy.system_rows", "homotopy.system_cols", "homotopy.system_nnz",
    "linalg.rank.calls", "linalg.nullspace.calls", "linalg.solve.calls",
    "linalg.rows_in", "linalg.nnz_in", "linalg.rank_sum",
    "linalg.max_rows", "linalg.max_cols", "linalg.coeff_bits_max",
    "action.char_of_monomial.calls",
    "factorization.boundary.calls", "matrices.matmul.calls",
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # span times come from this zero-argument function
        self.names = []
        self._ids = {}
        self._restore = []
        self.monomials = None
        self.counters = dict.fromkeys(
            ("block_hits", "homotopy.system_rows", "homotopy.system_cols",
             "homotopy.system_nnz", "linalg.rows_in", "linalg.nnz_in",
             "linalg.rank_sum", "linalg.max_rows", "linalg.max_cols",
             "linalg.coeff_bits_max", "action.char_of_monomial.calls"), 0)
        self._seen_blocks = weakref.WeakKeyDictionary()
        self.reset()

    def reset(self):
        """Drop recorded spans and zero the counters (in place: the
        installed wrappers hold references to them)."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        for key in self.counters:
            self.counters[key] = 0
        self._seen_blocks.clear()

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def close(self, idx):
        self.span_end[idx] = self.clock()
        self._stack.pop()

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            pre = before(*args, **kwargs) if before else None
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                after(out, pre, *args, **kwargs)
            return out

        return wrapper

    def _replace_function(self, module, attr, name, **hooks):
        orig = getattr(module, attr, None)
        if orig is None:
            return None
        wrapper = self._wrap(name, orig, **hooks)
        for mod in list(sys.modules.values()):
            for key, val in list(getattr(mod, "__dict__", {}).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))
        return orig

    def _replace_method(self, cls, attr, wrapper_factory):
        orig = getattr(cls, attr, None) if cls is not None else None
        if orig is None:
            return
        setattr(cls, attr, wrapper_factory(orig))
        self._restore.append((cls, attr, orig))

    def install(self):
        import mfcat.action
        import mfcat.factorization
        import mfcat.homotopy
        import mfcat.linalg
        import mfcat.matrices
        import mfcat.poly

        c = self.counters
        self.monomials = self._replace_function(
            mfcat.poly, "monomials_of_weighted_degree", "poly.monomials")

        seen = self._seen_blocks

        def block_before(prob, d):
            known = seen.get(prob)
            return None if known is None else known.get(d)

        def block_after(blk, previous, prob, d):
            if blk is previous:
                c["block_hits"] += 1
                return
            seen.setdefault(prob, {})[d] = blk
            zrows = getattr(blk, "zrows", ())
            dvecs = getattr(blk, "dvecs", ())
            c["homotopy.system_rows"] += len(zrows) + len(dvecs)
            c["homotopy.system_cols"] += len(getattr(blk, "even_uids", ()))
            c["homotopy.system_nnz"] += sum(map(len, zrows)) + sum(map(len, dvecs))

        self._replace_method(
            getattr(mfcat.homotopy, "HomProblem", None), "degree_block",
            lambda fn: self._wrap("homotopy.degree_block", fn, block_before, block_after))

        for attr in ("hom_space", "find_homotopy"):
            self._replace_function(mfcat.homotopy, attr, "homotopy." + attr)
        for attr in ("equivariant_hom_space", "isotypic_decompose"):
            self._replace_function(mfcat.equivariant, attr, "equivariant." + attr)

        def shape_in(rows, *args):
            ncols = args[-2]  # rank/nullspace: (rows, ncols, field); solve adds rhs
            c["linalg.rows_in"] += len(rows)
            c["linalg.nnz_in"] += sum(map(len, rows))
            c["linalg.max_rows"] = max(c["linalg.max_rows"], len(rows))
            c["linalg.max_cols"] = max(c["linalg.max_cols"], ncols)
            return ncols

        def rank_after(out, ncols, *args):
            c["linalg.rank_sum"] += out

        def nullspace_after(out, ncols, *args):
            c["linalg.rank_sum"] += ncols - len(out)
            for vec in out:
                _note_bits(c, vec.values())

        def solve_after(out, ncols, *args):
            if out:
                _note_bits(c, out.values())

        for attr, after in (("rank", rank_after), ("nullspace", nullspace_after),
                            ("solve", solve_after)):
            self._replace_function(mfcat.linalg, attr, "linalg." + attr,
                                   before=shape_in, after=after)

        def count_chars(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._stack:
                    c["action.char_of_monomial.calls"] += 1
                return fn(*args, **kwargs)
            return wrapper

        self._replace_method(getattr(mfcat.action, "GroupAction", None),
                             "char_of_monomial", count_chars)
        self._replace_method(getattr(mfcat.factorization, "Homotopy", None), "boundary",
                             lambda fn: self._wrap("factorization.boundary", fn))
        self._replace_method(getattr(mfcat.matrices, "PolyMatrix", None), "__matmul__",
                             lambda fn: self._wrap("matrices.matmul", fn))

    def uninstall(self):
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)

    # -- folding spans into metrics ----------------------------------------

    def layer_metrics(self):
        """Per-layer numbers over the spans recorded since the last reset."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            total[k] += dur[i]
            self_s[k] += dur[i] - covered[i]

        def get(table, name):
            k = self._ids.get(name)
            return table[k] if k is not None else 0

        c = self.counters
        block_calls = get(calls, "homotopy.degree_block")
        info = getattr(self.monomials, "cache_info", lambda: None)()
        lookups = (info.hits + info.misses) if info else 0
        out = {
            "poly.monomials.calls": get(calls, "poly.monomials"),
            "poly.monomials.s": get(total, "poly.monomials"),
            "poly.monomials.hit_ratio": info.hits / lookups if lookups else 0.0,
            "homotopy.degree_block.calls": block_calls,
            "homotopy.degree_block.s": get(total, "homotopy.degree_block"),
            "homotopy.degree_block.hit_ratio":
                c["block_hits"] / block_calls if block_calls else 0.0,
            "homotopy.system_rows": c["homotopy.system_rows"],
            "homotopy.system_cols": c["homotopy.system_cols"],
            "homotopy.system_nnz": c["homotopy.system_nnz"],
            "homotopy.hom_space.self_s": get(self_s, "homotopy.hom_space"),
            "homotopy.find_homotopy.self_s": get(self_s, "homotopy.find_homotopy"),
            "linalg.rank.calls": get(calls, "linalg.rank"),
            "linalg.nullspace.calls": get(calls, "linalg.nullspace"),
            "linalg.solve.calls": get(calls, "linalg.solve"),
            "linalg.s": sum(get(total, name) for name in LINALG),
        }
        for key in ("rows_in", "nnz_in", "rank_sum", "max_rows", "max_cols",
                    "coeff_bits_max"):
            out["linalg." + key] = c["linalg." + key]
        out["equivariant.self_s"] = sum(get(self_s, name) for name in EQUIVARIANT)
        out["action.char_of_monomial.calls"] = c["action.char_of_monomial.calls"]
        for name in ("factorization.boundary", "matrices.matmul"):
            out[name + ".calls"] = get(calls, name)
            out[name + ".s"] = get(total, name)
        return out


def _note_bits(counters, values):
    """Track the largest numerator or denominator bit length seen."""
    best = counters["linalg.coeff_bits_max"]
    for v in values:
        num = getattr(v, "numerator", None)
        if num is None:  # prime-field element
            bits = int(getattr(v, "val", 0)).bit_length()
        else:
            bits = max(abs(num).bit_length(), v.denominator.bit_length())
        if bits > best:
            best = bits
    counters["linalg.coeff_bits_max"] = best
