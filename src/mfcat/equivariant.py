"""Group-equivariant structures on matrix factorizations.

For a diagonal abelian action, an equivariant structure is a character
per generator such that every entry of p0 and p1 is an eigenvector with
the character dictated by its row and column.  Since characters are
residue tuples, finding all structures is a difference-constraint problem
per cyclic factor, solved by weighted union-find; each graph component
contributes one free residue.

The Reynolds projection onto the equivariant part is a per-entry
character filter.  That form needs no division by the group order and no
roots of unity: projecting both sides of the chain-map identities onto a
fixed character piece is exact over any coefficient field, because the
structure maps of an equivariant factorization have pure characters.

For the same reason hom spaces split by transformation character at
assembly: every equation and every boundary of a degree block stays inside
one character, so each character piece is assembled and reduced as a
system of its own (``homotopy._KeptComplex.pieces``).

Twisting a structure shifts all its generator characters by the same
amount, so the character pieces of a twisted pair are those of the
untwisted pair relabelled by a fixed offset.  One character split
therefore serves a whole twist orbit.  It is kept in a bounded cache whose
key takes, per structure, its factorization without characters, which
every twist shares as one object (``homotopy._untwisted``: a char-free
copy handed down by ``with_chars``, whose hash is kept), and the
characters relative to the structure's first one, plus the action.  Each
structure computes that part of the key once and keeps it
(``EquivariantStructure._orbit_key``), and ``twist`` returns one
shared object per structure and character from a bounded cache
(``_twisted``), so the callers that twist a structure by every character
of every pair make each twist, and its key, once.  The piece of character
chi is the split's piece chi - need0, need0 the target's first character
minus the source's.  A split is made
on a cache miss from the kept complex of the factorization pair without
characters (``homotopy._rank_table``), the one that plain ``hom_space``
calls and the full space of ``isotypic_decompose`` read.  There is one
kind of kept hom complex: a piece is made by the same constructor as the
pair's entry, from that entry and a grade, and read by the same reader
(``homotopy._Reading``), whose assembler takes the piece's grade.  It
inherits the pair's default window and isolated flag, and keeps the exact
half-ranks of its degrees and the finished table of its default window
with representatives (``_KeptComplex.rows``), so each block of the orbit
is graded, assembled and eliminated once.  What calls share is that table's ``DegreeData`` and
(f0, f1) pairs of immutable ``PolyMatrix`` objects, never an
``MfMorphism``: representatives are made on every call as maps between
the caller's own structures.  The plain pair's table without
representatives, which every twist's sum check in ``isotypic_decompose``
reads, is kept on the pair's entry the same way.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache
from itertools import product

from .action import GroupAction, char_add, char_sub, normalize_char
from .errors import MfcatError, UsageError
from .factorization import (
    Homotopy,
    MatrixFactorization,
    MfMorphism,
    _generator_components,
)
from .homotopy import (
    _PARITY,
    _hom_space,
    _rank_table,
    _require_shared_grading,
    _require_weights,
    _untwisted,
    hom_space,
)
from .poly import kept

# Twist orbits kept by _orbit_split, one per pair of structures up to
# twisting; one pass of equivariant-isotypic fills 55.
_ORBIT_CACHE = 128

# Twisted structures kept by _twisted, one per structure and character; one
# set-up of equivariant-isotypic makes 350.
_TWISTS = 1024


def check_equivariant(mf, action):
    """List of violations of the character conditions; empty when valid."""
    problems = []
    if mf.m0.chars is None or mf.m1.chars is None:
        return ["factorization carries no generator characters"]
    if action.nvars != mf.nvars:
        return ["action and factorization have different variable counts"]
    misfits = ["%s character %d has %d components for %d factors"
               % (label, j, len(c), action.nfactors)
               for label, chars in (("chars0", mf.m0.chars), ("chars1", mf.m1.chars))
               for j, c in enumerate(chars) if len(c) != action.nfactors]
    if misfits:
        return misfits
    if not action.is_invariant(mf.W):
        problems.append("potential is not invariant under the action")
    c0, c1 = mf.m0.chars, mf.m1.chars
    orders = action.orders
    for label, mat, rows_c, cols_c in (
        ("p0", mf.p0, c1, c0),
        ("p1", mf.p1, c0, c1),
    ):
        for i in range(mat.nrows):
            for j in range(mat.ncols):
                f = mat.entries[i][j]
                if f.is_zero():
                    continue
                want = char_sub(rows_c[i], cols_c[j], orders)
                if not action.has_character(f, want):
                    problems.append(
                        "%s entry (%d,%d) is not a character eigenvector of "
                        "the required character" % (label, i, j)
                    )
    return problems


@dataclass(frozen=True)
class EquivariantStructure:
    """A factorization with generator characters valid for the action."""

    factorization: MatrixFactorization
    action: GroupAction
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if validate:
            problems = check_equivariant(self.factorization, self.action)
            if problems:
                raise MfcatError(
                    "not an equivariant structure: " + "; ".join(problems[:6])
                )

    @property
    def chars0(self):
        return self.factorization.m0.chars

    @property
    def chars1(self):
        return self.factorization.m1.chars

    def twist(self, char):
        """Shift every generator character by the same amount; every call
        with the same structure and character returns one shared object
        (``_twisted``)."""
        char = normalize_char(char, self.action.orders)
        return _twisted(self, char)

    @kept
    def _orbit_key(self):
        """((the factorization without characters (``_untwisted``), the
        relative characters), base): base is the first generator character
        (zero without generators) and the relative characters are
        (chars0 - base, chars1 - base), so every twist of the structure has
        an equal first part and twisting moves base only."""
        orders = self.action.orders
        chars0, chars1 = self.chars0, self.chars1
        first = chars0 or chars1
        base = first[0] if first else self.action.zero_char()
        rel = tuple(tuple(char_sub(c, base, orders) for c in chars)
                    for chars in (chars0, chars1))
        return (_untwisted(self.factorization), rel), base

    def forget(self):
        return self.factorization.strip_chars()


def enumerate_structures(mf, action):
    """All equivariant structures on mf, in a deterministic order.

    Empty when none exist (entry with mixed characters, or an
    inconsistent cycle of constraints, or a non-invariant potential).
    """
    if action.nvars != mf.nvars:
        raise UsageError("action and factorization have different variable counts")
    if not action.is_invariant(mf.W):
        return ()
    per_factor = []
    for f in range(action.nfactors):
        m = action.orders[f]

        def label(g, k):
            vals = {action.char_of_monomial(e)[f] for e in g.terms}
            return vals.pop() if len(vals) == 1 else None

        comp = _generator_components(mf.p0, mf.p1, label, m)
        if comp is None:
            return ()
        roots = sorted(comp, key=lambda r: min(comp[r]))
        assignments = []
        for bases in product(range(m), repeat=len(roots)):
            val = {}
            for base, root in zip(bases, roots):
                for node, off in comp[root]:
                    val[node] = (base + off) % m
            assignments.append(val)
        per_factor.append(assignments)
    out = []
    for combo in product(*per_factor):
        chars0 = tuple(
            tuple(combo[f][("g0", j)] for f in range(action.nfactors))
            for j in range(mf.m0.rank)
        )
        chars1 = tuple(
            tuple(combo[f][("g1", i)] for f in range(action.nfactors))
            for i in range(mf.m1.rank)
        )
        out.append(
            EquivariantStructure(
                mf.with_chars(chars0, chars1), action, validate=False
            )
        )
    return tuple(out)


def twist_orbits(structures):
    """Group structures by global character twisting.

    Returns a tuple of orbits, each a tuple of structures, preserving the
    enumeration order within and between orbits.
    """
    seen = {}
    for st in structures:
        seen.setdefault(st._orbit_key[0][1], []).append(st)
    return tuple(tuple(orbit) for orbit in seen.values())


def is_equivariant_map(phi, e_src, e_tgt, twist_char=None):
    """Whether every entry of phi has the character its slot requires."""
    _check_pair(phi, e_src, e_tgt)
    act = e_src.action
    orders = act.orders
    chi = (
        act.zero_char() if twist_char is None else normalize_char(twist_char, orders)
    )
    need = _slot_characters(
        (e_src.chars0, e_src.chars1), (e_tgt.chars0, e_tgt.chars1), orders)
    return all(
        act.has_character(f, char_sub(need[kind, i, j], chi, orders))
        for kind, mat in (("e0", phi.f0), ("e1", phi.f1))
        for i, row in enumerate(mat.entries)
        for j, f in enumerate(row)
    )


def reynolds(phi, e_src, e_tgt):
    """Project a chain map onto its equivariant part.

    Keeps, in each entry, exactly the monomials of the character the slot
    requires.  The result is again a chain map because the structure maps
    have pure characters, so projecting the chain-map identities onto a
    character piece is compatible with multiplication by them.
    """
    _check_pair(phi, e_src, e_tgt)
    need = _slot_characters((e_src.chars0, e_src.chars1),
                            (e_tgt.chars0, e_tgt.chars1), e_src.action.orders)
    return MfMorphism(
        source=phi.source,
        target=phi.target,
        f0=_project(phi.f0, "e0", need, e_src.action),
        f1=_project(phi.f1, "e1", need, e_src.action),
        degree=phi.degree,
        validate=False,
    )


def reynolds_homotopy(h, e_src, e_tgt):
    """Character filter on an odd map; the equivariant witness extractor."""
    need = _slot_characters((e_src.chars0, e_src.chars1),
                            (e_tgt.chars0, e_tgt.chars1), e_src.action.orders)
    t0 = _project(h.t0, "t0", need, e_src.action)
    t1 = _project(h.t1, "t1", need, e_src.action)
    return Homotopy(source=h.source, target=h.target, t0=t0, t1=t1, degree=h.degree)


def _slot_characters(src, tgt, orders):
    """{(kind, i, j): character of the target's row generator i minus that
    of the source's column generator j} over the slots of maps between two
    structures (slot kinds as in ``homotopy``); src and tgt are their
    (chars0, chars1)."""
    return {
        (kind, i, j): char_sub(ci, cj, orders)
        for kind, (p, q) in _PARITY.items()
        for i, ci in enumerate(tgt[p])
        for j, cj in enumerate(src[q])
    }


def _project(mat, kind, need, act):
    """Cut each entry of a slot matrix of the given kind to its character."""
    return mat.map_entries_indexed(
        lambda i, j, f: act.project_character(f, need[kind, i, j]))


def _shared_action(e_src, e_tgt):
    if e_src.action != e_tgt.action:
        raise UsageError("structures live over different actions")
    return e_src.action


def _check_pair(phi, e_src, e_tgt):
    _shared_action(e_src, e_tgt)
    if _untwisted(phi.source) != _untwisted(e_src.factorization):
        raise UsageError("morphism source does not match the source structure")
    if _untwisted(phi.target) != _untwisted(e_tgt.factorization):
        raise UsageError("morphism target does not match the target structure")


@lru_cache(maxsize=_TWISTS)
def _twisted(st, char):
    """The twist of st by the normalized character char."""
    orders = st.action.orders
    mf = st.factorization.with_chars(
        tuple(char_add(c, char, orders) for c in st.chars0),
        tuple(char_add(c, char, orders) for c in st.chars1),
    )
    return EquivariantStructure(mf, st.action, validate=False)


@lru_cache(maxsize=_ORBIT_CACHE)
def _orbit_split(source, target, action):
    """The character split (``_KeptComplex.pieces``) of the kept complex
    (``homotopy._rank_table``) of the maps between two structures without
    their characters, relative to need0; source and
    target are each the first part of a structure's ``_orbit_key``
    (factorization without characters, relative characters), so every
    twist of the pair has the same key.

    An unknown (kind, i, j, e) has character need[kind, i, j] - char(e)
    (``_slot_characters``), and need[kind, i, j] is need0 plus the same
    difference taken between the relative characters; the split grades
    the unknown by that difference minus char(e).
    """
    prob = _rank_table(source[0], target[0])
    orders = action.orders
    need = _slot_characters(source[1], target[1], orders)

    def grade(slot, e):
        return char_sub(need[slot], action.char_of_monomial(e), orders)

    return prob.pieces(grade)


def _twist_orbit(e_src, e_tgt):
    """(split, need0) shared by the twist orbit of the pair: the maps of
    transformation character chi are split[chi - need0], need0 the
    target's first character minus the source's."""
    act = e_src.action
    src, base_src = e_src._orbit_key
    tgt, base_tgt = e_tgt._orbit_key
    return _orbit_split(src, tgt, act), char_sub(base_tgt, base_src, act.orders)


def equivariant_hom_space(e_src, e_tgt, window=None, twist_char=None):
    """Hom space of maps with a fixed transformation character.

    twist_char None computes the invariant (strictly equivariant) part.
    Certification matches the underlying graded computation.
    """
    act = _shared_action(e_src, e_tgt)
    chi = (
        act.zero_char() if twist_char is None
        else normalize_char(twist_char, act.orders)
    )
    src, tgt = e_src.factorization, e_tgt.factorization
    _require_weights(src, tgt)
    split, need0 = _twist_orbit(e_src, e_tgt)
    piece = split[char_sub(chi, need0, act.orders)]
    return _hom_space(src, tgt, window, piece)


def isotypic_decompose(e_src, e_tgt, window=None):
    """Hom space split by transformation character.

    Returns {character: HomSpace}.  The per-degree dimensions of the
    pieces must add up to the full hom space; that is checked and a
    failure raises, since it would mean the split lost classes.
    """
    src, tgt = e_src.factorization, e_tgt.factorization
    _require_shared_grading(src, tgt)
    act = _shared_action(e_src, e_tgt)
    split, need0 = _twist_orbit(e_src, e_tgt)
    full = hom_space(src, tgt, window, want_reps=False)
    pieces = {}
    for chi in act.characters():
        piece = split[char_sub(chi, need0, act.orders)]
        pieces[chi] = _hom_space(src, tgt, window, piece)
    want = full.dims_by_degree()
    got = {}
    for hs in pieces.values():
        for p in hs.per_degree:
            got[p.degree] = got.get(p.degree, 0) + p.dim
    for d in sorted(want.keys() | got.keys()):
        if want.get(d, 0) != got.get(d, 0):
            raise MfcatError(
                "isotypic pieces of degree %d sum to %d, expected %d"
                % (d, got.get(d, 0), want.get(d, 0))
            )
    return pieces
