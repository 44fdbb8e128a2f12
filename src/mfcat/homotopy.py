"""Morphism spaces in the homotopy category of factorizations.

Everything here reduces to exact linear algebra.  With a quasi-homogeneous
potential, an internal degree pins every matrix entry of a chain map or a
homotopy to a finite set of monomials, so each question (dimension of the
degree-d hom space, existence of a null-homotopy, existence of a homotopy
inverse) becomes a finite linear system over the coefficient field.

Certification policy: an answer is marked certified only when the claim
rests on an exhaustively enumerated degree set or on an exact rank.  A
found witness is always definitive, once its boundary is checked to equal
the map.  Nonexistence is definitive in the graded case, where entry
degrees are forced.  There a null-homotopy query takes two steps: one
attempt by the kept solver of the map's declared degree, before the map
is split by degree, whose witness is returned only once checked; then one
exact path, each degree's system freshly assembled and solved exactly,
once.  A "no" comes only from that exact path.  Graded contractibility
and equivalence are yes/no questions with no witness asked for, and one
exact rank answers both, with no null-homotopy solved: X is contractible
iff rank p0(0) + rank p1(0) = rank m0, the ranks of its constant terms
(graded Nakayama, ``_nakayama``), and phi is an equivalence iff its cone
is contractible.  Witnesses still come from ``find_homotopy`` and
``homotopy_equivalence_data``.  Totals over a degree window are
certified only for a quasi-homogeneous potential with isolated critical
point and a window containing the default one; everything else is
reported window-truncated.

Every sparse system of the package is built by one assembler: ``_unknowns``
lists the unknowns slot by slot, a stencil per slot says where a monomial
in it goes, and ``_equations`` and ``_images`` turn the two into sparse
rows and columns, solved by ``_solve`` or eliminated by ``linalg``.  Its
users are the hom-complex blocks, the null-homotopy systems, the Jacobian
test here, and the module-map lifts and two-periodicity pieces of
``singcat``.  A hom-complex block is assembled for its degree's answer
and not kept; its ranks are.  A homotopy equivalence has no system of its
own: its inverse and both homotopies are blocks of one null-homotopy of
the identity of its cone (``homotopy_equivalence_data``), and whether a
graded phi is one at all is read off the cone's constant terms.

Every degree of a hom complex is answered by one reader, ``_Reading``,
from the ranks a ``_KeptComplex`` keeps.  There is one kind of kept
complex: that of each ordered pair (X, Y) of factorizations up to
characters, kept in one bounded LRU (``_rank_table``), and each character
piece of such an entry (``_KeptComplex.pieces``), which inherits the
pair's default window and isolated-singularity flag and keeps halves of
its own.  A kept complex holds answers only.  Per internal degree e, for
at most _KEPT_DEGREES degrees, its ``halves`` hold two half-ranks of the
two-periodic complex Hom(X, Y): the even half (n0, rho_e), the even
unknowns and the rank of the differential D on them, and the odd half
(n1, rho_o) likewise.  Kept ranks are exact: a half fresh from a block
carries a flag saying whether its rank is exact or only a rank mod p, and
is kept once its degree is settled (``_Reading._settle``: Z_p == B_p, a
full rank mod p, or one exact elimination), and only when the degree read
lies in the default window, so a wide window leaves no far-off degrees
behind.  A piece is read at shift 0; both parities read a pair's entry: with a the split
degree of Y and D the degree of W,

    Hom(X, Y)_d:    Z = n0(d) - rho_e(d),                  B = rho_o(d)
    Hom(X, Y[1])_d: Z = n1(d + D - a) - rho_o(d + D - a),  B = rho_e(d - a)

since the odd unknowns of Hom(X, Y[1]) in degree d are the even ones of
Hom(X, Y) in degree d - a, its even unknowns are the odd ones in degree
d + D - a, and the two differentials agree up to sign.  The shift swaps
Y's modules, so both parities share the default window.  The halves of a
degree missing from a store come from one assembled block of the complex
being read, which gives both, from an assembler (``HomProblem``) that
the reading builds and drops: of (X, Y), with a piece's grade, or of
(X, Y[1]).  A pair's block is the direct sum of its pieces' blocks, so
the pieces' halves of a degree add up to the pair's.

Every kept complex, pair or piece, also keeps the finished table of its
default window, one per (shift, want_reps) read (``_KeptComplex.rows``):
per degree a frozen ``DegreeData`` that every call shares, and for a
degree with representatives their (f0, f1) matrix pairs, from which each
call makes maps between its own endpoints.  A warm default read then
builds only its ``HomSpace``.  A table refers to no kept complex, and
other windows are read from the halves and keep nothing new.

A kept complex also keeps the cycle basis of each degree a chain map is
drawn in (``_KeptComplex.cycle_basis``, read by ``random_chain_map``): the
even unknowns of the degree and the nullspace of their chain-map
equations, eliminated once per pair up to characters.

A found witness is checked in the product kernel (``Homotopy.bounds``,
``matrices.products_equal``): its products with the structure maps are
summed into term dicts and compared with the map, and no boundary is
built.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import add

from . import linalg
from .errors import GradingError, MfcatError, UsageError
from .factorization import (
    GradedFreeModule,
    Homotopy,
    MatrixFactorization,
    MfMorphism,
    cone_factorization,
)
from .matrices import PolyMatrix, unstack
from .poly import (
    Polynomial,
    kept,
    monomials_of_weighted_degree,
    monomials_up_to_total_degree,
)


# Entries kept by the isolated-singularity test, one per (W, weights); one
# pass of every perfbench workload in one process fills 16.
_POTENTIAL_CACHE = 256

# Total weight of the null-homotopy systems in _kept_systems, one per
# source, target and degree up to characters: a system met once weighs its
# odd unknowns, a kept solver its unknowns plus its E entries.  One pass of
# witness-certify keeps 297 solvers of weight 9,243 in all (3,719 unknowns
# and 5,524 E entries), the heaviest 717.
_KEPT_WEIGHT = 2**16

# Rank tables kept by _rank_table, one per ordered pair of factorizations
# up to characters; one pass of brick-stable fills 46, one of
# equivariant-isotypic 55.
_RANK_TABLES = 128

# Degrees kept by each per-degree store: each half of a rank table or of a
# piece, each kept complex's cycle bases, and each split's unknowns grouped by
# grade.  Past it a degree is answered but not kept.  The most degrees any
# store of any pair keeps over the perfbench workloads and the demos is 24,
# a brick-stable rank half read at both shifts.
_KEPT_DEGREES = 64


@lru_cache(maxsize=_POTENTIAL_CACHE)
def has_isolated_singularity(W, weights):
    """Exact finiteness test for the Jacobian quotient of W.

    The quotient by the partials vanishes above the socle bound exactly
    when it is finite-dimensional; if it is infinite-dimensional, some
    variable has all its powers surviving, so a window of length
    max(weights) just above the bound cannot be all zero.  Checking that
    window is therefore a complete test.
    """
    if W.homogeneous_weighted_degree(weights) != weights.degree:
        raise GradingError("potential is not quasi-homogeneous of the declared degree")
    w = weights.weights
    partials = [W.partial(i).terms for i in range(W.nvars)]
    # the unknowns of slot (i,) are the multipliers of the i-th partial
    stencils = {(i,): [((), g)] for i, g in enumerate(partials) if g}
    sb = weights.socle_bound()
    for d in range(sb + 1, sb + max(w) + 1):
        cols = monomials_of_weighted_degree(w, d)
        if not cols:
            continue
        uids = _unknowns(list(stencils), lambda slot: monomials_of_weighted_degree(
            w, d - weights.degree + w[slot[0]]))
        rows = _images(uids, stencils, {(e,): k for k, e in enumerate(cols)})
        if linalg.rank(rows, len(cols), W.field) < len(cols):
            return False
    return True


def default_window(source, target):
    """Degree window covering the hom space support in the isolated case:
    socle bound padded by the generator-degree spread on both sides."""
    degs = (
        source.m0.degrees + source.m1.degrees
        + target.m0.degrees + target.m1.degrees
    )
    spread = (max(degs) - min(degs)) if degs else 0
    sb = source.weights.socle_bound()
    return (-spread, sb + spread)


# The slots of a map s -> t, by kind: the even kinds e0 and e1 are its
# components P0 -> Q0 and P1 -> Q1, the odd kinds t0 and t1 those of a
# homotopy, P0 -> Q1 and P1 -> Q0.  Each kind is (row parity, column parity).
_PARITY = {"e0": (0, 0), "e1": (1, 1), "t0": (1, 0), "t1": (0, 1)}
_KIND = {pq: kind for kind, pq in _PARITY.items()}
EVEN = ("e0", "e1")
ODD = ("t0", "t1")


def _shape(s, t, kind):
    p, q = _PARITY[kind]
    return (t.m0, t.m1)[p].rank, (s.m0, s.m1)[q].rank


def _slots(s, t, kinds):
    """The slots (kind, i, j) of a map s -> t of the given kinds, in order."""
    out = []
    for kind in kinds:
        nrows, ncols = _shape(s, t, kind)
        out += [(kind, i, j) for i in range(nrows) for j in range(ncols)]
    return out


def _slot_offsets(s, t):
    """{(kind, i, j): d} where slot (i, j) of a degree-0 map s -> t of that
    kind has entries of weighted degree d; degree k adds k to every d."""
    a_s = s.split_degree or 0
    a_t = t.split_degree or 0
    shift = {"e0": 0, "e1": a_t - a_s, "t0": a_t - s.weights.degree, "t1": -a_s}
    out = {}
    for kind, (p, q) in _PARITY.items():
        col_degs = (s.m0, s.m1)[q].degrees
        for i, h in enumerate((t.m0, t.m1)[p].degrees):
            for j, g in enumerate(col_degs):
                out[kind, i, j] = shift[kind] + g - h
    return out


def _graded_support(weights, offset, d):
    """support(slot) for _unknowns in degree d: the monomials of weighted
    degree d + offset[slot], offset from _slot_offsets."""
    w = weights.weights
    return lambda slot: monomials_of_weighted_degree(w, d + offset[slot])


def _terms(poly, negate=False):
    return {e: -c for e, c in poly.terms.items()} if negate else poly.terms


def _differential(s, t, kind, i, j):
    """Where hom_complex_differential sends a monomial m in slot (i, j) of a
    map s -> t of the given kind: D(x) = p_t x - (-1)^|x| x p_s.

    Returns (head, terms) pairs, heads in the order of their slot kinds.
    A head is the (kind, row, column) of a slot of D(x); m contributes
    c to coordinate head + (m * m2,) for each m2: c in terms.  The heads
    are distinct, so an unknown meets each equation at most once.
    """
    p, q = _PARITY[kind]
    after = (t.p0, t.p1)[p].entries  # Q_p -> Q_(1-p)
    before = (s.p1, s.p0)[q].entries[j]  # P_(1-q) -> P_q
    head = (_KIND[1 - p, q],)
    left = [
        (head + (a, j), _terms(row[i])) for a, row in enumerate(after)
        if row[i].terms
    ]
    head = (_KIND[p, 1 - q], i)
    right = [
        (head + (b,), _terms(poly, p == q)) for b, poly in enumerate(before)
        if poly.terms
    ]
    return left + right if q == 0 else right + left


class _Stencils(dict):
    """The stencil of each slot of a map s -> t, made on first use."""

    def __init__(self, s, t):
        super().__init__()
        self.s, self.t = s, t

    def __missing__(self, slot):
        stencil = self[slot] = _differential(self.s, self.t, *slot)
        return stencil


def _unknowns(slots, support):
    """Unknown ids (kind, i, j, e), slot by slot, where support(slot) lists
    the monomials e allowed in the slot."""
    return [slot + (e,) for slot in slots for e in support(slot)]


def _equations(uids, stencils):
    """Sparse rows {coordinate: {unknown index: coefficient}} of the linear
    map sending each unknown (*slot, e) along stencils[slot]."""
    rows = {}
    for col, uid in enumerate(uids):
        e = uid[-1]
        for head, terms in stencils[uid[:-1]]:
            for e2, c in terms.items():
                key = head + (tuple(map(add, e, e2)),)
                row = rows.get(key)
                if row is None:
                    rows[key] = {col: c}
                else:
                    row[col] = c
    return rows


def _images(uids, stencils, index):
    """Per unknown, its image as a sparse vector over the coordinates in
    index; coordinates index lacks are appended to it."""
    vecs = [{} for _ in uids]
    for key, row in _equations(uids, stencils).items():
        col = index.setdefault(key, len(index))
        for k, c in row.items():
            vecs[k][col] = c
    return vecs


def _solve(rows, rhs, ncols, field):
    """linalg.solve on keyed rows and right-hand side, keys in sorted order."""
    keys = sorted(set(rows) | set(rhs))
    return linalg.solve(
        [rows.get(k, {}) for k in keys],
        [rhs.get(k, field.zero) for k in keys],
        ncols,
        field,
    )


@dataclass(frozen=True)
class _Block:
    even_uids: tuple
    even_index: dict
    zrows: tuple  # sparse rows over even columns: chain-map equations
    odd_uids: tuple
    dvecs: tuple  # per odd unknown, its boundary in even coordinates


_EMPTY_BLOCK = _Block((), {}, (), (), ())


class HomProblem:
    """The assembler of the per-degree linear systems for maps between two
    fixed factorizations: their slots, offsets and stencils, built by a
    call that needs blocks and dropped when it ends.  Unknown ids are
    (kind, i, j, exponent) with kind "e0"/"e1" for the even components and
    "t0"/"t1" for the odd ones.  ``degree_block`` assembles a degree's
    block on every call; no block is kept.  A piece's grade is
    (grade, groups, g) (``_KeptComplex.pieces``): only the unknowns with
    grade(slot, e) == g, grouped by grade in groups."""

    def __init__(self, source, target, grade=None):
        _require_shared_grading(source, target)
        self.source, self.target, self.grade = source, target, grade
        self.even_slots = _slots(source, target, EVEN)
        self.odd_slots = _slots(source, target, ODD)
        self.offset = _slot_offsets(source, target)
        self.stencils = _Stencils(source, target)

    def unknowns(self, d):
        """(even, odd) unknown ids of degree d, of the grade if any; the
        unknowns of a degree are grouped by grade once for all pieces."""
        support = _graded_support(self.source.weights, self.offset, d)
        if self.grade is None:
            return (_unknowns(self.even_slots, support),
                    _unknowns(self.odd_slots, support))
        grade, groups, g = self.grade
        by_grade = groups.get(d)
        if by_grade is None:
            by_grade = {}
            for side, slots in enumerate((self.even_slots, self.odd_slots)):
                for slot in slots:
                    for e in support(slot):
                        key = grade(slot, e)
                        uids = by_grade.get(key)
                        if uids is None:
                            uids = by_grade[key] = ([], [])
                        uids[side].append(slot + (e,))
            if len(groups) < _KEPT_DEGREES:
                groups[d] = by_grade
        return by_grade.get(g, ((), ()))

    def degree_block(self, d):
        """The _Block of degree d, assembled on every call."""
        even, odd = self.unknowns(d)
        if not (even or odd):
            return _EMPTY_BLOCK
        even_uids = tuple(even)
        even_index = {u: k for k, u in enumerate(even_uids)}
        odd_uids = tuple(odd)
        zrows = tuple(_equations(even_uids, self.stencils).values())
        index = dict(even_index)
        dvecs = tuple(_images(odd_uids, self.stencils, index))
        if len(index) != len(even_index):
            raise MfcatError((
                "internal degree bookkeeping violation at %r" if self.grade is None
                else "boundary leaves its piece at %r; the grading is not "
                "compatible with the structure") % (list(index)[len(even_index)],))
        return _Block(even_uids, even_index, zrows, odd_uids, dvecs)


class _KeptComplex:
    """The kept answers of the maps source -> target, a pair's
    ``_rank_table`` entry, or of one grade of them, a piece (``pieces``)
    with its pair's window and flag.  It keeps the exact halves of its
    degrees (``halves``, read by a ``_Reading``), its default window
    (``window``), whether its potential is isolated (``isolated``), the
    finished rows of its default window (``tables``, filled by ``rows``),
    and the cycle bases of the degrees chain maps are drawn in (``bases``,
    filled by ``cycle_basis``); its blocks come from a ``HomProblem``."""

    def __init__(self, source, target, window, isolated, grade=None):
        self.source, self.target, self.grade = source, target, grade
        self.window, self.isolated = window, isolated
        self.halves = {}, {}
        self.tables = {}
        self.bases = {}

    def rows(self, lo, hi, shift=0, want_reps=True):
        """``_Reading.rows`` of maps source -> target[shift] over lo..hi.
        Over the default window the table is kept in ``tables``, one per
        (shift, want_reps), and every call shares it; it holds no
        reference to the kept complex.  A reading refers to its kept
        complex, so it is made per call and not kept, lest every entry be a
        reference cycle left to the garbage collector."""
        if (lo, hi) != self.window:
            return _Reading(self, shift).rows(lo, hi, want_reps)
        key = shift, want_reps
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = _Reading(self, shift).rows(lo, hi, want_reps)
        return table

    def pieces(self, grade):
        """{g: the piece whose blocks hold only the unknowns (*slot, e) with
        grade(slot, e) == g}, each piece made on first use.

        The differential must keep every equation and boundary inside one
        grade, so that each block is the direct sum of its pieces; a
        boundary leaving its piece raises MfcatError.  The pieces group
        each degree's unknowns by grade once (``groups``).
        """
        return _Pieces(self, grade)

    def cycle_basis(self, d):
        """(the even unknown ids of degree d, ``linalg.nullspace`` of their
        chain-map equations): a basis of the degree-d cycles, kept in
        ``bases`` for at most _KEPT_DEGREES degrees."""
        got = self.bases.get(d)
        if got is None:
            prob = HomProblem(self.source, self.target, self.grade)
            even = tuple(prob.unknowns(d)[0])
            rows = list(_equations(even, prob.stencils).values())
            got = even, tuple(linalg.nullspace(rows, len(even), self.source.field))
            if len(self.bases) < _KEPT_DEGREES:
                self.bases[d] = got
        return got


class _Pieces(dict):
    """The pieces of a pair's entry by grade, made on first use."""

    def __init__(self, prob, grade):
        super().__init__()
        self.prob, self.grade, self.groups = prob, grade, {}

    def __missing__(self, g):
        p = self.prob
        piece = self[g] = _KeptComplex(p.source, p.target, p.window, p.isolated,
                                       (self.grade, self.groups, g))
        return piece


@lru_cache(maxsize=_RANK_TABLES)
def _rank_table(source, target):
    """The _KeptComplex of the maps source -> target, each given by its
    _untwisted fields, so that every character twist of the pair reads
    the same entry and its halves ({e: even half}, {e: odd half}).  A
    half is (n, r, exact): n unknowns of that parity in degree e, and r
    the rank of D on them.  A kept half is always exact; the flag lets it
    be read like a half fresh from a block, whose r may be a rank mod p
    below the rank, or None.  Only ranks, tables and the cycle bases of
    ``random_chain_map`` are kept, no blocks (``_Reading``)."""
    s, t = _from_untwisted(source), _from_untwisted(target)
    _require_shared_grading(s, t)
    return _KeptComplex(s, t, default_window(s, t), _certified_potential(s.W, s.weights))


def _half(n, rows, ncols, field):
    """(n, r, exact) of n unknowns of one parity whose images under D are
    rows over ncols columns: r their rank as ``linalg.certified_rank``
    gives it."""
    if not ncols or not any(rows):
        return n, 0, True
    return (n, *linalg.certified_rank(rows, ncols, field))


class _Reading:
    """The degree answers of maps prob.source -> prob.target[shift], read
    from the halves a _KeptComplex prob keeps, a pair's entry
    (``_rank_table``) or a piece (shift 0 only).

    Degree d reads the cycle half (parity, e) and the boundary half of
    ``where``: the even and odd halves of d for shift 0, and for shift 1
    the odd half of d + D - a and the even half of d - a (see the module
    docstring).  Halves missing from the store come from the degree-d
    block of maps source -> target[shift], assembled by a HomProblem
    built on first need; so does an exact elimination.  A block gives
    exactly the two halves its degree reads, so they are kept only once
    ``_settle`` has made them exact, only for d in prob's default window,
    and only while the half holds fewer than _KEPT_DEGREES degrees.
    """

    def __init__(self, prob, shift=0):
        self.source, self.target, self.grade = prob.source, prob.target, prob.grade
        self.window, self.halves = prob.window, prob.halves
        self.where = ((0, 0), (1, 0))
        if shift:
            self.target = prob.target.shift()
            a, D = prob.target.split_degree, prob.source.weights.degree
            self.where = ((1, D - a), (0, -a))

    @kept
    def assembler(self):
        return HomProblem(self.source, self.target, self.grade)

    def answer(self, d, want_reps):
        """(Z, B, reps) in degree d, as ``_settle`` gives them."""
        (cp, ce), (bp, be) = self.where
        ctab, btab = self.halves[cp], self.halves[bp]
        cycles, bounds = ctab.get(d + ce), btab.get(d + be)
        fresh = cycles is None, bounds is None
        blk = None
        if cycles is None or bounds is None:
            blk = self.assembler.degree_block(d)
            n, field = len(blk.even_uids), self.source.field
            if cycles is None:
                cycles = _half(n, blk.zrows, n, field)
            if bounds is None:
                bounds = _half(len(blk.odd_uids), blk.dvecs, n, field)
        ans = self._settle(d, cycles, bounds, blk, want_reps)
        lo, hi = self.window
        if lo <= d <= hi:
            if fresh[0] and len(ctab) < _KEPT_DEGREES:
                ctab[d + ce] = (cycles[0], cycles[0] - ans[0], True)
            if fresh[1] and len(btab) < _KEPT_DEGREES:
                btab[d + be] = (bounds[0], ans[1], True)
        return ans

    def _settle(self, d, cycles, bounds, blk, want_reps):
        """(Z, B, reps) of degree d from the half of its even unknowns and
        the half of its odd unknowns; reps a tuple of coordinate tuples
        ((kind, i, j, e), c), one per representative, or None when not
        wanted and H > 0.

        ``linalg.certified_dims`` settles what the ranks certify.  Where
        representatives are wanted and H > 0, or a side is left open, the
        degree's block (blk, assembled when None) is eliminated exactly:
        its nullspace and quotient give both sides at once, and a side
        already settled that disagrees with them raises MfcatError;
        without representatives an open side gets one exact rank.
        """
        n = cycles[0]
        zdim, bdim = linalg.certified_dims(n, cycles[1:], bounds[1:])
        exact = want_reps and (zdim is None or bdim is None or zdim > bdim)
        if not exact and zdim is not None and bdim is not None:
            return zdim, bdim, (() if zdim == bdim else None)
        if blk is None:
            blk = self.assembler.degree_block(d)
        field = self.source.field
        if exact:
            null_basis = linalg.nullspace(blk.zrows, n, field)
            got, vecs = _quotient_representatives(null_basis, blk.dvecs, field)
            if zdim not in (None, len(null_basis)) or bdim not in (None, got):
                raise MfcatError(
                    "kept ranks (Z, B) = (%s, %s) disagree with the exact (%d, %d)"
                    % (zdim, bdim, len(null_basis), got))
            reps = tuple(tuple((blk.even_uids[col], c) for col, c in v.items())
                         for v in vecs)
            return len(null_basis), got, reps
        if zdim is None:
            zdim = n - linalg.rank(blk.zrows, n, field)
        if bdim is None:
            bdim = linalg.rank(blk.dvecs, n, field)
        return zdim, bdim, (() if zdim == bdim else None)

    def rows(self, lo, hi, want_reps):
        """(per_degree, total, reps) over the degrees lo..hi: per_degree the
        DegreeData, without representatives, of each degree where Z or B is
        nonzero, total the sum of their dims, and reps, when want_reps, a
        (k, pairs) for each per_degree[k] with H > 0, pairs the (f0, f1)
        matrices of its representatives.  Every part is immutable, so
        calls may share it."""
        per_degree, reps, total = [], [], 0
        for d in range(lo, hi + 1):
            zdim, bdim, coords = self.answer(d, want_reps)
            if zdim == 0 and bdim == 0:
                continue
            if want_reps:
                if len(coords) != zdim - bdim:
                    raise MfcatError("representative count disagrees with dimension")
                if coords:
                    reps.append((len(per_degree), tuple(
                        tuple(_slot_matrices(self.source, self.target, EVEN, c))
                        for c in coords)))
            per_degree.append(DegreeData(d, zdim, bdim, zdim - bdim, ()))
            total += zdim - bdim
        return tuple(per_degree), total, tuple(reps)


@dataclass(frozen=True)
class DegreeData:
    degree: int
    cycles: int
    boundaries: int
    dim: int
    representatives: tuple


@dataclass(frozen=True)
class HomSpace:
    source: MatrixFactorization
    target: MatrixFactorization
    window: tuple
    per_degree: tuple
    total: int
    certified: bool

    def dims_by_degree(self):
        return {p.degree: p.dim for p in self.per_degree}

    def to_json(self):
        return {
            "per_degree": [
                {"d": p.degree, "Z": p.cycles, "B": p.boundaries, "H": p.dim}
                for p in self.per_degree
            ],
            "total": self.total,
            "certified": self.certified,
        }


def _certified_potential(W, weights):
    try:
        return has_isolated_singularity(W, weights)
    except GradingError:
        return False


def hom_space(source, target, window=None, *, shift=0, want_reps=True):
    """Morphism space of the homotopy category, degree by degree: maps
    source -> target[shift], shift 0 or 1.

    Per-degree numbers are exact.  The certified flag asserts that the
    window provably contains all degrees with nonzero classes, which we
    claim only for isolated quasi-homogeneous potentials with a window at
    least the default one.  Both shifts read the kept complex of
    (source, target) (``_rank_table``, ``_KeptComplex.rows``); a target
    whose shift does not have split degree D - a (p0 or p1 zero) is read
    at shift 0 as a pair of its own.
    """
    if shift not in (0, 1):
        raise UsageError("shift must be 0 or 1")
    _require_weights(source, target)
    _require_shared_grading(source, target)
    shifted = target.shift(shift)
    if shift:
        a = target.split_degree
        if a is None or shifted.split_degree != source.weights.degree - a:
            target, shift = shifted, 0
    prob = _rank_table(_untwisted(source), _untwisted(target))
    return _hom_space(source, shifted, window, prob, shift, want_reps)


def _hom_space(source, target, window, prob, shift=0, want_reps=True):
    """The HomSpace of maps source -> target over window, or over prob's
    default window when window is None, from ``prob.rows``; certified when
    prob's potential is isolated and the window contains its default
    window.  A degree without representatives is the row's own DegreeData;
    one with representatives gets a DegreeData of its own and a map
    source -> target per (f0, f1) pair of its row."""
    dflt = prob.window
    lo, hi = dflt if window is None else (int(window[0]), int(window[1]))
    per_degree, total, reps = prob.rows(lo, hi, shift, want_reps)
    if reps:
        per_degree = list(per_degree)
        for k, pairs in reps:
            p = per_degree[k]
            per_degree[k] = DegreeData(p.degree, p.cycles, p.boundaries, p.dim, tuple(
                MfMorphism(source, target, f0, f1, p.degree, validate=False)
                for f0, f1 in pairs))
        per_degree = tuple(per_degree)
    return HomSpace(
        source=source,
        target=target,
        window=(lo, hi),
        per_degree=per_degree,
        total=total,
        certified=lo <= dflt[0] and hi >= dflt[1] and prob.isolated,
    )


def _require_shared_grading(source, target):
    if source.W != target.W:
        raise UsageError("objects factor different potentials")
    if source.weights is None or source.weights != target.weights:
        raise GradingError("graded computations need a shared weight system")


def _require_weights(source, target):
    if source.weights is None or target.weights is None:
        raise GradingError(
            "hom spaces need a weight system; use truncated_hom_space instead"
        )


def _quotient_representatives(null_basis, boundary_rows, field):
    """(B, the vectors of null_basis independent modulo the boundaries and
    the vectors before them, in basis order), B the rank of boundary_rows.

    A boundary is a cycle, so its coordinates in the basis from
    ``linalg.nullspace`` are its entries at the free columns.  Basis
    vector k is dropped exactly when some combination of boundaries has
    its last nonzero coordinate at k.  Read last to first, such a k is a
    pivot column of the boundary coordinates, so the kept vectors are the
    free columns of their nullspace.
    """
    n = len(null_basis)
    coord = {max(v): n - 1 - k for k, v in enumerate(null_basis)}
    rows = [{coord[c]: v for c, v in b.items() if c in coord}
            for b in boundary_rows]
    kept = sorted(n - 1 - max(v) for v in linalg.nullspace(rows, n, field))
    return n - len(kept), [null_basis[k] for k in kept]


def _poly_matrix(tab, nrows, ncols, nvars, field):
    """The PolyMatrix with entry terms tab[i][j]: fresh dicts of nonzero
    coefficients in the field's stored form, taken as they are."""
    rows = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            poly = Polynomial.__new__(Polynomial)
            poly.nvars, poly.field, poly.terms = nvars, field, tab[i][j]
            row.append(poly)
        rows.append(tuple(row))
    return PolyMatrix(nrows, ncols, nvars, field, tuple(rows))


def _slot_matrices(s, t, kinds, coords):
    """The matrices of the given kinds of a map s -> t from its nonzero
    coordinates, ((kind, i, j, e), c) pairs."""
    tabs = {}
    for kind in kinds:
        nrows, ncols = _shape(s, t, kind)
        tabs[kind] = [[{} for _ in range(ncols)] for _ in range(nrows)]
    for (kind, i, j, e), c in coords:
        tabs[kind][i][j][e] = c
    return [
        _poly_matrix(tabs[kind], *_shape(s, t, kind), s.nvars, s.field)
        for kind in kinds
    ]


def _check_boundary(h, phi, message):
    """Raise MfcatError(message) unless h bounds the even map phi."""
    if not h.bounds(phi):
        raise MfcatError(message)


def _coordinates(phi):
    """The nonzero coordinates ((kind, i, j, e), c) of an even map."""
    for kind, f in zip(EVEN, (phi.f0, phi.f1)):
        for i, row in enumerate(f.entries):
            for j, poly in enumerate(row):
                for e, c in poly.terms.items():
                    yield (kind, i, j, e), c


def _even_coordinates(phi, offset):
    """Split a morphism into homogeneous pieces in unknown coordinates,
    offset from _slot_offsets.

    Returns {hom_degree: {even_uid: coeff}}.
    """
    wdeg = phi.source.weights.wdeg
    pieces = {}
    for uid, c in _coordinates(phi):
        d = wdeg(uid[3]) - offset[uid[:3]]
        pieces.setdefault(d, {})[uid] = c
    return pieces


def _graded(s, t):
    return (s.weights is not None and t.weights is not None
            and s.weights == t.weights)


def _untwisted(mf):
    """The fields of mf that every character twist of it shares: all but
    the generator characters.  Two factorizations are equal up to
    characters when these are equal."""
    return mf.W, mf.weights, mf.m0.degrees, mf.m1.degrees, mf.p0, mf.p1


def _from_untwisted(fields):
    """The factorization without characters whose _untwisted fields are
    the given ones."""
    W, weights, deg0, deg1, p0, p1 = fields
    return MatrixFactorization(
        W, weights, GradedFreeModule(len(deg0), deg0),
        GradedFreeModule(len(deg1), deg1), p0, p1, validate=False)


class _KeptSystems:
    """The null-homotopy systems met lately, least recently used first,
    under one budget: their weights sum to at most _KEPT_WEIGHT.

    A system is D(h) = phi in the degree-d odd unknowns h of maps
    source -> target, one equation per even coordinate (kind, i, j, e)
    that D reaches; its key is (source, target, d), each side given by
    its _untwisted fields.  An entry is (weight, odd unknowns, solve), and
    the equations themselves are not kept:

    * a system met for the first time gets a marker (``mark``), solve
      None, weighing its unknowns.  The caller solves that right-hand side
      exactly, so a one-off system builds no [A | I].
    * met again, its ``linalg.solver`` is built (``solver``) and takes the
      marker's place, weighing its unknowns plus the entries of its E rows.
    * a solver heavier than the whole budget serves the call that built
      it and is not kept; its marker stays, solve False, and the system
      is solved exactly from then on.

    Only a map's declared degree is marked and given a solver
    (``_null_homotopy_graded``).  ``hits`` counts the calls answered by a
    solver kept before the call; the caller counts them, since only it
    checks the witness.

    An insertion evicts the least recently used entries until the weights
    fit; an entry heavier than the budget on its own is not inserted.
    """

    def __init__(self):
        self.entries = OrderedDict()
        self.weight = 0
        self.hits = 0

    def clear(self):
        self.entries.clear()
        self.weight = self.hits = 0

    def mark(self, key, uids):
        """Note that system key, with odd unknowns uids, was met: a marker
        if it is new, else its entry becomes the most recently used."""
        if key in self.entries:
            self.entries.move_to_end(key)
        else:
            self._insert(key, len(uids), uids, None)

    def solver(self, key, s, t):
        """(odd unknowns, solve, kept) of system key of maps s -> t, or None
        when it has no solver: never met, or too heavy.  kept says whether
        the solver was kept before the call; a marker's is built here.  The
        entry becomes the most recently used."""
        entry = self.entries.get(key)
        if entry is None or entry[2] is False:
            return None
        self.entries.move_to_end(key)
        weight, uids, solve = entry
        if solve is not None:
            return uids, solve, True
        del self.entries[key]
        self.weight -= weight
        solve, size = linalg.solver(
            _equations(uids, _Stencils(s, t)), len(uids), s.field)
        if weight + size > _KEPT_WEIGHT:
            self._insert(key, weight, uids, False)
        else:
            self._insert(key, weight + size, uids, solve)
        return uids, solve, False

    def _insert(self, key, weight, uids, solve):
        if weight > _KEPT_WEIGHT:
            return
        self.entries[key] = weight, uids, solve
        self.weight += weight
        while self.weight > _KEPT_WEIGHT:
            self.weight -= self.entries.popitem(last=False)[1][0]


_kept_systems = _KeptSystems()


def solve_null_homotopy(phi, bound=None):
    """Returns (homotopy or None, definitive flag).

    Between graded factorizations the answer is always definitive
    (``_null_homotopy_graded``); otherwise the search is bounded by total
    entry degree and only a found witness is definitive.
    """
    if _graded(phi.source, phi.target):
        return _null_homotopy_graded(phi)
    if bound is None:
        raise UsageError(
            "null-homotopy search without a grading needs an explicit bound"
        )
    return _null_homotopy_bounded(phi, bound)


def _null_homotopy_graded(phi):
    """(homotopy, True) or (None, True): entry degrees are forced, so each
    degree d of phi is one finite system in the degree-d odd unknowns.

    First, one kept-solver attempt.  When ``_kept_systems`` has a solver
    for phi's declared degree, kept or built now from the marker of a
    first sighting, all of phi's coordinates are substituted (its E rows
    read only the coordinates of that degree), and the homotopy found is
    returned if it bounds phi.  Nothing else is looked at then: no degree
    split, no assembly.  A fast answer is always a checked witness, never
    a "no".

    Otherwise, one exact path: phi is split by degree and each degree's
    system is assembled and solved exactly, once.  No solution in some
    degree is the answer "no".  In the declared degree, where a solver was
    tried, a solution other than the solver's raises MfcatError, and that
    degree's system is the only one marked.  The witness is checked to
    bound phi.
    """
    s, t = phi.source, phi.target
    if phi.is_zero():
        return Homotopy(
            s, t,
            PolyMatrix.zero(t.m1.rank, s.m0.rank, s.nvars, s.field),
            PolyMatrix.zero(t.m0.rank, s.m1.rank, s.nvars, s.field),
            phi.degree,
        ), True
    key = _untwisted(s), _untwisted(t), phi.degree
    found = _kept_systems.solver(key, s, t)
    tried = None
    if found is not None:
        uids, solve, kept = found
        tried = solve(dict(_coordinates(phi)))
        h = _homotopy(phi, [(uids[col], c) for col, c in tried.items()])
        if h.bounds(phi):
            _kept_systems.hits += kept
            return h, True
    prob = HomProblem(s, t)
    pieces = []
    for d, rhs in sorted(_even_coordinates(phi, prob.offset).items()):
        support = _graded_support(s.weights, prob.offset, d)
        if any(uid[3] not in support(uid[:3]) for uid in rhs):
            raise MfcatError("morphism entry outside its degree space")
        pieces.append((d, rhs, support))
    coords = []
    for d, rhs, support in pieces:
        uids = tuple(_unknowns(prob.odd_slots, support))
        if d == phi.degree:
            _kept_systems.mark(key, uids)
        sol = _solve(_equations(uids, prob.stencils), rhs, len(uids), s.field)
        if sol is None:
            return None, True
        if d == phi.degree and tried is not None and sol != tried:
            raise MfcatError("kept null-homotopy solver missed a witness")
        coords.extend((uids[col], c) for col, c in sol.items())
    h = _homotopy(phi, coords)
    _check_boundary(h, phi, "homotopy solver produced a wrong witness")
    return h, True


def _null_homotopy_bounded(phi, bound):
    s, t = phi.source, phi.target
    monos = monomials_up_to_total_degree(s.nvars, bound)
    uids = _unknowns(_slots(s, t, ODD), lambda slot: monos)
    rows = _equations(uids, _Stencils(s, t))
    sol = _solve(rows, dict(_coordinates(phi)), len(uids), s.field)
    if sol is None:
        return None, False
    h = _homotopy(phi, [(uids[col], c) for col, c in sol.items()])
    _check_boundary(h, phi, "homotopy solver produced a wrong witness")
    return h, True


def _homotopy(phi, coords):
    """The odd map of phi's degree with the nonzero coordinates coords,
    ((kind, i, j, e), c) pairs."""
    s, t = phi.source, phi.target
    t0, t1 = _slot_matrices(s, t, ODD, coords)
    return Homotopy(source=s, target=t, t0=t0, t1=t1, degree=phi.degree)


def find_homotopy(phi, bound=None):
    """A homotopy bounding phi, or None.

    In the graded case None is a certificate of non-existence (the entry
    degrees are forced, so the search is exhaustive).  Without a grading,
    None only means nothing was found within the bound; use
    is_null_homotopic for the three-valued answer.
    """
    return solve_null_homotopy(phi, bound)[0]


def is_null_homotopic(phi, bound=None):
    """True, False (certified), or None (window-truncated unknown)."""
    h, definitive = solve_null_homotopy(phi, bound)
    if h is not None:
        return True
    return False if definitive else None


def is_contractible(mf, bound=None):
    """True, False (certified), or None (window-truncated unknown).

    Graded, it is decided by the constant terms alone (``_nakayama``);
    without a grading, by a null-homotopy of the identity searched within
    the bound."""
    if mf.weights is not None:
        return _nakayama(mf)
    return is_null_homotopic(MfMorphism.identity(mf), bound)


def _nakayama(mf):
    """Whether the graded factorization mf is contractible: exactly when
    rank p0(0) + rank p1(0) = rank m0, with p(0) the matrix of constant
    terms.  The ranks are exact (``linalg.rank``), so True and False are
    both certified, and no null-homotopy is solved.  With positive
    weights, in three steps (Eisenbud, Trans. AMS 260, 1980, section 6):

    1. An entry of weighted degree 0 is a constant, and a nonzero constant
       is a unit.  A graded isomorphism g has det g(0) != 0, so the ranks
       of p0(0) and p1(0) do not change under it.
    2. A unit entry of p0 or p1 splits off, by graded row and column
       operations, a brick (c | W/c) or its shift; repeated until no
       constant is left, X = X_red + bricks, with every entry of X_red in
       the maximal ideal m.  W/c lies in m, so each brick adds exactly
       one to rank p0(0) + rank p1(0), and X_red adds nothing.
    3. A brick is contractible.  X_red != 0 is not: for any odd h, dh + hd
       has every entry in m, and the identity does not (graded Nakayama).
       So X is contractible iff X_red = 0, iff the bricks, one generator
       of m0 each, fill m0.
    """
    return (_constant_rank(mf.p0, mf.field) + _constant_rank(mf.p1, mf.field)
            == mf.m0.rank)


def _constant_rank(mat, field):
    """The exact rank of the matrix of constant terms of mat."""
    zero = (0,) * mat.nvars
    rows = [{j: f.terms[zero] for j, f in enumerate(row) if zero in f.terms}
            for row in mat.entries]
    return linalg.rank(rows, mat.ncols, field)


def hom_complex_differential(x):
    """The differential of the two-periodic morphism complex.

    Takes an even map to an odd one and vice versa; applying it twice
    gives zero exactly, whether or not the input commutes with the
    structure maps.
    """
    if isinstance(x, MfMorphism):
        s, t = x.source, x.target
        return Homotopy(
            source=s,
            target=t,
            t0=t.p0 @ x.f0 - x.f1 @ s.p0,
            t1=t.p1 @ x.f1 - x.f0 @ s.p1,
            degree=x.degree,
        )
    return x.boundary()


@dataclass(frozen=True)
class HomotopyEquivalence:
    inverse: MfMorphism
    source_homotopy: Homotopy  # bounds id - inverse after forward
    target_homotopy: Homotopy  # bounds id - forward after inverse


def homotopy_equivalence_data(phi, bound=None):
    """Homotopy inverse with both correcting homotopies, or None.

    phi: s -> t is an equivalence exactly when its cone C is contractible,
    that is when id_C is null-homotopic, and all three are read off one
    null-homotopy H of id_C (``solve_null_homotopy``), so in the graded
    case the answer is decided exactly.  Graded, a cone that is not
    contractible by its constant terms (``_nakayama``) is None at once,
    with no solve.  With p and q the structure maps
    of s and t and f those of phi, C0 = t0 + s1 and C1 = t1 + s0, with
    c0 = [[q0, f1], [0, -p1]] and c1 = [[q1, f0], [0, -p0]].  In blocks
    (rows, columns),

        H0 = [[A, B], [P0, E]]: C0 -> C1,  H1 = [[K, L], [P1, M]]: C1 -> C0,

    and dH = id_C, that is H1 c0 + c1 H0 = id on C0 and c0 H1 + H0 c1 = id
    on C1, reads block by block

        (t0, t0)  K q0 + q1 A = id - f0 P0
        (t1, t1)  q0 K + A q1 = id - f1 P1
        (s1, t0)  P1 q0 = p0 P0
        (s0, t1)  P0 q1 = p1 P1
        (s0, s0)  (-E) p0 + p1 (-M) = id - P0 f0
        (s1, s1)  p0 (-E) + (-M) p1 = id - P1 f1
        (t0, s1)  K f1 - L p1 + q1 B + f0 E = 0
        (t1, s0)  q0 L + f1 M + A f0 - B p0 = 0

    So psi = (P0, P1) is a chain map t -> s of degree -phi.degree, (A, K)
    bounds id_t - phi psi and (-M, -E) bounds id_s - psi phi; B and L, the
    coherence between the two homotopies, are dropped.  The check that
    ``solve_null_homotopy`` runs on H certifies all eight equations at
    once.  Without a grading the bound applies to every block of H.
    """
    s, t = phi.source, phi.target
    graded = _graded(s, t)
    if not graded and bound is None:
        raise UsageError(
            "equivalence check without a grading needs an explicit bound"
        )
    c = cone_factorization(phi)
    if graded and not _nakayama(c):
        return None
    if not graded:
        c = replace(c, weights=None, validate=False)
    h, _ = solve_null_homotopy(MfMorphism.identity(c), bound)
    if h is None:
        return None
    (a, _), (psi0, e) = unstack(h.t0, (t.m1.rank, s.m0.rank),
                                (t.m0.rank, s.m1.rank))
    (k, _), (psi1, m) = unstack(h.t1, (t.m0.rank, s.m1.rank),
                                (t.m1.rank, s.m0.rank))
    psi = MfMorphism(t, s, psi0, psi1, degree=-phi.degree, validate=False)
    hs = Homotopy(s, s, -m, -e, degree=0)
    ht = Homotopy(t, t, a, k, degree=0)
    _check_boundary(hs, MfMorphism.identity(s) - psi @ phi,
                    "equivalence solver produced a wrong source homotopy")
    _check_boundary(ht, MfMorphism.identity(t) - phi @ psi,
                    "equivalence solver produced a wrong target homotopy")
    return HomotopyEquivalence(inverse=psi, source_homotopy=hs, target_homotopy=ht)


def is_homotopy_equivalence(phi, bound=None):
    """True, False (certified, graded case), or None (truncated).

    Graded, phi is an equivalence exactly when its cone is contractible,
    decided from the cone's constant terms (``_nakayama``); without a
    grading, by the bounded search of ``homotopy_equivalence_data``."""
    if _graded(phi.source, phi.target):
        return _nakayama(cone_factorization(phi))
    return None if homotopy_equivalence_data(phi, bound) is None else True


def random_chain_map(source, target, degree=0, rng=None):
    """A reproducible chain map: an rng-weighted combination of a basis of
    the degree-d cycle space, one draw per basis vector in basis order.
    Zero when that space is zero.  The basis is the one the pair's kept
    complex holds (``_rank_table``, ``_KeptComplex.cycle_basis``), so every
    character twist of the pair shares it and it is eliminated once."""
    import random as _random

    if rng is None:
        rng = _random.Random(20240901)
    uids, basis = _rank_table(_untwisted(source), _untwisted(target)).cycle_basis(degree)
    if not basis:
        return MfMorphism.zero(source, target, degree)
    field = source.field
    combo = {}
    coeffs = [rng.randint(-3, 3) for _ in basis]
    if not any(coeffs):
        coeffs[0] = 1
    for c, vec in zip(coeffs, basis):
        if c == 0:
            continue
        fc = field.coerce(c)
        for col, v in vec.items():
            cur = combo.get(col)
            nv = field.coerce(fc * v if cur is None else cur + fc * v)
            if nv:
                combo[col] = nv
            elif cur is not None:
                del combo[col]
    f0, f1 = _slot_matrices(source, target, EVEN,
                            ((uids[col], c) for col, c in combo.items()))
    return MfMorphism(source, target, f0, f1, degree, validate=False)


def truncated_hom_space(source, target, bound):
    """Hom dimensions with entries bounded in total degree; never certified.

    Cycles are genuine chain maps with bounded entries.  Boundaries are
    counted as combinations of bounded homotopies whose image stays inside
    the bounded coordinate space, so the quotient is exact on that space.
    """
    s, t = source, target
    field = s.field
    monos = monomials_up_to_total_degree(s.nvars, bound)
    stencils = _Stencils(s, t)
    even_uids = _unknowns(_slots(s, t, EVEN), lambda slot: monos)
    ncols = len(even_uids)
    zrows = list(_equations(even_uids, stencils).values())
    zdim = ncols - linalg.rank(zrows, ncols, field)
    # boundaries, tracked in an extended coordinate space
    ext_index = {u: k for k, u in enumerate(even_uids)}
    odd_uids = _unknowns(_slots(s, t, ODD), lambda slot: monos)
    b_full = [v for v in _images(odd_uids, stencils, ext_index) if v]
    b_overflow = []
    for full in b_full:
        ov = {c: v for c, v in full.items() if c >= ncols}
        if ov:
            b_overflow.append(ov)
    next_total = len(ext_index)
    bdim = linalg.rank(b_full, next_total, field) - linalg.rank(
        b_overflow, next_total, field
    )
    hdim = zdim - bdim
    return HomSpace(
        source=source,
        target=target,
        window=(0, bound),
        per_degree=(DegreeData(0, zdim, bdim, hdim, ()),),
        total=hdim,
        certified=False,
    )
