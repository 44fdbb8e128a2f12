"""Morphism spaces in the homotopy category of factorizations.

Everything here reduces to exact linear algebra.  With a quasi-homogeneous
potential, an internal degree pins every matrix entry of a chain map or a
homotopy to a finite set of monomials, so each question (dimension of the
degree-d hom space, existence of a null-homotopy, existence of a homotopy
inverse) becomes a finite linear system over the coefficient field.

Certification policy: an answer is marked certified only when the claim
rests on an exhaustively enumerated degree set.  A found witness is always
definitive.  Nonexistence is definitive in the graded case, where entry
degrees are forced.  Totals over a degree window are certified only for a
quasi-homogeneous potential with isolated critical point and a window
containing the default one; everything else is reported window-truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import linalg
from .errors import GradingError, MfcatError, UsageError
from .factorization import Homotopy, MatrixFactorization, MfMorphism
from .matrices import PolyMatrix
from .poly import (
    Polynomial,
    monomials_of_weighted_degree,
    monomials_up_to_total_degree,
)


def _eadd(a, b):
    return tuple(map(add, a, b))


@lru_cache(maxsize=None)
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
    grads = [W.partial(i) for i in range(W.nvars)]
    sb = weights.socle_bound()
    maxw = max(weights.weights)
    field = W.field
    for d in range(sb + 1, sb + maxw + 1):
        cols = monomials_of_weighted_degree(weights.weights, d)
        if not cols:
            continue
        col_index = {e: k for k, e in enumerate(cols)}
        rows = []
        for i, g in enumerate(grads):
            if g.is_zero():
                continue
            md = d - (weights.degree - weights.weights[i])
            for m in monomials_of_weighted_degree(weights.weights, md):
                row = {}
                for e2, c in g.terms.items():
                    row[col_index[_eadd(m, e2)]] = c
                rows.append(row)
        if linalg.rank(rows, len(cols), field) < len(cols):
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


def _terms(poly, negate=False):
    return {e: -c for e, c in poly.terms.items()} if negate else poly.terms


def _differential(s, t, kind, i, j, tag=()):
    """Where hom_complex_differential sends a monomial m in slot (i, j) of a
    map s -> t of the given kind: D(x) = p_t x - (-1)^|x| x p_s.

    Returns (head, terms) pairs, heads in the order of their slot kinds.
    A head is tag + (kind, row, column) of a slot of D(x); m contributes
    c to coordinate head + (m * m2,) for each m2: c in terms.  The heads
    are distinct, so an unknown meets each equation at most once.
    """
    p, q = _PARITY[kind]
    after = (t.p0, t.p1)[p].entries  # Q_p -> Q_(1-p)
    before = (s.p1, s.p0)[q].entries[j]  # P_(1-q) -> P_q
    head = tag + (_KIND[1 - p, q],)
    left = [
        (head + (a, j), _terms(row[i])) for a, row in enumerate(after)
        if row[i].terms
    ]
    head = tag + (_KIND[p, 1 - q], i)
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


class HomProblem:
    """Per-degree linear systems for maps between two fixed factorizations.

    Unknown ids are (kind, i, j, exponent) with kind "e0"/"e1" for the even
    components and "t0"/"t1" for the odd ones.  Blocks are cached per
    degree, so repeated queries (windows, character filters) stay cheap.
    """

    def __init__(self, source, target):
        if source.W != target.W:
            raise UsageError("objects factor different potentials")
        if source.weights is None or source.weights != target.weights:
            raise GradingError("graded computations need a shared weight system")
        self.source = source
        self.target = target
        self.ws = source.weights
        self._even_slots = _slots(source, target, EVEN)
        self._odd_slots = _slots(source, target, ODD)
        self._offset = _slot_offsets(source, target)
        self._stencils = _Stencils(source, target)
        self._blocks = {}

    def degree_block(self, d):
        blk = self._blocks.get(d)
        if blk is not None:
            return blk
        w = self.ws.weights
        offset = self._offset

        def support(slot):
            return monomials_of_weighted_degree(w, d + offset[slot])

        even_uids = tuple(_unknowns(self._even_slots, support))
        even_index = {u: k for k, u in enumerate(even_uids)}
        odd_uids = tuple(_unknowns(self._odd_slots, support))
        zrows = tuple(_equations(even_uids, self._stencils).values())
        index = dict(even_index)
        dvecs = tuple(_images(odd_uids, self._stencils, index))
        if len(index) != len(even_index):
            raise MfcatError(
                "internal degree bookkeeping violation at %r"
                % (list(index)[len(even_index)],)
            )
        blk = _Block(even_uids, even_index, zrows, odd_uids, dvecs)
        self._blocks[d] = blk
        return blk


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


@lru_cache(maxsize=None)
def _certified_potential(W, weights):
    try:
        return has_isolated_singularity(W, weights)
    except GradingError:
        return False


def hom_space(source, target, window=None, *, problem=None, even_keep=None,
              odd_keep=None, want_reps=True):
    """Morphism space of the homotopy category, degree by degree.

    Per-degree numbers are exact.  The certified flag asserts that the
    window provably contains all degrees with nonzero classes, which we
    claim only for isolated quasi-homogeneous potentials with a window at
    least the default one.
    """
    if source.weights is None or target.weights is None:
        raise GradingError(
            "hom spaces need a weight system; use truncated_hom_space instead"
        )
    prob = problem if problem is not None else HomProblem(source, target)
    dflt = default_window(source, target)
    lo, hi = dflt if window is None else (int(window[0]), int(window[1]))
    certified = (
        lo <= dflt[0]
        and hi >= dflt[1]
        and _certified_potential(source.W, source.weights)
    )
    field = source.field
    per_degree = []
    total = 0
    for d in range(lo, hi + 1):
        blk = prob.degree_block(d)
        uids = blk.even_uids
        zrows = blk.zrows
        dvecs = blk.dvecs
        if even_keep is not None or odd_keep is not None:
            if even_keep is None:
                even_keep = lambda u: True
            kept = [k for k, u in enumerate(uids) if even_keep(u)]
            remap = {old: new for new, old in enumerate(kept)}
            uids = tuple(blk.even_uids[k] for k in kept)
            zrows = []
            for row in blk.zrows:
                nr = {remap[c]: v for c, v in row.items() if c in remap}
                if nr:
                    zrows.append(nr)
            dvecs = []
            for u, vec in zip(blk.odd_uids, blk.dvecs):
                if odd_keep is not None and not odd_keep(u):
                    continue
                nv = {}
                for c, v in vec.items():
                    nc = remap.get(c)
                    if nc is None:
                        raise MfcatError(
                            "boundary leaves the filtered coordinate space; "
                            "the filter is not compatible with the structure"
                        )
                    nv[nc] = v
                dvecs.append(nv)
        ncols = len(uids)
        if ncols == 0:
            continue
        if want_reps or any(dvecs):
            zdim, bdim = linalg.certified_dims(zrows, dvecs, ncols, field)
        else:
            # no boundaries, so B = 0 and Z_p == B_p is the full-rank test
            # that rank applies itself before its exact pass
            zdim, bdim = ncols - linalg.rank(zrows, ncols, field), 0
        reps = ()
        if want_reps and (zdim is None or bdim is None or zdim > bdim):
            # one exact elimination per side gives both dimensions
            null_basis = linalg.nullspace(zrows, ncols, field)
            zdim = len(null_basis)
            bdim, vecs = _quotient_representatives(null_basis, dvecs, field)
            if len(vecs) != zdim - bdim:
                raise MfcatError("representative count disagrees with dimension")
            reps = tuple(
                _vector_to_morphism(source, target, uids, v, d) for v in vecs
            )
        else:
            if zdim is None:
                zdim = ncols - linalg.rank(zrows, ncols, field)
            if bdim is None:
                bdim = linalg.rank(dvecs, ncols, field)
        hdim = zdim - bdim
        if zdim == 0 and bdim == 0:
            continue
        per_degree.append(DegreeData(d, zdim, bdim, hdim, reps))
        total += hdim
    return HomSpace(
        source=source,
        target=target,
        window=(lo, hi),
        per_degree=tuple(per_degree),
        total=total,
        certified=certified,
    )


def _quotient_representatives(null_basis, boundary_rows, field):
    """(number of independent boundary rows, the vectors of null_basis that
    are independent modulo the boundary span)."""
    acc = []

    def reduce_add(vec):
        r = dict(vec)
        for pcol, prow in acc:
            f = r.get(pcol)
            if f is not None:
                for c, v in prow.items():
                    cur = r.get(c)
                    nv = (cur - f * v) if cur is not None else -(f * v)
                    if nv:
                        r[c] = nv
                    elif cur is not None:
                        del r[c]
        if not r:
            return False
        pcol = min(r)
        piv = r[pcol]
        acc.append((pcol, {c: v / piv for c, v in r.items()}))
        return True

    bdim = sum(map(reduce_add, boundary_rows))
    return bdim, [v for v in null_basis if reduce_add(v)]


def _poly_matrix(tab, nrows, ncols, nvars, field):
    return PolyMatrix(
        nrows, ncols, nvars, field,
        tuple(
            tuple(Polynomial(nvars, tab[i][j], field) for j in range(ncols))
            for i in range(nrows)
        ),
    )


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


def _vector_to_morphism(source, target, uids, vec, degree):
    f0, f1 = _slot_matrices(
        source, target, EVEN, ((uids[col], c) for col, c in vec.items()))
    return MfMorphism(
        source=source, target=target, f0=f0, f1=f1, degree=degree,
        validate=False,
    )


def _check_boundary(h, f0, f1, message):
    """Raise MfcatError(message) unless h bounds the map (f0, f1)."""
    bd = h.boundary()
    if not ((bd.f0 - f0).is_zero() and (bd.f1 - f1).is_zero()):
        raise MfcatError(message)


def _coordinates(phi):
    """The nonzero coordinates ((kind, i, j, e), c) of an even map."""
    for kind, f in zip(EVEN, (phi.f0, phi.f1)):
        for i, row in enumerate(f.entries):
            for j, poly in enumerate(row):
                for e, c in poly.terms.items():
                    yield (kind, i, j, e), c


def _even_coordinates(phi, prob):
    """Split a morphism into homogeneous pieces in unknown coordinates.

    Returns {hom_degree: {even_uid: coeff}}.
    """
    wdeg = prob.ws.wdeg
    offset = prob._offset
    pieces = {}
    for uid, c in _coordinates(phi):
        d = wdeg(uid[3]) - offset[uid[:3]]
        pieces.setdefault(d, {})[uid] = c
    return pieces


def _graded(s, t):
    return (s.weights is not None and t.weights is not None
            and s.weights == t.weights)


def solve_null_homotopy(phi, bound=None):
    """Returns (homotopy or None, definitive flag)."""
    if _graded(phi.source, phi.target):
        return _null_homotopy_graded(phi)
    if bound is None:
        raise UsageError(
            "null-homotopy search without a grading needs an explicit bound"
        )
    return _null_homotopy_bounded(phi, bound)


def _null_homotopy_graded(phi):
    s, t = phi.source, phi.target
    if phi.is_zero():
        return Homotopy(
            s, t,
            PolyMatrix.zero(t.m1.rank, s.m0.rank, s.nvars, s.field),
            PolyMatrix.zero(t.m0.rank, s.m1.rank, s.nvars, s.field),
            phi.degree,
        ), True
    prob = HomProblem(s, t)
    pieces = _even_coordinates(phi, prob)

    def systems():
        # one system per degree, in the even coordinates of its block
        for d, coords in sorted(pieces.items()):
            blk = prob.degree_block(d)
            rows = {}
            for odd_idx, vec in enumerate(blk.dvecs):
                for col, c in vec.items():
                    rows.setdefault(col, {})[odd_idx] = c
            rhs = {}
            for uid, c in coords.items():
                col = blk.even_index.get(uid)
                if col is None:
                    raise MfcatError("morphism entry outside its degree space")
                rhs[col] = c
            yield rows, rhs, blk.odd_uids

    return _solve_homotopy(phi, systems(), definitive=True)


def _null_homotopy_bounded(phi, bound):
    s, t = phi.source, phi.target
    monos = monomials_up_to_total_degree(s.nvars, bound)
    uids = _unknowns(_slots(s, t, ODD), lambda slot: monos)
    rows = _equations(uids, _Stencils(s, t))
    return _solve_homotopy(phi, [(rows, dict(_coordinates(phi)), uids)],
                           definitive=False)


def _solve_homotopy(phi, systems, definitive):
    """The homotopy bounding phi from (rows, rhs, uids) systems over
    disjoint unknowns, checked against phi; (None, definitive) as soon as
    one system has no solution."""
    s, t = phi.source, phi.target
    coords = []
    for rows, rhs, uids in systems:
        sol = _solve(rows, rhs, len(uids), s.field)
        if sol is None:
            return None, definitive
        coords.extend((uids[col], c) for col, c in sol.items())
    t0, t1 = _slot_matrices(s, t, ODD, coords)
    h = Homotopy(source=s, target=t, t0=t0, t1=t1, degree=phi.degree)
    _check_boundary(h, phi.f0, phi.f1, "homotopy solver produced a wrong witness")
    return h, True


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
    return is_null_homotopic(MfMorphism.identity(mf), bound)


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

    One joint linear system in the inverse and the two homotopies; in the
    graded case its solvability is decided exactly.
    """
    s, t = phi.source, phi.target
    if _graded(s, t):
        w = s.weights.weights

        def support(src, tgt, degree):
            offset = _slot_offsets(src, tgt)
            return lambda slot: monomials_of_weighted_degree(
                w, degree + offset[slot])

    else:
        if bound is None:
            raise UsageError(
                "equivalence check without a grading needs an explicit bound"
            )
        monos = monomials_up_to_total_degree(s.nvars, bound)

        def support(src, tgt, degree):
            return lambda slot: monos

    coords = _equivalence_system(phi, support)
    if coords is None:
        return None
    psi_f0, psi_f1 = _slot_matrices(t, s, EVEN, coords["a"])
    psi = MfMorphism(
        source=t, target=s, f0=psi_f0, f1=psi_f1,
        degree=-phi.degree, validate=False,
    )
    hs = Homotopy(s, s, *_slot_matrices(s, s, ODD, coords["b"]), degree=0)
    ht = Homotopy(t, t, *_slot_matrices(t, t, ODD, coords["c"]), degree=0)
    comp_s = psi @ phi
    ident_s = MfMorphism.identity(s)
    _check_boundary(hs, ident_s.f0 - comp_s.f0, ident_s.f1 - comp_s.f1,
                    "equivalence solver produced a wrong source homotopy")
    comp_t = phi @ psi
    ident_t = MfMorphism.identity(t)
    _check_boundary(ht, ident_t.f0 - comp_t.f0, ident_t.f1 - comp_t.f1,
                    "equivalence solver produced a wrong target homotopy")
    return HomotopyEquivalence(inverse=psi, source_homotopy=hs, target_homotopy=ht)


def _equivalence_system(phi, support):
    """Solve for an inverse psi: t -> s of phi: s -> t and homotopies on s
    and on t with D(hs) = id - psi phi and D(ht) = id - phi psi.

    Unknowns and equations carry the tag of their part: "a" for psi and
    its chain-map equations, "b" for End(s), "c" for End(t).  Returns
    {tag: [((kind, i, j, e), c), ...]} or None.
    """
    s, t = phi.source, phi.target
    field = s.field
    parts = (("a", t, s, EVEN, -phi.degree), ("b", s, s, ODD, 0),
             ("c", t, t, ODD, 0))
    uids = []
    stencils = {}
    for tag, src, tgt, kinds, degree in parts:
        slots = _slots(src, tgt, kinds)
        uids += [(tag,) + u for u in _unknowns(slots, support(src, tgt, degree))]
        for slot in slots:
            stencils[(tag,) + slot] = _differential(src, tgt, *slot, (tag,))
    # psi enters the b and c equations composed with phi
    for kind, f in zip(EVEN, (phi.f0, phi.f1)):
        for _, i, j in _slots(t, s, (kind,)):
            stencils["a", kind, i, j] += [
                (("b", kind, i, b), _terms(poly))
                for b, poly in enumerate(f.entries[j]) if poly.terms
            ] + [
                (("c", kind, a, j), _terms(row[i]))
                for a, row in enumerate(f.entries) if row[i].terms
            ]
    zero_e = (0,) * s.nvars
    rhs = {
        (tag, kind, i, i, zero_e): field.one
        for tag, mf in (("b", s), ("c", t))
        for kind, m in zip(EVEN, (mf.m0, mf.m1))
        for i in range(m.rank)
    }
    sol = _solve(_equations(uids, stencils), rhs, len(uids), field)
    if sol is None:
        return None
    coords = {"a": [], "b": [], "c": []}
    for col, c in sol.items():
        coords[uids[col][0]].append((uids[col][1:], c))
    return coords


def is_homotopy_equivalence(phi, bound=None):
    """True, False (certified, graded case), or None (truncated)."""
    data = homotopy_equivalence_data(phi, bound)
    if data is not None:
        return True
    return False if _graded(phi.source, phi.target) else None


def random_chain_map(source, target, degree=0, rng=None, problem=None):
    """A reproducible chain map: an rng-weighted combination of a basis of
    the degree-d cycle space.  Zero when that space is zero."""
    import random as _random

    if rng is None:
        rng = _random.Random(20240901)
    prob = problem if problem is not None else HomProblem(source, target)
    blk = prob.degree_block(degree)
    field = source.field
    basis = linalg.nullspace(list(blk.zrows), len(blk.even_uids), field)
    if not basis:
        return MfMorphism.zero(source, target, degree)
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
            nv = (cur + fc * v) if cur is not None else fc * v
            if nv:
                combo[col] = nv
            elif cur is not None:
                del combo[col]
    return _vector_to_morphism(source, target, blk.even_uids, combo, degree)


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
