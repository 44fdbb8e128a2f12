"""Cokernel modules over the hypersurface ring.

A factorization (p0, p1) of W presents the module coker(p1) over the
quotient by W.  This module implements that functor, the induced maps on
cokernels, lifting module maps back to chain maps, per-degree exactness
reports for the associated short exact sequence, and stable hom spaces.

Morphism spaces of the singularity category are computed only through
the factorization model; no independent construction of the Verdier
quotient is attempted here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .errors import GradingError, MfcatError, UsageError
from .factorization import MatrixFactorization, MfMorphism, trivial_brick
from .homotopy import (
    _equations,
    _graded_support,
    _images,
    _require_shared_grading,
    _slot_matrices,
    _slot_offsets,
    _slots,
    _solve,
    _unknowns,
    hom_space,
    solve_null_homotopy,
)
from .matrices import PolyMatrix, block, products_equal
from .poly import monomials_of_weighted_degree, monomials_up_to_total_degree


@dataclass(frozen=True)
class HypersurfaceModule:
    """coker(p1), a module over the ambient ring modulo W.

    The presentation is the literal p1, never minimized.  W annihilates
    the cokernel with p0 as the constructive witness: p1 @ p0 = W times
    the identity, so W times every generator lies in the column span of
    the presentation.
    """

    factorization: MatrixFactorization

    def __post_init__(self):
        report = self.factorization.verify()
        if not report["ok"]:
            raise MfcatError(
                "cannot take the cokernel of an invalid factorization: "
                + "; ".join(report["problems"][:4])
            )

    @property
    def W(self):
        return self.factorization.W

    @property
    def presentation(self):
        return self.factorization.p1

    @property
    def annihilation_witness(self):
        return self.factorization.p0

    @property
    def rank(self):
        """Number of generators (not a minimal number)."""
        return self.factorization.m0.rank

    @property
    def generator_degrees(self):
        return self.factorization.m0.degrees

    @property
    def generator_chars(self):
        return self.factorization.m0.chars

    def to_json(self):
        data = {
            "presentation": self.presentation.to_json(),
            "annihilation_witness": self.annihilation_witness.to_json(),
            "W": self.W.to_json(),
            "generator_degrees": list(self.generator_degrees),
        }
        if self.generator_chars is not None:
            data["generator_chars"] = [list(c) for c in self.generator_chars]
        return data


def cok(mf):
    """The cokernel module of a factorization."""
    return HypersurfaceModule(mf)


def cok_g(structure):
    """Equivariant cokernel: generators keep their characters.

    Accepts an equivariant structure, or directly a factorization whose
    modules carry characters.
    """
    mf = getattr(structure, "factorization", structure)
    if mf.m0.chars is None:
        raise UsageError("equivariant cokernel needs generator characters")
    return HypersurfaceModule(mf)


@dataclass(frozen=True)
class CokMorphism:
    """A map of cokernel modules, recorded on generators.

    The matrix is taken modulo the target presentation; no normal form
    is computed, so equality of maps is not decidable from this data
    alone (compare via lift_module_map or hom spaces instead).
    """

    source: HypersurfaceModule
    target: HypersurfaceModule
    matrix: PolyMatrix
    degree: int = 0


def cok_morphism(phi):
    """The map induced on cokernels by a chain map: its even part."""
    if not phi.is_chain_map():
        raise UsageError("only chain maps induce maps on cokernels")
    return CokMorphism(
        source=HypersurfaceModule(phi.source),
        target=HypersurfaceModule(phi.target),
        matrix=phi.f0,
        degree=phi.degree,
    )


def lift_module_map(source, target, matrix, degree=0, bound=None):
    """Lift a generator-level module map to a chain map.

    Solves q1 @ X = matrix @ p1 for the odd part X; the even chain-map
    identity then holds automatically because q1 is injective.  Returns
    (morphism, True) when a lift exists, (None, True) when provably none
    does (graded case: the finitely many feasible entry degrees are
    exhausted, so failure also certifies that matrix is not a map of
    cokernels), and (None, False) when only a truncated search ran.
    """
    p = source.factorization
    q = target.factorization
    if p.W != q.W:
        raise UsageError("modules live over different potentials")
    if matrix.nrows != q.m0.rank or matrix.ncols != p.m0.rank:
        raise UsageError("generator matrix has the wrong shape")
    graded = p.weights is not None and q.weights is not None
    if graded:
        _require_shared_grading(p, q)
    if not graded and bound is None:
        raise UsageError("ungraded lift needs an explicit degree bound")
    if graded:
        support = _graded_support(p.weights, _slot_offsets(p, q), degree)
    else:
        monos = monomials_up_to_total_degree(p.nvars, bound)

        def support(slot):
            return monos

    slots = _slots(p, q, ("e1",))
    uids = _unknowns(slots, support)
    # X in slot (i, j) meets q1 @ X at (r, j) through q1[r][i]
    stencils = {
        (kind, i, j): [
            (("e0", r, j), row[i].terms)
            for r, row in enumerate(q.p1.entries) if row[i].terms
        ]
        for kind, i, j in slots
    }
    rhs = {
        ("e0", r, c, e): v
        for r, row in enumerate((matrix @ p.p1).entries)
        for c, poly in enumerate(row)
        for e, v in poly.terms.items()
    }
    sol = _solve(_equations(uids, stencils), rhs, len(uids), p.field)
    if sol is None:
        return None, graded
    x, = _slot_matrices(p, q, ("e1",), ((uids[col], c) for col, c in sol.items()))
    phi = MfMorphism(source=p, target=q, f0=matrix, f1=x, degree=degree)
    return phi, True


@dataclass(frozen=True)
class DegreeExactness:
    degree: int
    domain_dim: int
    rank: int
    target_dim: int
    cokernel_dim: int

    @property
    def injective(self):
        return self.rank == self.domain_dim


@dataclass(frozen=True)
class TwoPeriodicityReport:
    """Per-degree exactness data for 0 -> P1 -> P0 -> coker -> 0.

    Injectivity of p1 holds in every degree, not only the inspected
    ones, because p1 @ p0 = W id with W nonzero; `certified` records
    that this witness was checked.  The per-degree table makes the
    statement explicit over the requested window.
    """

    window: tuple
    per_degree: tuple
    exact: bool
    certified: bool

    def to_json(self):
        return {
            "window": [self.window[0], self.window[1]],
            "per_degree": [
                {
                    "d": p.degree,
                    "domain": p.domain_dim,
                    "rank": p.rank,
                    "target": p.target_dim,
                    "injective": p.injective,
                    "cokernel": p.cokernel_dim,
                }
                for p in self.per_degree
            ],
            "exact": self.exact,
            "certified": self.certified,
        }


def two_periodicity_check(mf, window=None):
    """Exactness of the presentation sequence, degree by degree.

    The window is a (lo, hi) pair of degrees of the middle term, or an
    integer span above the least possible generator degree, or None for
    a span derived from the grading data.
    """
    if mf.weights is None:
        raise GradingError("two-periodicity report needs a grading")
    rep = mf.verify()
    if not rep["ok"]:
        raise MfcatError("factorization does not verify: " + "; ".join(rep["problems"][:4]))
    weights = mf.weights
    dd = weights.degree
    a = mf.split_degree
    if a is None:
        a = 0
    h0 = mf.m0.degrees
    h1 = mf.m1.degrees
    lo0 = min(list(h0) + [g + (dd - a) for g in h1])
    if window is None:
        span = weights.socle_bound() + max(list(h0) + list(h1)) - min(list(h0) + list(h1))
        window = (lo0, lo0 + max(span, dd))
    elif isinstance(window, int):
        window = (lo0, lo0 + window)
    lo, hi = window
    w = weights.weights
    # the unknowns of slot (j,) are the degree-d piece of P1's j-th summand
    stencils = {
        (j,): [((i,), row[j].terms) for i, row in enumerate(mf.p1.entries)
               if row[j].terms]
        for j in range(mf.m1.rank)
    }
    per = []
    all_inj = True
    for d in range(lo, hi + 1):
        index = {u: k for k, u in enumerate(_unknowns(
            [(i,) for i in range(mf.m0.rank)],
            lambda slot: monomials_of_weighted_degree(w, d - h0[slot[0]])))}
        nrows = len(index)
        uids = _unknowns(list(stencils), lambda slot: monomials_of_weighted_degree(
            w, d - (dd - a) - h1[slot[0]]))
        piece = _images(uids, stencils, index)
        if len(index) != nrows:
            raise MfcatError("graded piece fell outside its degree")
        ncols = len(uids)
        # rank of the degree-d piece of p1: reduce its columns as rows
        r = linalg.rank([col for col in piece if col], nrows, mf.field)
        per.append(
            DegreeExactness(
                degree=d,
                domain_dim=ncols,
                rank=r,
                target_dim=nrows,
                cokernel_dim=nrows - r,
            )
        )
        if r != ncols:
            all_inj = False
    witness = products_equal([(mf.p1, mf.p0)], PolyMatrix.scalar(mf.W, mf.m1.rank))
    return TwoPeriodicityReport(
        window=(lo, hi),
        per_degree=tuple(per),
        exact=all_inj,
        certified=witness and not mf.W.is_zero(),
    )


def stable_hom(source, target, shift=0, window=None):
    """Morphisms in the singularity category, through the factorization model.

    Computes the hom space from source's factorization to the shift of
    target's, and reads it as stable module homomorphisms under the
    cokernel equivalence.  Both shifts read the kept ranks of the one
    pair of factorizations (``hom_space``).
    """
    return hom_space(source.factorization, target.factorization, window,
                     shift=shift)


def stable_hom_g(e_source, e_target, shift=0, window=None, twist_char=None):
    """Equivariant stable hom via the equivariant factorization model."""
    from .equivariant import EquivariantStructure, equivariant_hom_space

    if shift not in (0, 1):
        raise UsageError("shift must be 0 or 1")
    tgt = e_target
    if shift:
        tgt = EquivariantStructure(
            e_target.factorization.shift(), e_target.action, validate=False
        )
    return equivariant_hom_space(e_source, tgt, window, twist_char=twist_char)


@dataclass(frozen=True)
class BrickDecomposition:
    """A null-homotopic map written as a passage through the brick.

    into_brick follows phi's homotopy data into the contractible double
    of the target; from_brick is the projection back.  Their composite
    is exactly phi, and both are chain maps, which is the factorization
    through a free-cokernel object that kills phi in the singularity
    category.
    """

    brick: MatrixFactorization
    into_brick: MfMorphism
    from_brick: MfMorphism

    def composite(self):
        return self.from_brick @ self.into_brick


# Targets whose brick and checked projection are kept; a target is one
# factorization, and one witness-certify pass meets 35.
_BRICK_PROJECTIONS = 64


@lru_cache(maxsize=_BRICK_PROJECTIONS)
def _brick_projection(t):
    """(trivial_brick(t), the projection from it onto t), the projection
    built with validate=True: a checked chain map of degree a_t."""
    r0, r1 = (t.m1.rank, t.m0.rank), (t.m0.rank, t.m1.rank)
    brick = trivial_brick(t)
    v = MfMorphism(
        source=brick,
        target=t,
        f0=block([[0, 1]], (t.m0.rank,), r0, t.nvars, t.field),
        f1=block([[0, 1]], (t.m1.rank,), r1, t.nvars, t.field),
        degree=t.split_degree or 0,
    )
    return brick, v


def homotopy_decomposition(phi, homotopy=None, bound=None):
    """Factor a null-homotopic chain map through the target's brick.

    When no homotopy is supplied one is searched for; failure to find
    one raises, since the decomposition only exists for null-homotopic
    maps.  A supplied homotopy must bound phi exactly.

    The brick and the projection v from it depend on the target alone:
    they are built, v checked as a chain map, once per target and kept
    (``_brick_projection``, at most _BRICK_PROJECTIONS targets).  The map
    u into the brick is checked on every call, and so is v @ u == phi,
    both in the product kernel (``matrices.products_equal``).
    """
    s, t = phi.source, phi.target
    if homotopy is None:
        homotopy, definitive = solve_null_homotopy(phi, bound)
        if homotopy is None:
            if definitive:
                raise UsageError("map is not null-homotopic")
            raise UsageError(
                "no null-homotopy found within the bound; pass a larger one"
            )
    elif not homotopy.bounds(phi):
        raise UsageError("supplied homotopy does not bound the map")
    brick, v = _brick_projection(t)
    r0, r1 = (t.m1.rank, t.m0.rank), (t.m0.rank, t.m1.rank)
    u = MfMorphism(
        source=s,
        target=brick,
        f0=block([[homotopy.t0], [phi.f0]], r0, (s.m0.rank,), s.nvars, s.field),
        f1=block([[homotopy.t1], [phi.f1]], r1, (s.m1.rank,), s.nvars, s.field),
        degree=phi.degree - v.degree,
    )
    if not (u.target == v.source and u.source == s and v.target == t
            and u.degree + v.degree == phi.degree
            and products_equal([(v.f0, u.f0)], phi.f0)
            and products_equal([(v.f1, u.f1)], phi.f1)):
        raise MfcatError("brick decomposition failed to recompose the map")
    return BrickDecomposition(brick=brick, into_brick=u, from_brick=v)


def brick_presentation_normal_form(q):
    """Unimodular row and column operations splitting the brick's presentation.

    Returns (S, C, N) with S @ b1 @ C = N = [[0, id], [W id, 0]] in the
    brick's block layout.  N presents the free module on the even
    generators of q modulo W, which is the explicit isomorphism between
    the brick's cokernel and that free module.
    """
    nvars, field = q.nvars, q.field
    r0, r1 = (q.m1.rank, q.m0.rank), (q.m0.rank, q.m1.rank)
    brick = trivial_brick(q)
    s_mat = block([[1, 0], [-q.p1, 1]], r0, r0, nvars, field)
    c_mat = block([[1, 0], [q.p0, 1]], r1, r1, nvars, field)
    n_mat = s_mat @ brick.p1 @ c_mat
    w_id0 = PolyMatrix.scalar(q.W, q.m0.rank)
    expected = block([[0, 1], [w_id0, 0]], r0, r1, nvars, field)
    if n_mat != expected:
        raise MfcatError("brick normal form did not come out as expected")
    return s_mat, c_mat, n_mat
