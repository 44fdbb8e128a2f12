"""Hom spaces, null homotopies, contractibility, homotopy equivalences.

The graded solver is checked degree by degree against the dense oracle,
which enumerates monomials per matrix slot and row-reduces with its own
Gaussian elimination.
"""

import random
from fractions import Fraction

import pytest

import oracles as orc
import suites
from mfcat import (
    MfMorphism,
    PrimeField,
    PolyMatrix,
    WeightSystem,
    cone,
    direct_sum,
    elementary_factorization,
    find_homotopy,
    hom_space,
    is_contractible,
    is_null_homotopic,
    koszul_factorization,
    parse_poly,
    random_chain_map,
    solve_null_homotopy,
    trivial_brick,
    w_multiple_homotopy,
)
from mfcat.homotopy import (
    HomProblem,
    default_window,
    has_isolated_singularity,
    hom_complex_differential,
    homotopy_equivalence_data,
    is_homotopy_equivalence,
    truncated_hom_space,
)
from mfcat.matrices import vstack


def test_end_of_minimal_object():
    ws = WeightSystem((1,), 2)
    m = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), ws)
    hs = hom_space(m, m)
    assert hs.total == 1
    assert hs.certified
    assert hs.window == (0, 0)
    assert hs.dims_by_degree() == {0: 1}


def test_hom_space_against_oracle_quadric():
    q = suites.quadric()
    hs = hom_space(q, q)
    want = orc.hom_dims(orc.mf_to_data(q), orc.mf_to_data(q), -4, 4)
    assert want[-4]["H"] == 0 and want[4]["H"] == 0
    got = {pd["d"]: (pd["Z"], pd["B"], pd["H"]) for pd in hs.to_json()["per_degree"]}
    for d, v in want.items():
        if d in got:
            assert got[d] == (v["Z"], v["B"], v["H"]), d
        else:
            assert v["H"] == 0, d
    assert hs.total == sum(v["H"] for v in want.values()) == 2


def test_hom_space_against_oracle_mixed_pair():
    objs = suites.an_objects(5)
    s, t = objs[1], objs[3]
    hs = hom_space(s, t)
    total = orc.hom_total(orc.mf_to_data(s), orc.mf_to_data(t), -10, 10)
    assert hs.certified
    assert hs.total == total == 1


def test_isolated_singularity_detection():
    assert has_isolated_singularity(parse_poly("x1^2", 1), WeightSystem((1,), 2))
    assert has_isolated_singularity(
        parse_poly("x1^3+x2^3+x3^3", 3), WeightSystem((1, 1, 1), 3))
    # x^2 y^2 has a whole line of critical points
    assert not has_isolated_singularity(
        parse_poly("x1^2*x2^2", 2), WeightSystem((1, 1), 4))


def test_window_extension_keeps_certified_totals():
    q = suites.quadric()
    base = hom_space(q, q)
    lo, hi = base.window
    wider = hom_space(q, q, window=(lo - 3, hi + 3))
    assert wider.certified
    assert wider.total == base.total
    nonzero = {d: h for d, h in wider.dims_by_degree().items() if h}
    assert nonzero == {d: h for d, h in base.dims_by_degree().items() if h}


def test_random_chain_maps_are_chain_maps_and_deterministic():
    q = suites.quadric()
    maps = [random_chain_map(q, q, rng=random.Random(100 + i)) for i in range(20)]
    for phi in maps:
        assert phi.is_chain_map()
    again = [random_chain_map(q, q, rng=random.Random(100 + i)) for i in range(20)]
    assert maps == again
    # the default rng is seeded, so no-argument calls reproduce too
    assert random_chain_map(q, q) == random_chain_map(q, q)


def test_composites_with_cone_are_null_homotopic():
    objs = suites.an_objects(4)
    rng = random.Random(42)
    phi = random_chain_map(objs[1], objs[2], rng=rng)
    c = cone(phi)
    h, definitive = solve_null_homotopy(c.inclusion @ phi)
    assert definitive and h is not None
    assert h.boundary() == (c.inclusion @ phi)
    comp = c.projection @ c.inclusion
    assert is_null_homotopic(comp) is True


def test_w_multiple_is_null_homotopic_with_witness():
    q = suites.quadric()
    rng = random.Random(8)
    phi = random_chain_map(q, q, rng=rng)
    wphi = MfMorphism(
        q, q, phi.f0.poly_mul(q.W), phi.f1.poly_mul(q.W),
        degree=phi.degree + q.weights.degree)
    h = find_homotopy(wphi)
    assert h is not None
    assert h.boundary() == wphi
    # the closed-form witness agrees
    assert w_multiple_homotopy(phi).boundary() == wphi


def test_identity_is_not_null_homotopic():
    ws = WeightSystem((1,), 2)
    m = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), ws)
    h, definitive = solve_null_homotopy(MfMorphism.identity(m))
    assert h is None and definitive
    assert is_null_homotopic(MfMorphism.identity(m)) is False


def test_contractibility():
    for label, mf in suites.full_suite():
        assert is_contractible(trivial_brick(mf)) is True, label
    q = suites.quadric()
    assert is_contractible(q) is False


def test_truncated_hom_space_is_not_certified():
    mu = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), None)
    ths = truncated_hom_space(mu, mu, 4)
    assert ths.total == 1
    assert not ths.certified


@pytest.mark.parametrize("label, bound, cycles, boundaries", [
    ("quadric", 1, 8, 6), ("quadric", 2, 18, 16), ("quadric", 3, 32, 30),
    ("x|x^2", 1, 2, 1), ("x|x^2", 2, 3, 2), ("x|x^2", 3, 4, 3),
])
def test_truncated_hom_space_ungraded(label, bound, cycles, boundaries):
    # the same objects with and without weights: the truncated quotient
    # matches the certified graded total
    if label == "quadric":
        x, y = parse_poly("x1", 2), parse_poly("x2", 2)
        mf = koszul_factorization([(x, x), (y, y)], None)
        graded = suites.quadric()
    else:
        u, v = parse_poly("x1", 1), parse_poly("x1^2", 1)
        mf = elementary_factorization(u, v, None)
        graded = elementary_factorization(u, v, WeightSystem((1,), 3))
    ths = truncated_hom_space(mf, mf, bound)
    (pd,) = ths.per_degree
    assert (pd.cycles, pd.boundaries) == (cycles, boundaries)
    assert ths.total == pd.dim == hom_space(graded, graded).total


def test_ungraded_null_homotopy_three_valued():
    mu = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), None)
    ident = MfMorphism.identity(mu)
    wid = MfMorphism(mu, mu, ident.f0.poly_mul(mu.W), ident.f1.poly_mul(mu.W))
    assert is_null_homotopic(wid, bound=3) is True
    # nothing found in a tiny window proves nothing without the grading
    assert is_null_homotopic(ident, bound=0) is None


def test_hom_additivity_over_direct_sum():
    objs = suites.an_objects(4)
    a, b = objs[1], objs[3]
    # direct summands must share the splitting degree; a brick of b does
    ds = direct_sum(b, trivial_brick(b))
    lhs = hom_space(a, ds)
    assert lhs.certified
    assert lhs.total == (hom_space(a, b).total
                         + hom_space(a, trivial_brick(b)).total)
    # and the contractible summand contributes nothing
    assert lhs.total == hom_space(a, b).total


def test_hom_problem_reuse():
    q = suites.quadric()
    problem = HomProblem(q, q)
    first = hom_space(q, q, problem=problem)
    second = hom_space(q, q, problem=problem)
    assert first.dims_by_degree() == second.dims_by_degree()


def test_differential_squares_to_zero():
    q = suites.quadric()
    rng = random.Random(4)
    h = suites.random_homotopy(q, q, 0, rng)
    d1 = hom_complex_differential(h)
    assert isinstance(d1, MfMorphism)
    d2 = hom_complex_differential(d1)
    assert d2.t0.is_zero() and d2.t1.is_zero()


def test_homotopy_equivalence_with_brick_summand():
    ws = WeightSystem((1,), 2)
    m = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), ws)
    ds = direct_sum(m, trivial_brick(m))
    nv, fld = 1, m.W.field
    inc = MfMorphism(
        m, ds,
        f0=vstack([PolyMatrix.identity(1, nv, fld), PolyMatrix.zero(2, 1, nv, fld)]),
        f1=vstack([PolyMatrix.identity(1, nv, fld), PolyMatrix.zero(2, 1, nv, fld)]),
        degree=0)
    data = homotopy_equivalence_data(inc)
    assert data is not None
    assert data.inverse.is_chain_map()
    back = data.inverse @ inc
    assert data.source_homotopy.boundary() == MfMorphism.identity(m) - back
    fwd = inc @ data.inverse
    assert data.target_homotopy.boundary() == MfMorphism.identity(ds) - fwd
    assert is_homotopy_equivalence(inc)
    zero = MfMorphism(m, ds, PolyMatrix.zero(3, 1, nv, fld),
                      PolyMatrix.zero(3, 1, nv, fld), degree=0)
    assert not is_homotopy_equivalence(zero)


def test_ungraded_homotopy_equivalence_with_brick_summand():
    m = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), None)
    ds = direct_sum(m, trivial_brick(m))
    nv, fld = 1, m.W.field
    col = vstack([PolyMatrix.identity(1, nv, fld), PolyMatrix.zero(2, 1, nv, fld)])
    inc = MfMorphism(m, ds, f0=col, f1=col)
    for bound in range(3):
        data = homotopy_equivalence_data(inc, bound=bound)
        assert data is not None, bound
        back = data.inverse @ inc
        assert data.source_homotopy.boundary() == MfMorphism.identity(m) - back
        fwd = inc @ data.inverse
        assert data.target_homotopy.boundary() == MfMorphism.identity(ds) - fwd
    zero = MfMorphism(m, ds, PolyMatrix.zero(3, 1, nv, fld),
                      PolyMatrix.zero(3, 1, nv, fld))
    assert is_homotopy_equivalence(zero, bound=2) is None


def test_representatives_are_independent_chain_maps():
    # per degree, the boundaries and the representatives together span a
    # space of dimension B + H, by dense elimination
    suite = suites.full_suite()
    for la, a in suite:
        for lb, b in suite:
            if a.W != b.W:
                continue
            problem = HomProblem(a, b)
            for pd in hom_space(a, b, problem=problem).per_degree:
                if not pd.dim:
                    continue
                blk = problem.degree_block(pd.degree)
                n = len(blk.even_uids)
                rows = [[v.get(k, Fraction(0)) for k in range(n)]
                        for v in blk.dvecs]
                for rep in pd.representatives:
                    assert rep.is_chain_map(), (la, lb)
                    mats = {"e0": rep.f0, "e1": rep.f1}
                    rows.append([mats[kind].entries[i][j].terms.get(e, Fraction(0))
                                 for kind, i, j, e in blk.even_uids])
                assert orc.dense_rank(rows) == pd.boundaries + pd.dim, (la, lb)


def test_block_boundaries_match_homotopy_boundary():
    # the assembled boundary of each odd unknown, summed over a random
    # homotopy, is the boundary computed by matrix products
    objs = suites.an_objects(5)
    pairs = [(suites.quadric(), suites.quadric()), (objs[1], objs[3]),
             (objs[2], objs[2])]
    rng = random.Random(7)
    for s, t in pairs:
        problem = HomProblem(s, t)
        for d in range(-1, 3):
            blk = problem.degree_block(d)
            h = suites.random_homotopy(s, t, d, rng)
            odd_index = {u: k for k, u in enumerate(blk.odd_uids)}
            got = {}
            for kind, mat in (("t0", h.t0), ("t1", h.t1)):
                for i, row in enumerate(mat.entries):
                    for j, poly in enumerate(row):
                        for e, c in poly.terms.items():
                            for col, v in blk.dvecs[odd_index[kind, i, j, e]].items():
                                got[col] = got.get(col, 0) + c * v
            bd = h.boundary()
            want = {}
            for kind, mat in (("e0", bd.f0), ("e1", bd.f1)):
                for i, row in enumerate(mat.entries):
                    for j, poly in enumerate(row):
                        for e, c in poly.terms.items():
                            want[blk.even_index[kind, i, j, e]] = c
            assert {k: v for k, v in got.items() if v} == want, d


def test_default_window_contains_socle():
    objs = suites.an_objects(6)
    lo, hi = default_window(objs[1], objs[5])
    assert lo <= 0 and hi >= 4  # socle bound of x^6 is 4


def test_hom_tables_over_q_and_a_large_prime_field_agree():
    # metamorphic: the systems have small integer entries, whose ranks mod
    # p drop only at the finitely many primes dividing some minor, so over
    # a large prime the tables agree with Q degree by degree.  The two
    # sides take different paths: over Q with representatives (nullspace
    # and quotient, or the modular certificates), over F_p by exact ranks.
    gf = PrimeField(2**31 - 1)
    over_q = suites.full_suite()
    over_p = suites.full_suite(gf)
    for (la, a), (_, ap) in zip(over_q, over_p):
        for (lb, b), (_, bp) in zip(over_q, over_p):
            if a.W != b.W:
                continue
            hq = hom_space(a, b)
            hp = hom_space(ap, bp, want_reps=False)
            assert hq.to_json()["per_degree"] == hp.to_json()["per_degree"], (la, lb)
            assert hq.total == hp.total


def test_hom_tables_survive_entries_the_prime_divides():
    # scaling p0 by a unit c of Q gives an equivalent category: (f0, f1)
    # stays a chain map and homotopies rescale.  With c = 2^31 - 1 the
    # systems' entries vanish mod p, with c = 1/(2^31 - 1) they have no
    # residue, so every hom table here needs the exact fallback
    P = 2**31 - 1
    for n in (2, 3, 4):
        ws = WeightSystem((1,), n)
        plain = suites.an_objects(n)
        for c in (str(P), f"1/{P}"):
            scaled = {k: elementary_factorization(
                parse_poly(f"{c}*x1^{k}", 1), parse_poly(f"x1^{n - k}", 1), ws)
                for k in plain}
            for a in plain:
                for b in plain:
                    want = hom_space(plain[a], plain[b]).to_json()["per_degree"]
                    assert hom_space(scaled[a], scaled[b]).to_json()["per_degree"] == want
                    got = hom_space(scaled[a], scaled[b], want_reps=False)
                    assert got.to_json()["per_degree"] == want, (n, c, a, b)
