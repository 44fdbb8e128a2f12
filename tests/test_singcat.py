"""The cokernel functor, module-map lifting, two-periodicity, brick splitting."""

import random

import pytest

import oracles as orc
import suites
from mfcat import (
    QQ,
    PrimeField,
    Homotopy,
    MatrixFactorization,
    MfMorphism,
    PolyMatrix,
    WeightSystem,
    cyclic_action,
    elementary_factorization,
    enumerate_structures,
    format_poly,
    is_null_homotopic,
    parse_poly,
    random_chain_map,
    trivial_brick,
)
from mfcat import singcat
from mfcat.errors import GradingError, MfcatError, UsageError
from mfcat.singcat import (
    HypersurfaceModule,
    brick_presentation_normal_form,
    cok,
    cok_g,
    cok_morphism,
    homotopy_decomposition,
    lift_module_map,
    stable_hom,
    stable_hom_g,
    two_periodicity_check,
)


def fmt(matrix):
    return [[format_poly(e) for e in row] for row in matrix.entries]


def a2_modules():
    ws = WeightSystem((1,), 3)
    f1 = elementary_factorization(parse_poly("x1", 1), parse_poly("x1^2", 1), ws)
    f2 = elementary_factorization(parse_poly("x1^2", 1), parse_poly("x1", 1), ws)
    return f1, f2, cok(f1), cok(f2)  # modules A/(x^2) and A/(x)


def test_module_json_shape():
    f1, _, m1, _ = a2_modules()
    data = m1.to_json()
    assert sorted(data.keys()) == [
        "W", "annihilation_witness", "generator_degrees", "presentation"]
    back = PolyMatrix.from_json(data["presentation"], 1, f1.W.field)
    assert back == f1.p1
    witness = PolyMatrix.from_json(data["annihilation_witness"], 1, f1.W.field)
    assert witness == f1.p0
    assert data["generator_degrees"] == [0]


def test_module_rejects_broken_factorization():
    f1, _, _, _ = a2_modules()
    bad = MatrixFactorization(
        W=f1.W, weights=f1.weights, m0=f1.m0, m1=f1.m1,
        p0=f1.p0, p1=f1.p0, validate=False)
    with pytest.raises(MfcatError):
        HypersurfaceModule(bad)


def test_cok_morphism_uses_even_part():
    f1, _, _, _ = a2_modules()
    phi = random_chain_map(f1, f1, rng=random.Random(5))
    cm = cok_morphism(phi)
    assert cm.matrix == phi.f0
    assert cm.source.presentation == f1.p1


def test_lift_module_map_cases():
    f1, f2, m1, m2 = a2_modules()
    field = f1.W.field
    # multiplication by x is a degree 1 module map A/(x) -> A/(x^2)
    F = PolyMatrix.from_rows([[parse_poly("x1", 1)]], 1, field)
    lift, definitive = lift_module_map(m2, m1, F, degree=1)
    assert definitive and lift is not None
    assert lift.is_chain_map()
    assert fmt(lift.f1) == [["1"]]
    # the identity matrix is not a module map A/(x) -> A/(x^2)
    G = PolyMatrix.from_rows([[parse_poly("1", 1)]], 1, field)
    assert lift_module_map(m2, m1, G) == (None, True)
    # but it is one the other way around
    lift2, definitive2 = lift_module_map(m1, m2, G)
    assert definitive2 and lift2 is not None
    assert fmt(lift2.f1) == [["x1"]]
    # a matrix that is zero in the target lifts to a null-homotopic map
    Z = PolyMatrix.from_rows([[parse_poly("x1^2", 1)]], 1, field)
    lz, dz = lift_module_map(m1, m2, Z, degree=2)
    assert dz and lz is not None
    assert is_null_homotopic(lz) is True


def test_lift_without_grading_needs_bound():
    mf = elementary_factorization(parse_poly("x1", 1), parse_poly("x1^2", 1), None)
    mod = cok(mf)
    F = PolyMatrix.from_rows([[parse_poly("1", 1)]], 1, mf.W.field)
    with pytest.raises(UsageError):
        lift_module_map(mod, mod, F)
    lift, definitive = lift_module_map(mod, mod, F, bound=2)
    assert lift is not None
    assert not definitive or lift is not None


def test_a_lift_between_different_weight_systems_is_refused():
    # p = (x | x) with weights (1; 2) and q = (x | x) with weights (2; 4)
    # factor the same x^2, and X = 1 lifts the identity module map; a graded
    # search in p's degrees alone would certify that no lift exists
    x = parse_poly("x1", 1)
    p = elementary_factorization(x, x, WeightSystem((1,), 2))
    q = elementary_factorization(x, x, WeightSystem((2,), 4))
    assert p.W == q.W and p.weights != q.weights
    one = PolyMatrix.from_rows([[parse_poly("1", 1)]], 1, p.W.field)
    with pytest.raises(GradingError,
                       match="graded computations need a shared weight system"):
        lift_module_map(cok(p), cok(q), one)


def test_two_periodicity_report():
    f1, _, _, _ = a2_modules()
    tp = two_periodicity_check(f1)
    assert tp.exact and tp.certified
    assert tp.window == (0, 3)
    data = tp.to_json()
    assert data["exact"] and data["certified"]
    for row in data["per_degree"]:
        assert row["injective"]
        assert row["domain"] - row["rank"] == 0


def test_two_periodicity_needs_grading():
    mf = elementary_factorization(parse_poly("x1", 1), parse_poly("x1^2", 1), None)
    with pytest.raises(GradingError):
        two_periodicity_check(mf)


def test_stable_hom_totals():
    _, _, m1, m2 = a2_modules()
    assert stable_hom(m1, m1).total == 1
    assert stable_hom(m1, m1, shift=1).total == 1
    assert stable_hom(m1, m2).total == 1
    assert stable_hom(m1, m1).certified


def test_brick_cokernel_is_stably_zero():
    f1, _, m1, _ = a2_modules()
    bm = cok(trivial_brick(f1))
    for shift in (0, 1):
        assert stable_hom(bm, m1, shift=shift).total == 0
        assert stable_hom(m1, bm, shift=shift).total == 0


def test_brick_presentation_normal_form():
    f1, _, _, _ = a2_modules()
    S, C, N = brick_presentation_normal_form(f1)
    assert fmt(N) == [["0", "1"], ["x1^3", "0"]]
    assert fmt(S) == [["1", "0"], ["-x1^2", "1"]]
    assert fmt(C) == [["1", "0"], ["x1", "1"]]
    b = trivial_brick(f1)
    assert S @ b.p1 @ C == N


def test_homotopy_decomposition_roundtrip():
    for label, mf in [("a2", None), ("quadric", suites.quadric())]:
        if mf is None:
            mf = a2_modules()[0]
        for seed in (17, 18, 19):
            t = suites.random_homotopy(mf, mf, 1, random.Random(seed))
            phi = t.boundary()
            assert not phi.is_zero(), (label, seed)
            dec = homotopy_decomposition(phi)
            assert dec.brick.verify()["ok"]
            assert dec.into_brick.is_chain_map(), (label, seed)
            assert dec.from_brick.is_chain_map(), (label, seed)
            assert dec.composite() == phi, (label, seed)


def test_homotopy_decomposition_with_supplied_witness():
    q = suites.quadric()
    t = suites.random_homotopy(q, q, 1, random.Random(23))
    phi = t.boundary()
    assert not phi.is_zero()
    dec = homotopy_decomposition(phi, homotopy=t)
    assert dec.composite() == phi
    assert dec.into_brick.f0.nrows == trivial_brick(q).m0.rank


def test_homotopy_decomposition_rejects_essential_maps():
    f1, _, _, _ = a2_modules()
    with pytest.raises(UsageError, match=r"^map is not null-homotopic$"):
        homotopy_decomposition(MfMorphism.identity(f1))


def test_decompositions_share_one_checked_projection_per_target():
    q = suites.quadric()
    singcat._brick_projection.cache_clear()
    decs = []
    for seed in (31, 32, 33):
        phi = suites.random_homotopy(q, q, 1, random.Random(seed)).boundary()
        assert not phi.is_zero()
        decs.append((phi, homotopy_decomposition(phi)))
    first = decs[0][1]
    assert first.brick == trivial_brick(q)
    assert first.from_brick.source is first.brick
    for phi, dec in decs:
        assert dec.brick is first.brick and dec.from_brick is first.from_brick
        assert dec.into_brick.target is first.brick
        assert dec.into_brick.is_chain_map() and dec.from_brick.is_chain_map()
        assert dec.composite() == phi
    info = singcat._brick_projection.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_projection_cache_is_bounded():
    bound = singcat._BRICK_PROJECTIONS
    assert singcat._brick_projection.cache_info().maxsize == bound == 64
    f1, _, _, _ = a2_modules()
    targets = [f1.degree_twist(c) for c in range(bound + 1)]
    singcat._brick_projection.cache_clear()
    brick, v = singcat._brick_projection(targets[0])
    for t in targets[1:]:
        singcat._brick_projection(t)
        assert singcat._brick_projection.cache_info().currsize <= bound
    # the first target was the least recently used and is gone: rebuilt equal
    again = singcat._brick_projection(targets[0])
    assert again[0] is not brick and again == (brick, v)
    assert again[0] == trivial_brick(targets[0])
    assert singcat._brick_projection.cache_info().currsize == bound


def test_kept_projection_leaves_every_check_in_place():
    q = suites.quadric()
    t = suites.random_homotopy(q, q, 1, random.Random(23))
    phi = t.boundary()
    assert not phi.is_zero()
    homotopy_decomposition(phi, homotopy=t)  # the target's projection is kept
    wrong = Homotopy(q, q, t.t0.scale(2), t.t1.scale(2), t.degree)  # bounds 2 phi
    with pytest.raises(UsageError, match=r"^supplied homotopy does not bound the map$"):
        homotopy_decomposition(phi, homotopy=wrong)
    with pytest.raises(UsageError, match=r"^map is not null-homotopic$"):
        homotopy_decomposition(MfMorphism.identity(q))


def test_cok_g_and_forgetting_commute():
    f1, _, _, _ = a2_modules()
    act = cyclic_action(3, (1,), 1)
    for e in enumerate_structures(f1, act):
        ge = cok_g(e)
        plain = cok(e.forget())
        assert plain.presentation == ge.presentation
        assert ge.generator_chars is not None
        assert "generator_chars" in ge.to_json()


def test_cok_g_requires_characters():
    f1, _, _, _ = a2_modules()
    with pytest.raises(UsageError):
        cok_g(f1)


def test_stable_hom_g():
    f1, _, m1, _ = a2_modules()
    act = cyclic_action(3, (1,), 1)
    sts = enumerate_structures(f1, act)
    full = stable_hom(m1, m1).total
    # summing the equivariant dimension over all target structures in one
    # twist orbit recovers the plain stable hom dimension
    for shift in (0, 1):
        sums = sum(
            stable_hom_g(sts[0], e_tgt, shift=shift).total for e_tgt in sts)
        assert sums == stable_hom(m1, m1, shift=shift).total
    assert full == 1


# The oracles below build every matrix densely from the oracles module's
# monomials and products; they read only plain attributes of the package's
# objects, and the field for its coefficients.


def _degree_piece(mf, d):
    """The degree-d piece of p1: P1 -> P0 as dense columns over the
    monomial basis of the degree-d piece of P0, d a degree of P0."""
    nvars, w = mf.W.nvars, mf.weights.weights
    shift = mf.weights.degree - (mf.split_degree or 0)
    field = mf.W.field
    p1 = orc.matrix_to_field_data(mf.p1)
    rows = [(i, e) for i, h in enumerate(mf.m0.degrees)
            for e in orc.monomials_of_wdeg(nvars, w, d - h)]
    pos = {r: k for k, r in enumerate(rows)}
    cols = []
    for j, h in enumerate(mf.m1.degrees):
        for e in orc.monomials_of_wdeg(nvars, w, d - shift - h):
            col = [field.zero] * len(rows)
            for i, row in enumerate(p1):
                for e2, c in orc.pmul(row[j], {e: 1}).items():
                    col[pos[i, e2]] += field.coerce(c)
            cols.append(col)
    return cols, len(rows)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
def test_two_periodicity_ranks_match_dense_oracle(field):
    checked = 0
    for label, mf in suites.full_suite(field):
        for row in two_periodicity_check(mf).per_degree:
            cols, nrows = _degree_piece(mf, row.degree)
            assert (row.domain_dim, row.target_dim) == (len(cols), nrows), label
            assert row.rank == orc.dense_rank(cols, field.one), (label, row.degree)
            checked += 1
    assert checked > 50


def _dense_lift_consistent(p, q, F, degree):
    """Whether q1 @ X = F @ p1 has a solution X of the lift's degrees, by
    dense row reduction of [A | b] over the field."""
    nvars, w = p.W.nvars, p.weights.weights
    field = p.W.field
    off = (q.split_degree or 0) - (p.split_degree or 0)
    unknowns = [(i, j, e)
                for i, h in enumerate(q.m1.degrees)
                for j, g in enumerate(p.m1.degrees)
                for e in orc.monomials_of_wdeg(nvars, w, degree + off + g - h)]
    q1 = orc.matrix_to_field_data(q.p1)
    eqs = {}
    for k, (i, j, e) in enumerate(unknowns):
        for r, row in enumerate(q1):
            for e2, c in orc.pmul(row[i], {e: 1}).items():
                eqs.setdefault((r, j, e2), {})[k] = field.coerce(c)
    rhs = {}
    product = orc.dense_product(orc.matrix_to_field_data(F),
                                orc.matrix_to_field_data(p.p1), p.m1.rank)
    for r, row in enumerate(product):
        for c, poly in enumerate(row):
            for e, v in poly.items():
                rhs[r, c, e] = field.coerce(v)
    n = len(unknowns)
    dense = [
        [eqs.get(key, {}).get(k, field.zero) for k in range(n)]
        + [rhs.get(key, field.zero)]
        for key in sorted(set(eqs) | set(rhs))
    ]
    return n not in orc.dense_rref(dense, field.one)[1]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
def test_lift_exists_exactly_when_dense_system_is_consistent(field):
    suite = dict(suites.full_suite(field))
    pairs = [("x^4:k=1", "x^4:k=3"), ("x^5:k=2", "x^5:k=2"),
             ("x^6:k=2", "x^6:k=4"), ("quadric", "quadric"),
             ("fermat", "fermat")]
    outcomes = set()
    for la, lb in pairs:
        p, q = suite[la], suite[lb]
        for d in range(-1, 3):
            rng = random.Random(f"{la}|{lb}|{d}")
            F = suites.random_matrix(q.m0.rank, p.m0.rank, q.m0.degrees,
                                     p.m0.degrees, d, p.weights, rng,
                                     p.W.nvars, field)
            for mat in (random_chain_map(p, q, d, rng).f0, F):
                lift, definitive = lift_module_map(cok(p), cok(q), mat, d)
                consistent = _dense_lift_consistent(p, q, mat, d)
                assert definitive and (lift is not None) == consistent, (la, lb, d)
                outcomes.add(consistent)
    assert outcomes == {True, False}
