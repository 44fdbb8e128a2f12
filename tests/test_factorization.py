"""Factorization constructors, the shift, cones, bricks, and morphism algebra."""

import random

import pytest

import suites
from mfcat import (
    GradedFreeModule,
    Homotopy,
    MatrixFactorization,
    QQ,
    MfMorphism,
    PolyMatrix,
    Polynomial,
    PrimeField,
    WeightSystem,
    cone,
    direct_sum,
    elementary_factorization,
    format_poly,
    koszul_factorization,
    parse_poly,
    random_chain_map,
    trivial_brick,
    w_multiple_homotopy,
    zero_factorization,
)
from mfcat.errors import GradingError, MfcatError, UsageError


def fmt(matrix):
    return [[format_poly(e) for e in row] for row in matrix.entries]


def test_elementary_frozen():
    ws = WeightSystem((1,), 4)
    mf = elementary_factorization(parse_poly("x1", 1), parse_poly("x1^3", 1), ws)
    assert fmt(mf.p0) == [["x1"]]
    assert fmt(mf.p1) == [["x1^3"]]
    assert mf.m0.degrees == (0,)
    assert mf.m1.degrees == (0,)
    assert mf.split_degree == 1
    assert mf.verify()["ok"]


def test_elementary_rejects_mismatch():
    ws = WeightSystem((1,), 4)
    with pytest.raises(MfcatError):
        elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), ws)


def test_koszul_quadric_frozen():
    q = suites.quadric()
    assert fmt(q.p0) == [["x1", "-x2"], ["x2", "x1"]]
    assert fmt(q.p1) == [["x1", "x2"], ["-x2", "x1"]]
    assert q.m0.degrees == (0, 0)
    assert q.m1.degrees == (-1, -1)
    assert q.split_degree == 0
    assert q.verify()["ok"]


def test_koszul_fermat_verifies():
    f = suites.fermat_cubic()
    assert f.m0.rank == 4 and f.m1.rank == 4
    rep = f.verify()
    assert rep["ok"], rep


def test_verify_catches_corruption():
    q = suites.quadric()
    bad_p1 = PolyMatrix.from_rows(
        [[parse_poly(s, 2) for s in row]
         for row in (["x1", "x2"], ["-x2", "x2"])], 2, q.W.field)
    bad = MatrixFactorization(
        W=q.W, weights=q.weights, m0=q.m0, m1=q.m1,
        p0=q.p0, p1=bad_p1, validate=False)
    rep = bad.verify()
    assert not rep["ok"]
    assert any("W times the identity" in p for p in rep["problems"])


def test_verify_catches_degree_corruption():
    q = suites.quadric()
    bad_m0 = GradedFreeModule(2, (0, 5), None)
    bad = MatrixFactorization(
        W=q.W, weights=q.weights, m0=bad_m0, m1=q.m1,
        p0=q.p0, p1=q.p1, validate=False)
    rep = bad.verify()
    assert not rep["ok"]
    assert any("degree" in p for p in rep["problems"])


def test_shift_frozen():
    ws = WeightSystem((1,), 4)
    mf = elementary_factorization(parse_poly("x1", 1), parse_poly("x1^3", 1), ws)
    s = mf.shift()
    assert fmt(s.p0) == [["-x1^3"]]
    assert fmt(s.p1) == [["-x1"]]
    assert s.split_degree == 3
    assert s.verify()["ok"]


def test_shift_is_involutive_everywhere():
    for label, mf in suites.full_suite():
        double = mf.shift().shift()
        assert double == mf, label
        assert double.to_json() == mf.to_json(), label


def test_direct_sum():
    ws = WeightSystem((1,), 4)
    a = elementary_factorization(parse_poly("x1", 1), parse_poly("x1^3", 1), ws)
    b = elementary_factorization(parse_poly("x1^2", 1), parse_poly("x1^2", 1), ws)
    # summands carry different splitting degrees until one is adjusted
    with pytest.raises(GradingError):
        direct_sum(a, b)
    ds = direct_sum(a, a)
    assert ds.m0.rank == 2 and ds.m1.rank == 2
    assert ds.verify()["ok"]


def test_zero_factorization():
    ws = WeightSystem((1,), 2)
    z = zero_factorization(parse_poly("x1^2", 1), ws)
    assert z.m0.rank == 0 and z.m1.rank == 0
    assert z.verify()["ok"]


def test_morphism_algebra():
    q = suites.quadric()
    rng = random.Random(2)
    phi = random_chain_map(q, q, rng=rng)
    psi = random_chain_map(q, q, rng=rng)
    ident = MfMorphism.identity(q)
    assert ident.is_chain_map()
    assert (ident @ phi) == phi
    assert (phi @ ident) == phi
    assert (phi + psi).is_chain_map()
    assert (phi - phi).f0.is_zero()
    assert (phi.scale(2) - phi - phi).f0.is_zero()
    assert (psi @ phi).is_chain_map()
    assert phi.shift().is_chain_map()
    assert phi.shift().source == q.shift()


def one_by_one(f0, f1, field):
    """The rank-one factorization (f0 | f1) of W = 0, ungraded."""
    W = Polynomial.zero(1, field)
    mats = [PolyMatrix(1, 1, 1, field, ((parse_poly(f, 1, field),),)) for f in (f0, f1)]
    return MatrixFactorization(W, None, GradedFreeModule(1, (0,)),
                               GradedFreeModule(1, (0,)), *mats)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_is_chain_map_checks_each_square(field):
    # over a nonzero W either square implies the other, so the squares
    # are broken one at a time on factorizations of W = 0: the map
    # (f0, f1) = (1, 0) commutes with p1 = 0 but not p0 = x, and with
    # p0 = 0 but not p1 = x
    one = PolyMatrix.identity(1, 1, field)
    zero = PolyMatrix.zero(1, 1, 1, field)
    for p0, p1 in (("x1", "0"), ("0", "x1")):
        mf = one_by_one(p0, p1, field)
        assert mf.verify()["ok"]
        assert MfMorphism(mf, mf, one, one).is_chain_map()
        assert MfMorphism(mf, mf, zero, zero).is_chain_map()
        assert not MfMorphism(mf, mf, one, zero, validate=False).is_chain_map(), p0
        assert not MfMorphism(mf, mf, zero, one, validate=False).is_chain_map(), p0
        with pytest.raises(MfcatError, match="^not a chain map"):
            MfMorphism(mf, mf, one, zero)


def test_morphism_degree_composition():
    ws = WeightSystem((1,), 4)
    mf = elementary_factorization(parse_poly("x1", 1), parse_poly("x1^3", 1), ws)
    rng = random.Random(9)
    phi = random_chain_map(mf, mf, degree=2, rng=rng)
    psi = random_chain_map(mf, mf, degree=4, rng=rng)
    assert (psi @ phi).degree == 6


def test_value_types_compare_hash_and_print_by_their_fields():
    ws = WeightSystem((1,), 2)
    mf = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), ws)
    one = PolyMatrix.identity(1, 1, QQ)
    zero = PolyMatrix.zero(1, 1, 1, QQ)
    phi, psi = MfMorphism(mf, mf, one, one), MfMorphism(mf, mf, one, one)
    assert phi == psi and hash(phi) == hash(psi) and phi is not psi
    assert phi != MfMorphism(mf, mf, one, one, degree=1, validate=False)
    h = Homotopy(mf, mf, zero, zero)
    assert h == Homotopy(mf, mf, zero, zero) and h != MfMorphism(mf, mf, zero, zero)
    assert repr(phi) == "MfMorphism(source=%r, target=%r, f0=%r, f1=%r, degree=0)" % (
        mf, mf, one, one)
    assert repr(one) == "PolyMatrix(nrows=1, ncols=1, nvars=1, field=%r, entries=%r)" % (
        QQ, one.entries)


def test_cone_structure():
    # over every map of the suite: the cone is a factorization, its
    # triangle maps are graded chain maps, the projection
    # lands on the shifted source and kills the inclusion, and the attached
    # homotopy witnesses inclusion o phi ~ 0 on the nose
    for phi in suites.maps_between_objects():
        s, t = phi.source, phi.target
        c = cone(phi)
        assert c.factorization.verify()["ok"]
        assert c.factorization.m0.rank == t.m0.rank + s.m1.rank
        for f in (c.inclusion, c.projection):
            assert f.is_chain_map() and not f.grading_violations()
        assert c.projection.target == s.shift()
        comp = c.projection @ c.inclusion
        assert comp.f0.is_zero() and comp.f1.is_zero()
        diff = c.splitting_homotopy.boundary() - (c.inclusion @ phi)
        assert diff.f0.is_zero() and diff.f1.is_zero()


def test_cone_builds_its_triangle_maps_on_first_read(monkeypatch):
    # reading the factorization alone builds no morphism or homotopy; each
    # triangle map is built on its first read and the same object returned
    # after
    built = []
    for cls in (MfMorphism, Homotopy):
        def counted(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    ws = WeightSystem((1,), 4)
    mf = elementary_factorization(parse_poly("x1", 1), parse_poly("x1^3", 1), ws)
    phi = random_chain_map(mf, mf, rng=random.Random(1))
    built.clear()
    c = cone(phi)
    assert c.factorization.verify()["ok"] and not built
    for name in ("inclusion", "projection", "splitting_homotopy"):
        first = getattr(c, name)
        assert getattr(c, name) is first
    assert built == ["MfMorphism", "MfMorphism", "Homotopy"]
    assert cone(phi) == c and hash(cone(phi)) == hash(c)


def test_cone_of_identity_frozen():
    ws = WeightSystem((1,), 2)
    mf = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), ws)
    c = cone(MfMorphism.identity(mf)).factorization
    assert fmt(c.p0) == [["x1", "1"], ["0", "-x1"]]
    assert c.verify()["ok"]


def test_trivial_brick_frozen():
    ws = WeightSystem((1,), 4)
    mf = elementary_factorization(parse_poly("x1", 1), parse_poly("x1^3", 1), ws)
    b = trivial_brick(mf)
    assert b.m0.degrees == (2, -1)
    assert b.m1.degrees == (0, -1)
    assert b.split_degree == 1
    assert fmt(b.p1) == [["-x1", "1"], ["0", "x1^3"]]
    assert fmt(b.p0) == [["-x1^3", "1"], ["0", "x1"]]
    assert b.verify()["ok"]


def test_brick_verifies_everywhere():
    for label, mf in suites.full_suite():
        assert trivial_brick(mf).verify()["ok"], label


def test_w_multiple_homotopy():
    for label, mf in [("elem", None), ("quadric", suites.quadric())]:
        if mf is None:
            ws = WeightSystem((1,), 4)
            mf = elementary_factorization(
                parse_poly("x1", 1), parse_poly("x1^3", 1), ws)
        rng = random.Random(7)
        phi = random_chain_map(mf, mf, rng=rng)
        wphi = MfMorphism(
            mf, mf, phi.f0.poly_mul(mf.W), phi.f1.poly_mul(mf.W),
            degree=phi.degree + mf.weights.degree)
        h = w_multiple_homotopy(phi)
        assert h.boundary() == wphi, label


def test_json_round_trips():
    q = suites.quadric()
    back = MatrixFactorization.from_json(q.to_json(), 2, q.W.field)
    assert back == q
    rng = random.Random(3)
    phi = random_chain_map(q, q, rng=rng)
    data = phi.to_json()
    assert sorted(data.keys()) == ["degree", "f0", "f1"]


def test_module_validation():
    with pytest.raises(UsageError):
        GradedFreeModule(2, (0,), None)
    with pytest.raises(UsageError):
        GradedFreeModule(1, (0,), ((0,), (1,)))
