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
    QQ,
    MfMorphism,
    PrimeField,
    PolyMatrix,
    WeightSystem,
    cone,
    direct_sum,
    elementary_factorization,
    find_homotopy,
    hom_space,
    homotopy_decomposition,
    is_contractible,
    is_null_homotopic,
    koszul_factorization,
    parse_poly,
    random_chain_map,
    solve_null_homotopy,
    trivial_brick,
    w_multiple_homotopy,
)
from mfcat import homotopy, linalg
from mfcat.errors import MfcatError
from mfcat.homotopy import (
    HomProblem,
    _kept_systems,
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


def _forget_kept_systems():
    _kept_systems.clear()


@pytest.fixture
def solver_builds(monkeypatch):
    """The list that gets one entry per linalg.solver built."""
    builds = []
    solver = linalg.solver
    monkeypatch.setattr(linalg, "solver",
                        lambda *args: builds.append(1) or solver(*args))
    return builds


def test_identity_is_not_null_homotopic(monkeypatch, solver_builds):
    # refused by the exact solve every time: on the first call, which
    # builds no solver, on the second, which builds and keeps one, and on
    # the third, which hits it
    exact = []
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *args: exact.append(1) or solve(*args))
    ws = WeightSystem((1,), 2)
    m = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), ws)
    fermat = suites.fermat_cubic()
    for x in (m, fermat):
        _forget_kept_systems()
        builds = []
        for call in range(3):
            before = len(exact)
            h, definitive = solve_null_homotopy(MfMorphism.identity(x))
            assert h is None and definitive
            assert len(exact) > before
            builds.append(len(solver_builds))
            solver_builds.clear()
        assert builds == [0, 1, 0]
        assert _kept_systems.hits == 1
    assert is_null_homotopic(MfMorphism.identity(m)) is False
    # the Fermat cubic's identity meets a system with unknowns
    key = homotopy._untwisted(fermat)
    assert _kept_systems.entries[key, key, 0][1]


def _terms_of(x):
    """Every entry's terms of a homotopy or a map, in their stored order."""
    mats = (x.t0, x.t1) if hasattr(x, "t0") else (x.f0, x.f1)
    return [[[list(p.terms.items()) for p in row] for row in m.entries]
            for m in mats]


def _witness_queries(x, rng):
    """A cone composite and a W-multiple to bound, and a random boundary to
    factor through the brick, as zero-argument calls giving entry terms."""
    phi = random_chain_map(x, x, 0, rng=rng)
    incl = cone(phi).inclusion @ phi
    wphi = MfMorphism(x, x, phi.f0.poly_mul(x.W), phi.f1.poly_mul(x.W),
                      degree=phi.degree + x.weights.degree)
    bd = suites.random_homotopy(x, x, 0, rng).boundary()

    def decomposition():
        dec = homotopy_decomposition(bd)
        return _terms_of(dec.into_brick), _terms_of(dec.from_brick)

    return [lambda: _terms_of(find_homotopy(incl)),
            lambda: _terms_of(find_homotopy(wphi)), decomposition]


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2**31 - 1)],
                         ids=["Q", "F7", "F2^31-1"])
def test_kept_solvers_give_the_witnesses_of_fresh_ones(field, solver_builds):
    # a witness served from a kept solver, when it is built and when it is
    # hit, equals, entry by entry and in term order, the one the exact
    # solve of that call's systems alone gives
    objects = [o for n in range(2, 7) for o in suites.an_objects(n, field).values()]
    objects.append(suites.quadric(field))
    for idx, x in enumerate(objects):
        for obj in (x, x.shift()):
            queries = _witness_queries(obj, random.Random(idx))
            fresh = []
            for query in queries:
                _forget_kept_systems()
                fresh.append(query())
            assert not solver_builds
            _forget_kept_systems()
            assert [query() for query in queries] == fresh
            assert [query() for query in queries] == fresh
            assert solver_builds
            built, hits = len(solver_builds), _kept_systems.hits
            assert [query() for query in queries] == fresh
            assert len(solver_builds) == built
            assert _kept_systems.hits > hits
            _kept_weights()
            solver_builds.clear()


def test_a_witness_the_kept_solver_misses_raises(monkeypatch):
    # a kept solver that finds nothing must not turn into a certified no:
    # the first call is solved exactly, and on the second the exact solve
    # finds the witness the kept solver missed, and that is a fault
    monkeypatch.setattr(linalg, "solver",
                        lambda rows, ncols, field: (lambda rhs: {}, 0))
    _forget_kept_systems()
    try:
        q = suites.quadric()
        phi = random_chain_map(q, q, rng=random.Random(8))
        wphi = MfMorphism(q, q, phi.f0.poly_mul(q.W), phi.f1.poly_mul(q.W),
                          degree=phi.degree + q.weights.degree)
        h, definitive = solve_null_homotopy(wphi)
        assert definitive and h.boundary() == wphi
        with pytest.raises(MfcatError, match="missed a witness"):
            solve_null_homotopy(wphi)
    finally:
        _forget_kept_systems()


def _kept_weights():
    """The weights of the kept entries, least recently used first; they
    sum to the store's weight, which stays within its budget."""
    weights = [w for w, _, _ in _kept_systems.entries.values()]
    assert sum(weights) == _kept_systems.weight <= homotopy._KEPT_WEIGHT
    return weights


def _kept_solvers():
    """How many kept entries hold a solver."""
    return sum(1 for _, _, solve in _kept_systems.entries.values() if solve)


def test_kept_systems_stay_within_their_bound(monkeypatch, solver_builds):
    # x^(k+2) id is null-homotopic on (x | x), since x id is the boundary
    # of t0 = t1 = 1/2; each degree is a system of its own, all of one
    # weight
    ws = WeightSystem((1,), 2)
    m = elementary_factorization(parse_poly("x1", 1), parse_poly("x1", 1), ws)
    ident = MfMorphism.identity(m)

    def multiple(k):
        xk = parse_poly(f"x1^{k + 2}", 1)
        return MfMorphism(m, m, ident.f0.poly_mul(xk), ident.f1.poly_mul(xk),
                          degree=k + 2)

    def witness(k):
        return _terms_of(find_homotopy(multiple(k)))

    def degrees():
        return [key[2] - 2 for key in _kept_systems.entries]

    _forget_kept_systems()
    witness(0)
    (marker,) = _kept_weights()
    witness(0)
    (solver,) = _kept_weights()
    assert solver > marker
    solver_builds.clear()
    # a budget of 8 solvers
    monkeypatch.setattr(homotopy, "_KEPT_WEIGHT", 8 * solver)
    markers = 8 * solver // marker
    count = 2 * markers + 1
    # met once each: solved exactly, and only the latest markers are kept
    _forget_kept_systems()
    first = []
    for k in range(count):
        first.append(witness(k))
        assert set(_kept_weights()) == {marker}
    assert not solver_builds
    assert degrees() == list(range(count - markers, count))
    assert _kept_solvers() == 0
    # met twice each: kept on the second call, the oldest evicted
    _forget_kept_systems()
    for k in range(count):
        assert witness(k) == first[k]
        assert witness(k) == first[k]
        assert sum(_kept_weights()) <= 8 * solver
    assert len(solver_builds) == count
    assert set(_kept_weights()) == {solver}
    assert degrees() == list(range(count - 8, count))
    assert _kept_solvers() == 8
    # the evicted first system is solved exactly again, then rebuilt
    assert witness(0) == first[0]
    assert len(solver_builds) == count
    assert witness(0) == first[0]
    assert len(solver_builds) == count + 1
    assert degrees()[-1] == 0 and _kept_solvers() == 8


def test_a_solver_heavier_than_the_budget_is_never_kept(monkeypatch, solver_builds):
    # with a budget that holds the system's marker but not its solver, the
    # solver is built once and not kept; with one that holds neither, none
    # is built; every witness is the exact solve's of a first sighting
    q = suites.quadric()
    phi = random_chain_map(q, q, rng=random.Random(8))
    wphi = MfMorphism(q, q, phi.f0.poly_mul(q.W), phi.f1.poly_mul(q.W),
                      degree=phi.degree + q.weights.degree)

    def witness():
        return _terms_of(find_homotopy(wphi))

    _forget_kept_systems()
    want = witness()
    (marker,) = _kept_weights()
    h = find_homotopy(wphi)
    assert h.boundary() == wphi and _terms_of(h) == want
    (solver,) = _kept_weights()
    assert solver > marker and _kept_solvers() == 1
    for budget, builds, kept in ((solver - 1, 1, [marker]), (marker - 1, 0, [])):
        monkeypatch.setattr(homotopy, "_KEPT_WEIGHT", budget)
        _forget_kept_systems()
        solver_builds.clear()
        for _ in range(4):
            assert witness() == want
            assert _kept_solvers() == 0
        assert _kept_weights() == kept
        assert len(solver_builds) == builds
        assert _kept_systems.hits == 0
    _forget_kept_systems()


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


def test_kept_answers_serve_later_calls_with_representatives():
    # a pair first read without representatives still gives them later,
    # equal to those read on an empty rank table
    for a, b in ((suites.quadric(), suites.quadric()),
                 (suites.an_objects(5)[2], suites.an_objects(5)[3])):
        homotopy._rank_table.cache_clear()
        plain = hom_space(a, b, want_reps=False)
        warm = hom_space(a, b)
        homotopy._rank_table.cache_clear()
        assert plain == hom_space(a, b, want_reps=False)
        assert warm == hom_space(a, b)
        assert any(p.representatives for p in warm.per_degree)


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
            for pd in hom_space(a, b).per_degree:
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
    # residue, so every hom table here needs the exact fallback.  Shift 1
    # is then read from the warm rank table of the pair: its halves in
    # degrees shift 0 did not reach take the fallback too, without and
    # with representatives
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
                    want = hom_space(plain[a], plain[b].shift()).to_json()["per_degree"]
                    for reps in (False, True):
                        got = hom_space(scaled[a], scaled[b], shift=1, want_reps=reps)
                        assert got.to_json()["per_degree"] == want, (n, c, a, b, reps)
