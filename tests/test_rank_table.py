"""The kept rank table of a factorization pair, read at both shifts.

Hom(X, Y[1]) is read from the half-ranks kept for the pair (X, Y); see the
module docstring of mfcat.homotopy.  The dense oracle computes the shifted
hom tables from its own description of Y[1], with no library solver code.
"""

import gc
import itertools
import pickle
import random
import types

import pytest

from mfcat import (
    QQ,
    MatrixFactorization,
    MfcatError,
    PrimeField,
    cok,
    enumerate_structures,
    random_chain_map,
    stable_hom,
    twist_orbits,
)
from mfcat.equivariant import _orbit_split, _twist_orbit, _twisted, isotypic_decompose
from mfcat.homotopy import (
    _KEPT_DEGREES,
    _RANK_TABLES,
    _rank_table,
    default_window,
    hom_space,
)
from mfcat import homotopy

import oracles as orc
import suites


def small_suite_pairs(field):
    """(source, target, top) for every same-potential pair of x^2..x^5 and
    the quadric, and the endomorphisms of x^2 + y^2 + z^3 and the Fermat
    cubic.  The dense oracle is cubic in the block size, so for the two
    three-variable objects it stops at degree top, past the shifted
    classes: the blocks above have hundreds of unknowns (Z = B = 81 in
    degree 1 of the Fermat cubic); elsewhere top is None, the whole
    default window."""
    objs = [mf for n in range(2, 6) for _, mf in sorted(suites.an_objects(n, field).items())]
    objs.append(suites.quadric(field))
    pairs = [(a, b, None) for a in objs for b in objs if a.W == b.W]
    pairs.append((suites.quadric_plus_cube(field),) * 2 + (1,))
    pairs.append((suites.fermat_cubic(field),) * 2 + (0,))
    return pairs


def table(hs):
    return {p.degree: (p.cycles, p.boundaries, p.dim) for p in hs.per_degree}


def reps(hs):
    """The representatives of a hom space with their terms in stored order."""
    def terms(mat):
        return [[list(f.terms.items()) for f in row] for row in mat.entries]

    return [(p.degree, [(r.target, terms(r.f0), terms(r.f1)) for r in p.representatives])
            for p in hs.per_degree]


SHIFT_ROUTES = {
    "shift argument": lambda a, b, w: hom_space(a, b, w, shift=1),
    "shifted target": lambda a, b, w: hom_space(a, b.shift(), w),
    "stable hom": lambda a, b, w: stable_hom(cok(a), cok(b), 1, w),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_shift_one_matches_the_dense_oracle_cold_and_warm(field):
    p = None if field.rational else field.p
    pairs = small_suite_pairs(field)
    assert len(pairs) == 33
    for a, b, top in pairs:
        lo, hi = default_window(a, b)
        window = (lo, hi if top is None else top)
        dense = orc.hom_dims(orc.mf_to_data(a), orc.shift_data(orc.mf_to_data(b)),
                             *window, p)
        want = {d: (v["Z"], v["B"], v["H"]) for d, v in dense.items() if v["Z"] or v["B"]}
        for warm in (False, True):
            for route, call in SHIFT_ROUTES.items():
                _rank_table.cache_clear()
                if warm:
                    hom_space(a, b, want_reps=False)
                hs = call(a, b, window)
                assert table(hs) == want, (route, warm)
                assert hs.window == window and hs.certified == (top is None)
                for pd in hs.per_degree:
                    for rep in pd.representatives:
                        assert rep.target == b.shift() and rep.is_chain_map()
        if top is not None:
            # no class of the whole window lies above top
            full = hom_space(a, b, shift=1, want_reps=False)
            assert full.certified
            assert all(pd.dim == 0 for pd in full.per_degree if pd.degree > top)


def test_both_shifts_and_every_twist_read_one_entry(monkeypatch):
    act = suites.an_action(4)
    s0, s1 = enumerate_structures(suites.an_objects(4)[1], act)[:2]
    x, y = s0.factorization, s1.factorization
    _rank_table.cache_clear()
    want = [hom_space(x, y, shift=k).to_json() for k in (0, 1)]
    info = _rank_table.cache_info()
    assert info.currsize == 1

    def no_block(self, d):
        raise AssertionError("a warm read assembled a block")

    # without representatives, every twist reads both shifts from the
    # kept ranks alone
    with monkeypatch.context() as m:
        m.setattr(homotopy.HomProblem, "degree_block", no_block)
        for c in act.characters():
            t = s1.twist(c).factorization
            assert t != y or c == act.zero_char()
            assert [hom_space(x, t, shift=k, want_reps=False).to_json()
                    for k in (0, 1)] == want
    # the full space of an isotypic decomposition reads the same entry
    isotypic_decompose(s0, s1)
    assert _rank_table.cache_info().misses == info.misses
    assert _rank_table.cache_info().currsize == 1


def test_the_key_up_to_characters_is_the_char_free_factorization(monkeypatch):
    # a factorization without characters is its own key, and every
    # structure on it, every twist of one and every twist of a twist is
    # handed it as its key, so no char-free copy is built and the keys
    # match by identity; the handed copy stays out of every pickle
    act = suites.an_action(4)
    plain = suites.an_objects(4)[1]
    assert homotopy._untwisted(plain) is plain
    built = []
    strip = MatrixFactorization.strip_chars

    def counted(self):
        built.append(self)
        return strip(self)

    monkeypatch.setattr(MatrixFactorization, "strip_chars", counted)
    # twists are kept by structure up to equality, and an equal structure
    # made by an earlier test would hand over its own (equal) copy
    _twisted.cache_clear()
    # the structures on (x | x^3) are the four twists of one, each on a
    # factorization of its own
    structures = enumerate_structures(plain, act)
    assert len({id(st.factorization) for st in structures}) == 4
    for st in structures:
        twists = [st.twist(c) for c in act.characters()]
        twists += [t.twist(c) for t in twists for c in act.characters()]
        for mf in [st.factorization] + [t.factorization for t in twists]:
            key = homotopy._untwisted(mf)
            assert key is plain and homotopy._untwisted(mf) is key
            data = pickle.dumps(mf)
            assert b"_plain" not in data and "_plain" not in vars(pickle.loads(data))
    assert built == []
    assert len(twist_orbits(structures)) == 1


def test_one_rank_table_entry_serves_every_twist_of_a_pair():
    act = suites.an_action(4)
    s0, s1 = enumerate_structures(suites.an_objects(4)[1], act)[:2]
    _rank_table.cache_clear()
    for c0, c1 in itertools.product(act.characters(), repeat=2):
        x, y = s0.twist(c0).factorization, s1.twist(c1).factorization
        _rank_table(homotopy._untwisted(x), homotopy._untwisted(y))
        hom_space(x, y, want_reps=False)
    info = _rank_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    _rank_table.cache_clear()


def test_warm_reads_at_both_shifts_construct_no_problem(monkeypatch):
    # a warm read at either shift without representatives, and at shift 0
    # with them, reads the pair's kept entry and builds no HomProblem
    objs = suites.an_objects(5)
    a, b = objs[2], objs[3]
    _rank_table.cache_clear()
    want = [hom_space(a, b, shift=k, want_reps=r) for k in (0, 1) for r in (False, True)]
    made = []
    init = homotopy.HomProblem.__init__

    def counted(self, source, target):
        made.append((source, target))
        init(self, source, target)

    monkeypatch.setattr(homotopy.HomProblem, "__init__", counted)
    assert [hom_space(a, b, shift=k, want_reps=False) for k in (0, 1)] == want[::2]
    assert hom_space(a, b) == want[1]
    assert made == []
    assert any(p.representatives for p in want[1].per_degree)


def reachable(root):
    """Every object reachable from root through gc.get_referents, without
    entering classes, modules or callables, which lead to the globals."""
    seen, todo = {id(root)}, [root]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) in seen or isinstance(ref, (type, types.ModuleType)) or callable(ref):
                continue
            seen.add(id(ref))
            todo.append(ref)
            yield ref


def test_a_cold_read_computes_one_window_per_pair(monkeypatch):
    # a pair's default window is computed once, by its entry: a cold read
    # at shift 1 assembles its blocks with no second kept problem, and no
    # entry or piece holds a stencil after reads at both shifts
    act = suites.an_action(4)
    s0, s1 = enumerate_structures(suites.an_objects(4)[1], act)[:2]
    x, y = s0.factorization, s1.factorization
    calls = []
    window = homotopy.default_window

    def counted(source, target):
        calls.append((source, target))
        return window(source, target)

    monkeypatch.setattr(homotopy, "default_window", counted)
    for shift in (0, 1):
        for want_reps in (False, True):
            _rank_table.cache_clear()
            hom_space(x, y, shift=shift, want_reps=want_reps)
            assert len(calls) == 1, (shift, want_reps)
            del calls[:]
    _orbit_split.cache_clear()
    for shift in (0, 1):
        for want_reps in (False, True):
            hom_space(x, y, shift=shift, want_reps=want_reps)
    isotypic_decompose(s0, s1)
    random_chain_map(x, y, 0)
    entry = _rank_table(homotopy._untwisted(x), homotopy._untwisted(y))
    split, _ = _twist_orbit(s0, s1)
    assert split.prob is entry and len(split) == len(act.characters())
    assert len(entry.tables) == 4 and entry.bases
    for kept in [entry, *split.values()]:
        assert not any(isinstance(ref, homotopy._Stencils) for ref in reachable(kept))


def test_a_grade_the_differential_leaves_is_refused():
    # graded by slot kind, an odd piece holds no even unknowns, so its
    # first block with unknowns has boundaries outside the piece
    mf = suites.an_objects(4)[1]
    key = homotopy._untwisted(mf)
    _rank_table.cache_clear()
    split = _rank_table(key, key).pieces(lambda slot, e: slot[0])
    pair = homotopy.HomProblem(mf, mf)

    def has_boundaries(d, kind):
        blk = pair.degree_block(d)
        return any(v for u, v in zip(blk.odd_uids, blk.dvecs) if u[0] == kind)

    for kind in ("t0", "t1"):
        piece = split[kind]
        lo = piece.window[0]
        first = next(d for d in itertools.count(lo) if has_boundaries(d, kind))
        piece.rows(lo, first - 1, 0, False)
        with pytest.raises(MfcatError, match="boundary leaves its piece"):
            piece.rows(lo, first, 0, False)


def test_warm_default_reads_make_no_reading(monkeypatch):
    # a pair keeps the finished table of its default window per shift and
    # per want_reps, so a second read of each makes no reading and
    # assembles no block
    objs = suites.an_objects(5)
    a, b = objs[2], objs[3]
    keys = [(k, r) for k in (0, 1) for r in (False, True)]
    _rank_table.cache_clear()
    want = [hom_space(a, b, shift=k, want_reps=r) for k, r in keys]
    assert all(any(p.representatives for p in want[k].per_degree) for k in (1, 3))
    made = []

    def no_reading(self, *args):
        made.append(args)
        raise AssertionError("a warm default read made a reading")

    def no_block(self, d):
        made.append(d)
        raise AssertionError("a warm default read assembled a block")

    monkeypatch.setattr(homotopy._Reading, "__init__", no_reading)
    monkeypatch.setattr(homotopy.HomProblem, "degree_block", no_block)
    assert [hom_space(a, b, shift=k, want_reps=r) for k, r in keys] == want
    assert made == []
    assert sorted(_rank_table(homotopy._untwisted(a), homotopy._untwisted(b)).tables) == keys


def test_warm_reads_share_rows_and_make_fresh_representatives():
    # a degree without representatives is one DegreeData that every call
    # shares; a degree with them gets fresh maps between the caller's own
    # endpoints, here two twists of one pair
    act = suites.an_action(4)
    s0, s1 = enumerate_structures(suites.an_objects(4)[1], act)[:2]
    x, y, t = s0.factorization, s1.factorization, s1.twist((1,)).factorization
    assert t != y
    _rank_table.cache_clear()
    for shift in (0, 1):
        for want_reps in (False, True):
            first = hom_space(x, y, shift=shift, want_reps=want_reps)
            second = hom_space(x, t, shift=shift, want_reps=want_reps)
            assert first.to_json() == second.to_json()
            assert second.target == t.shift(shift) != first.target
            shared = [p for p, q in zip(first.per_degree, second.per_degree) if p is q]
            assert all(not p.representatives for p in shared)
            assert len(shared) == len(first.per_degree) - want_reps
            for p, q in zip(first.per_degree, second.per_degree):
                for hs, reps in ((first, p.representatives), (second, q.representatives)):
                    assert all(r.source is x and r.target is hs.target for r in reps)
                assert all(r.f0 is u.f0 and r is not u
                           for r, u in zip(p.representatives, q.representatives))


def test_explicit_windows_keep_no_tables_on_a_pair():
    # only the default window keeps a table; any other window reads the
    # halves and equals the answers of an emptied store
    objs = suites.an_objects(4)
    a, b = objs[1], objs[3]
    dflt = default_window(a, b)
    windows = [(lo, lo + k) for lo in range(-4, 4) for k in range(5)]
    windows.remove(dflt)
    _rank_table.cache_clear()
    got = [hom_space(a, b, w, shift=k, want_reps=r)
           for w in windows for k in (0, 1) for r in (False, True)]
    prob = _rank_table(homotopy._untwisted(a), homotopy._untwisted(b))
    assert prob.tables == {} and any(prob.halves)
    assert any(p.representatives for hs in got for p in hs.per_degree)
    k = 0
    for w in windows:
        for shift in (0, 1):
            for want_reps in (False, True):
                _rank_table.cache_clear()
                assert got[k] == hom_space(a, b, w, shift=shift, want_reps=want_reps)
                k += 1


def test_the_store_is_bounded_and_an_evicted_pair_comes_back_equal():
    objs = suites.an_objects(4)
    a, b = objs[1], objs[3]
    assert _rank_table.cache_info().maxsize == _RANK_TABLES
    _rank_table.cache_clear()
    first = [hom_space(a, b, shift=k).to_json() for k in (0, 1)]
    # degree twists move the generator degrees, so each is a pair of its own
    for k in range(1, _RANK_TABLES + 2):
        hom_space(a, b.degree_twist(k), (0, 0))
        assert _rank_table.cache_info().currsize <= _RANK_TABLES
    assert _rank_table.cache_info().currsize == _RANK_TABLES
    misses = _rank_table.cache_info().misses
    assert [hom_space(a, b, shift=k).to_json() for k in (0, 1)] == first
    assert _rank_table.cache_info().misses == misses + 1


def test_a_wide_window_keeps_at_most_the_capped_degrees():
    # 4,001 degrees are answered and at most _KEPT_DEGREES kept per half;
    # the answers equal a fresh table's and, inside the default window,
    # the default window's, whether that was read before the wide one, and
    # so kept, or after it, and not kept
    mf = suites.an_objects(4)[1]
    key = homotopy._untwisted(mf)
    wide = (-2000, 2000)
    for shift in (0, 1):
        _rank_table.cache_clear()
        default = hom_space(mf, mf, shift=shift)
        assert any(p.representatives for p in default.per_degree)
        for default_first in (True, False):
            _rank_table.cache_clear()
            if default_first:
                assert hom_space(mf, mf, shift=shift) == default
            got = [hom_space(mf, mf, wide, shift=shift) for _ in range(2)]
            assert all(len(half) <= _KEPT_DEGREES
                       for half in _rank_table(key, key).halves)
            assert hom_space(mf, mf, shift=shift) == default
            _rank_table.cache_clear()
            fresh = hom_space(mf, mf, wide, shift=shift)
            assert got[0] == got[1] == fresh
            lo, hi = default.window
            inside = [p for p in fresh.per_degree if lo <= p.degree <= hi]
            assert tuple(inside) == default.per_degree and fresh.certified
            assert all(p.dim == 0 for p in fresh.per_degree if not lo <= p.degree <= hi)


def test_a_wide_window_leaves_default_reads_warm(monkeypatch):
    # the halves keep only degrees of the default window, so a wide window
    # read first leaves them filled for it: a later default read without
    # representatives assembles no block
    mf = suites.an_objects(4)[1]
    assembled = []
    block = homotopy.HomProblem.degree_block

    def counted(self, d):
        assembled.append(d)
        return block(self, d)

    monkeypatch.setattr(homotopy.HomProblem, "degree_block", counted)
    for shift in (0, 1):
        _rank_table.cache_clear()
        hom_space(mf, mf, (-2000, 2000), shift=shift)
        assert len(assembled) == 4001
        del assembled[:]
        for _ in range(2):
            hom_space(mf, mf, shift=shift, want_reps=False)
        assert assembled == []


def test_representatives_from_a_warm_store_equal_a_fresh_problem():
    objs = suites.an_objects(5)
    pairs = [(suites.quadric(), suites.quadric()), (objs[2], objs[3]),
             (objs[1], objs[1]), (suites.fermat_cubic(), suites.fermat_cubic())]
    for a, b in pairs:
        for shift in (0, 1):
            _rank_table.cache_clear()
            fresh = hom_space(a, b, shift=shift)
            assert any(p.representatives for p in fresh.per_degree)
            _rank_table.cache_clear()
            for k in (0, 1):
                hom_space(a, b, shift=k, want_reps=False)
            warm = hom_space(a, b, shift=shift)
            assert warm == fresh
            assert reps(warm) == reps(fresh)


def test_kept_ranks_that_disagree_with_the_representatives_raise(monkeypatch):
    q = suites.quadric()
    _rank_table.cache_clear()
    for k in (0, 1):
        hom_space(q, q, shift=k, want_reps=False)
    quotient = homotopy._quotient_representatives

    def one_boundary_more(null_basis, boundary_rows, field):
        bdim, vecs = quotient(null_basis, boundary_rows, field)
        return bdim + 1, vecs[1:]

    monkeypatch.setattr(homotopy, "_quotient_representatives", one_boundary_more)
    for k in (0, 1):
        with pytest.raises(MfcatError, match="disagree"):
            hom_space(q, q, shift=k)


def stored(phi):
    """The terms of a map's two matrices in stored order."""
    return [[[list(f.terms.items()) for f in row] for row in mat.entries]
            for mat in (phi.f0, phi.f1)]


def draws(a, b, degree):
    return [stored(random_chain_map(a, b, degree, rng=random.Random(seed)))
            for seed in range(6)]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_chain_maps_drawn_cold_equal_those_drawn_warm(field):
    # the kept cycle basis changes no draw: the same rows in the same
    # order, one rng draw per basis vector
    objs = suites.an_objects(4, field)
    cases = [(suites.quadric(field),) * 2 + (0,), (objs[1], objs[3], 0),
             (objs[1], objs[3], 2), (suites.fermat_cubic(field),) * 2 + (0,)]
    for a, b, degree in cases:
        _rank_table.cache_clear()
        cold = draws(a, b, degree)
        assert _rank_table.cache_info().currsize == 1
        warm = draws(a, b, degree)
        assert cold == warm
        _rank_table.cache_clear()
        assert draws(a, b, degree) == cold


def test_every_twist_of_a_pair_draws_from_one_basis():
    act = suites.an_action(4)
    s0, s1 = enumerate_structures(suites.an_objects(4)[1], act)[:2]
    x, y = s0.factorization, s1.factorization
    _rank_table.cache_clear()
    want = draws(x, y, 0)
    info = _rank_table.cache_info()
    assert info.currsize == 1
    for c in act.characters():
        t = s1.twist(c).factorization
        assert draws(x, t, 0) == want
    assert _rank_table.cache_info().misses == info.misses
    assert _rank_table.cache_info().currsize == 1


def test_draws_at_many_degrees_keep_at_most_the_capped_bases():
    mf = suites.an_objects(4)[1]
    key = homotopy._untwisted(mf)
    degrees = range(_KEPT_DEGREES + 6)
    _rank_table.cache_clear()
    got = [draws(mf, mf, d) for d in degrees]
    prob = _rank_table(key, key)
    assert len(prob.bases) == _KEPT_DEGREES
    # a degree past the cap is answered, not kept, and answered alike
    assert [draws(mf, mf, d) for d in degrees] == got
    assert len(prob.bases) == _KEPT_DEGREES
    _rank_table.cache_clear()
    assert [draws(mf, mf, d) for d in reversed(degrees)] == got[::-1]
