"""Equivariant structures, the averaging projector, isotypic bookkeeping.

Enumeration is cross-checked against exhaustive search over all character
assignments, and the projector against a literal two-element group average.
"""

import random

import pytest

import oracles as orc
import suites
from mfcat import (
    QQ,
    EquivariantStructure,
    GradedFreeModule,
    GroupAction,
    MatrixFactorization,
    Polynomial,
    check_equivariant,
    cyclic_action,
    elementary_factorization,
    enumerate_structures,
    equivariant_hom_space,
    hom_space,
    is_equivariant_map,
    isotypic_decompose,
    koszul_factorization,
    parse_poly,
    random_chain_map,
    reynolds,
    reynolds_homotopy,
    stable_hom_g,
    twist_orbits,
    WeightSystem,
)
from mfcat.action import char_sub
from mfcat.equivariant import _ORBIT_CACHE, _orbit_split, _twist_orbit, _twisted
from mfcat.fields import PrimeField
from mfcat import homotopy
from mfcat.homotopy import _KEPT_DEGREES, _rank_table, _untwisted, default_window
from mfcat.errors import GradingError, MfcatError, UsageError


def as_pairs(structures):
    return sorted((tuple(s.chars0), tuple(s.chars1)) for s in structures)


def test_power_structures_match_brute_force():
    act = suites.an_action(4)
    for k, mf in suites.an_objects(4).items():
        lib = as_pairs(enumerate_structures(mf, act))
        brute = orc.brute_force_structures(
            orc.mf_to_data(mf), act.orders, act.exponents)
        assert lib == brute, k
        assert len(lib) == 4, k


def test_quadric_structures_match_brute_force():
    q = suites.quadric()
    act = suites.quadric_action()
    lib = as_pairs(enumerate_structures(q, act))
    brute = orc.brute_force_structures(orc.mf_to_data(q), act.orders, act.exponents)
    assert lib == brute
    assert len(lib) == 2


def test_fermat_structures_match_brute_force():
    # exhaustive search over 3^8 assignments
    f = suites.fermat_cubic()
    act = suites.fermat_action()
    lib = as_pairs(enumerate_structures(f, act))
    brute = orc.brute_force_structures(orc.mf_to_data(f), act.orders, act.exponents)
    assert lib == brute
    assert len(lib) == 3


def test_no_structures_when_w_not_invariant():
    mf = elementary_factorization(
        parse_poly("x1", 1), parse_poly("x1^2", 1), WeightSystem((1,), 3))
    assert enumerate_structures(mf, cyclic_action(2, (1,), 1)) == ()


def test_no_structures_on_mixed_character_entry():
    ws = WeightSystem((1, 1), 2)
    mf = elementary_factorization(
        parse_poly("x1 + x2", 2), parse_poly("x1 - x2", 2), ws)
    act = cyclic_action(2, (1, 0), 2)
    assert act.is_invariant(mf.W)
    assert enumerate_structures(mf, act) == ()
    brute = orc.brute_force_structures(orc.mf_to_data(mf), act.orders, act.exponents)
    assert brute == []


def test_check_equivariant_reports_bad_chars():
    q = suites.quadric()
    act = suites.quadric_action()
    bad = q.with_chars(((0,), (1,)), ((1,), (0,)))
    problems = check_equivariant(bad, act)
    assert problems
    assert any("character eigenvector" in p for p in problems)
    good = q.with_chars(((0,), (0,)), ((1,), (1,)))
    assert check_equivariant(good, act) == []
    # a character of the wrong length is reported, not cut to fit
    long = q.with_chars(((0, 5), (0,)), ((1,), (1,)))
    assert check_equivariant(long, act) == [
        "chars0 character 0 has 2 components for 1 factors"]
    with pytest.raises(MfcatError, match="2 components for 1 factors"):
        EquivariantStructure(long, act)
    short = q.with_chars(((0,), (0,)), ((1,), ()))
    assert check_equivariant(short, act) == [
        "chars1 character 1 has 0 components for 1 factors"]


def test_twist_orbits():
    act = suites.an_action(4)
    mf = suites.an_objects(4)[2]
    sts = enumerate_structures(mf, act)
    orbs = twist_orbits(sts)
    assert [len(o) for o in orbs] == [4]
    f = suites.fermat_cubic()
    sts_f = enumerate_structures(f, suites.fermat_action())
    assert [len(o) for o in twist_orbits(sts_f)] == [3]


def test_twist_is_a_structure():
    # a twist is one of the enumerated structures, one object per
    # (structure, normalized character), and twisting twice is twisting
    # by the sum
    f = suites.fermat_cubic()
    act = suites.fermat_action()
    sts = enumerate_structures(f, act)
    all_pairs = as_pairs(sts)
    for s in sts:
        for a in act.characters():
            t = s.twist(a)
            assert (tuple(t.chars0), tuple(t.chars1)) in all_pairs
            assert t is s.twist((a[0] + act.orders[0],))
            for b in act.characters():
                assert t.twist(b) == s.twist((a[0] + b[0],))


def test_a_twist_over_an_equal_field_made_apart_holds_that_field():
    # PrimeField compares by p and a factorization checks its field by
    # identity, so each field object gets twists of its own
    act = suites.an_action(3)
    for _ in range(2):
        f7 = PrimeField(7)
        s = enumerate_structures(suites.an_objects(3, f7)[1], act)[0]
        t = s.twist((1,))
        assert t.factorization.field is f7
        assert hom_space(s.factorization, t.factorization).total == hom_space(
            s.factorization, s.factorization).total
        assert equivariant_hom_space(s, t).certified


def test_a_character_of_the_wrong_shape_is_refused():
    # a character is one int per cyclic factor; no other length or entry
    # is cut or read to fit
    act = suites.an_action(3)
    s = enumerate_structures(suites.an_objects(3)[1], act)[0]
    f = s.factorization.p0.entries[0][0]
    for bad in ((), (1, 7), (1.0,), ("1",), 1):
        with pytest.raises(UsageError):
            s.twist(bad)
        with pytest.raises(UsageError):
            equivariant_hom_space(s, s, twist_char=bad)
        with pytest.raises(UsageError):
            act.has_character(f, bad)
        with pytest.raises(UsageError):
            act.project_character(f, bad)


def test_reynolds_matches_literal_average():
    q = suites.quadric()
    act = suites.quadric_action()
    sts = enumerate_structures(q, act)
    exps = act.exponents[0]
    for e_src in sts:
        for e_tgt in sts:
            for seed in range(5):
                phi = random_chain_map(q, q, rng=random.Random(300 + seed))
                pi = reynolds(phi, e_src, e_tgt)
                lit0 = orc.literal_reynolds_order2(
                    orc.matrix_to_data(phi.f0),
                    [c[0] for c in e_src.chars0],
                    [c[0] for c in e_tgt.chars0], exps)
                lit1 = orc.literal_reynolds_order2(
                    orc.matrix_to_data(phi.f1),
                    [c[0] for c in e_src.chars1],
                    [c[0] for c in e_tgt.chars1], exps)
                assert orc.matrix_to_data(pi.f0) == lit0
                assert orc.matrix_to_data(pi.f1) == lit1


def test_reynolds_is_projector_and_fixes_equivariants():
    f = suites.fermat_cubic()
    act = suites.fermat_action()
    sts = enumerate_structures(f, act)
    e = sts[0]
    hs = hom_space(f, f)
    reps = [r for p in hs.per_degree for r in p.representatives]
    assert reps
    for phi in reps:
        pi = reynolds(phi, e, e)
        assert pi.is_chain_map()
        assert reynolds(pi, e, e) == pi
        assert is_equivariant_map(pi, e, e)
        if is_equivariant_map(phi, e, e):
            assert pi == phi
        else:
            assert pi != phi
    for seed in range(5):
        phi = random_chain_map(f, f, rng=random.Random(900 + seed))
        pi = reynolds(phi, e, e)
        assert pi.is_chain_map()
        assert reynolds(pi, e, e) == pi


def test_reynolds_commutes_with_boundary():
    q = suites.quadric()
    act = suites.quadric_action()
    sts = enumerate_structures(q, act)
    e = sts[0]
    rng = random.Random(12)
    t = suites.random_homotopy(q, q, 0, rng)
    left = reynolds_homotopy(t, e, e).boundary()
    right = reynolds(t.boundary(), e, e)
    assert left == right


def test_equivariant_hom_dims_fermat():
    f = suites.fermat_cubic()
    sts = enumerate_structures(f, suites.fermat_action())
    e = sts[0]
    assert hom_space(f, f).total == 4
    assert equivariant_hom_space(e, e).total == 1
    iso = isotypic_decompose(e, e)
    assert {k: v.total for k, v in iso.items()} == {(0,): 1, (1,): 0, (2,): 3}


def test_isotypic_sums_to_full_dimension():
    act = suites.an_action(4)
    objs = suites.an_objects(4)
    structures = {k: enumerate_structures(mf, act) for k, mf in objs.items()}
    for a, src_list in structures.items():
        for b, tgt_list in structures.items():
            full = hom_space(objs[a], objs[b]).total
            e_src = src_list[0]
            for e_tgt in tgt_list:
                iso = isotypic_decompose(e_src, e_tgt)
                assert sum(v.total for v in iso.values()) == full, (a, b)


def test_isotypic_matches_trivial_twist():
    f = suites.fermat_cubic()
    act = suites.fermat_action()
    sts = enumerate_structures(f, act)
    e0, e1 = sts[0], sts[1]
    iso = isotypic_decompose(e0, e1)
    for chi in act.characters():
        direct = equivariant_hom_space(e0, e1, twist_char=chi)
        assert direct.total == iso[chi].total


def test_structure_requires_matching_action():
    q = suites.quadric()
    act = suites.quadric_action()
    e = enumerate_structures(q, act)[0]
    other = enumerate_structures(q, act)[1]
    phi = random_chain_map(q, q, rng=random.Random(1))
    wrong_action = cyclic_action(2, (1, 1, 0), 3)
    with pytest.raises(MfcatError):
        EquivariantStructure(q.strip_chars(), wrong_action)
    assert reynolds(phi, e, other).is_chain_map()


def cyclic_structure_pairs(top=6):
    """(action, source, target) over every pair of structures on the
    factorizations of the same x^n, n = 2..top."""
    for n in range(2, top + 1):
        act = suites.an_action(n)
        structs = [st for mf in suites.an_objects(n).values()
                   for st in enumerate_structures(mf, act)]
        for e_src in structs:
            for e_tgt in structs:
                yield act, e_src, e_tgt


def test_isotypic_pieces_split_cycles_and_boundaries():
    # Z and B of a degree block are the direct sums of their character
    # pieces, and a piece's classes have its transformation character;
    # so, in every degree of the default window and at both parities, the
    # (n, r) of the pieces' kept halves add up to those of the pair's
    # rank table
    pairs = 0
    for act, e_src, e_tgt in cyclic_structure_pairs():
        pairs += 1
        src, tgt = e_src.factorization, e_tgt.factorization
        full = hom_space(src, tgt, want_reps=False)
        iso = isotypic_decompose(e_src, e_tgt)
        assert sorted(iso) == sorted(act.characters())
        split, _ = _twist_orbit(e_src, e_tgt)
        assert len(split) == len(act.characters())
        pair = _rank_table(_untwisted(src), _untwisted(tgt)).halves
        lo, hi = default_window(src, tgt)
        for parity in (0, 1):
            for d in range(lo, hi + 1):
                got = [piece.halves[parity][d][:2] for piece in split.values()]
                assert tuple(map(sum, zip(*got))) == pair[parity][d][:2], (d, parity)
        sums = {}
        for chi, hs in iso.items():
            for p in hs.per_degree:
                z, b = sums.get(p.degree, (0, 0))
                sums[p.degree] = (z + p.cycles, b + p.boundaries)
                assert len(p.representatives) == p.dim
                for rep in p.representatives:
                    assert is_equivariant_map(rep, e_src, e_tgt, twist_char=chi)
        assert sums == {p.degree: (p.cycles, p.boundaries) for p in full.per_degree}
    assert pairs == 1484


def test_incompatible_characters_raise():
    # both generators of (x | x^2) with character 0, though p0 = x has
    # character 1: boundaries leave their character piece
    mf = suites.an_objects(3)[1]
    act = suites.an_action(3)
    bad = EquivariantStructure(mf.with_chars(((0,),), ((0,),)), act, validate=False)
    assert check_equivariant(bad.factorization, act)
    with pytest.raises(MfcatError, match="not compatible with the structure"):
        equivariant_hom_space(bad, bad)
    good = enumerate_structures(mf, act)[0]
    for e_src, e_tgt in ((bad, bad), (good, bad), (bad, good)):
        with pytest.raises(MfcatError, match="not compatible with the structure"):
            isotypic_decompose(e_src, e_tgt)


def test_equivariant_errors_keep_their_types_and_messages():
    q = suites.quadric()
    act = suites.quadric_action()
    e = enumerate_structures(q, act)[0]
    other = EquivariantStructure(e.factorization, cyclic_action(2, (1, 0), 2),
                                 validate=False)
    for fn in (equivariant_hom_space, isotypic_decompose):
        with pytest.raises(UsageError, match="^structures live over different actions$"):
            fn(e, other)
    x, y = parse_poly("x1", 2), parse_poly("x2", 2)
    ungraded = enumerate_structures(koszul_factorization([(x, x), (y, y)]), act)[0]
    with pytest.raises(GradingError, match="^hom spaces need a weight system; "
                                          "use truncated_hom_space instead$"):
        equivariant_hom_space(ungraded, ungraded)
    with pytest.raises(GradingError,
                       match="^graded computations need a shared weight system$"):
        isotypic_decompose(ungraded, ungraded)
    # maps are matched to structures up to characters only
    phi = random_chain_map(q, q)
    assert is_equivariant_map(reynolds(phi, e, e.twist((1,))), e, e.twist((1,)))
    shifted = EquivariantStructure(e.factorization.degree_twist(1), act)
    with pytest.raises(UsageError,
                       match="^morphism source does not match the source structure$"):
        reynolds(phi, shifted, e)
    with pytest.raises(UsageError,
                       match="^morphism target does not match the target structure$"):
        is_equivariant_map(phi, e, shifted)


def fingerprint(hs):
    """Everything a hom space holds, with the term order of its maps."""
    def terms(mat):
        return [[list(f.terms.items()) for f in row] for row in mat.entries]

    return (hs.to_json(), hs.window, hs.source, hs.target, [
        (p.degree, [(r.source, r.target, r.degree, terms(r.f0), terms(r.f1))
                    for r in p.representatives])
        for p in hs.per_degree])


def test_twist_orbit_sharing_changes_no_answer():
    # every answer served from a shared twist orbit and a shared twist
    # equals the answer of the same call on empty caches, and its
    # representatives are maps between the caller's own structures with
    # the piece's character
    for act, e_src, e_tgt in cyclic_structure_pairs(top=5):
        chars = act.characters()
        calls = []
        for c in chars:
            t = e_tgt.twist(c)
            calls += [(c, t, chi, lambda t, chi=chi: equivariant_hom_space(
                e_src, t, twist_char=chi)) for chi in chars]
            calls.append((c, t, None, lambda t: isotypic_decompose(e_src, t)))
        shared = [call(t) for _, t, _, call in calls]
        for (c, t, chi, call), got in zip(calls, shared):
            _orbit_split.cache_clear()
            _twisted.cache_clear()
            want = call(e_tgt.twist(c))
            spaces = {chi: got} if chi is not None else got
            if chi is None:
                assert list(got) == list(want)
            else:
                want = {chi: want}
            for ch, hs in spaces.items():
                assert fingerprint(hs) == fingerprint(want[ch])
                assert hs == want[ch]
                for p in hs.per_degree:
                    for rep in p.representatives:
                        assert rep.source is e_src.factorization
                        assert rep.target is t.factorization
                        assert is_equivariant_map(rep, e_src, t, twist_char=ch)


def test_twist_orbit_cache_failures_and_bound():
    mf = suites.an_objects(3)[1]
    act = suites.an_action(3)
    bad = EquivariantStructure(mf.with_chars(((0,),), ((0,),)), act, validate=False)
    for _ in range(2):
        with pytest.raises(MfcatError, match="not compatible with the structure"):
            equivariant_hom_space(bad, bad)
        with pytest.raises(MfcatError, match="not compatible with the structure"):
            isotypic_decompose(bad, bad)
    s0, s1, _ = enumerate_structures(mf, act)

    def table(hs):
        return [(p.degree, p.cycles, p.boundaries) for p in hs.per_degree]

    # recorded before twist orbits were shared
    want = {(0,): [(1, 1, 1)], (1,): [(0, 1, 0)], (2,): []}
    assert {chi: table(hs) for chi, hs in isotypic_decompose(s0, s1).items()} == want
    assert table(equivariant_hom_space(s0, s1, twist_char=(1,))) == want[(1,)]
    # degree twists give distinct orbits: more than the bound evicts the
    # oldest, which is then rebuilt with the same answers
    assert _orbit_split.cache_info().maxsize == _ORBIT_CACHE
    _orbit_split.cache_clear()
    first = fingerprint(equivariant_hom_space(s0, s1, twist_char=(1,)))
    for k in range(1, _ORBIT_CACHE + 2):
        e = EquivariantStructure(s1.factorization.degree_twist(k), act)
        equivariant_hom_space(e, e)
    assert _orbit_split.cache_info().currsize == _ORBIT_CACHE
    misses = _orbit_split.cache_info().misses
    assert fingerprint(equivariant_hom_space(s0, s1, twist_char=(1,))) == first
    assert _orbit_split.cache_info().misses == misses + 1


def test_equal_structures_share_one_orbit_entry():
    # the orbit key compares the fields a twist shares, not objects: a
    # separately built copy of a pair and its twists read the pair's entry
    act = suites.an_action(4)

    def structures():
        return enumerate_structures(suites.an_objects(4)[1], act)[:2]

    (s0, s1), (c0, c1) = structures(), structures()
    assert (c0, c1) == (s0, s1)
    assert c0.factorization.p0 is not s0.factorization.p0
    _orbit_split.cache_clear()
    first = isotypic_decompose(s0, s1)
    assert _orbit_split.cache_info().misses == 1
    hits = _orbit_split.cache_info().hits
    second = isotypic_decompose(c0, c1)
    twisted = equivariant_hom_space(c0.twist((3,)), c1, twist_char=(2,))
    assert _orbit_split.cache_info().misses == 1
    assert _orbit_split.cache_info().hits == hits + 2
    assert list(second) == list(first)
    assert all(fingerprint(second[chi]) == fingerprint(first[chi]) for chi in first)
    _orbit_split.cache_clear()
    assert fingerprint(twisted) == fingerprint(
        equivariant_hom_space(c0.twist((3,)), c1, twist_char=(2,)))
    # a degree twist moves the generator degrees, so it is another orbit
    d0, d1 = (EquivariantStructure(s.factorization.degree_twist(1), act)
              for s in (s0, s1))
    misses = _orbit_split.cache_info().misses
    isotypic_decompose(d0, d1)
    assert _orbit_split.cache_info().misses == misses + 1


def test_warm_tables_equal_cold_answers():
    # per source structure and twist orbit of targets, over x^2..x^6:
    # answers read from kept tables equal those of a run on an emptied
    # orbit cache, made in the reverse order so that another caller builds
    # each table; every representative has its own caller's endpoints
    for n in range(2, 7):
        act = suites.an_action(n)
        chars = act.characters()
        structs = [st for mf in suites.an_objects(n).values()
                   for st in enumerate_structures(mf, act)]
        orbits = twist_orbits(structs)
        assert sum(map(len, orbits)) == len(structs)
        for e_src in structs:
            for orbit in orbits:
                calls = []
                for t in orbit:
                    calls.append((t, lambda t=t: isotypic_decompose(e_src, t)))
                    calls += [(t, lambda t=t, chi=chi: {chi: equivariant_hom_space(
                        e_src, t, twist_char=chi)}) for chi in chars]
                isotypic_decompose(e_src, orbit[0])
                warm = [call() for _, call in calls]
                _orbit_split.cache_clear()
                cold = [call() for _, call in reversed(calls)][::-1]
                for (t, _), got, want in zip(calls, warm, cold):
                    assert list(got) == list(want)
                    for chi, hs in got.items():
                        assert fingerprint(hs) == fingerprint(want[chi])
                        for p in hs.per_degree:
                            for rep in p.representatives:
                                assert rep.source is e_src.factorization
                                assert rep.target is t.factorization


def test_explicit_windows_keep_no_tables():
    # a piece keeps at most one table, of its default window, and halves
    # of default-window degrees only; other windows read the halves and equal
    # the answers on an emptied orbit cache
    act = suites.an_action(4)
    objs = suites.an_objects(4)
    e_src = enumerate_structures(objs[1], act)[0]
    e_tgt = enumerate_structures(objs[3], act)[1]
    windows = [(lo, lo + k) for lo in range(-10, 10) for k in range(10)]
    assert len(set(windows)) == 200
    chi = (1,)
    _orbit_split.cache_clear()
    got = [equivariant_hom_space(e_src, e_tgt, w, twist_char=chi) for w in windows]
    split, need0 = _twist_orbit(e_src, e_tgt)
    piece = split[char_sub(chi, need0, act.orders)]
    lo, hi = piece.window
    assert all(lo <= d <= hi for half in piece.halves for d in half)
    assert type(piece) is type(split.prob) and set(vars(piece)) == set(vars(split.prob))
    assert piece.window == split.prob.window and piece.halves is not split.prob.halves
    assert piece.tables is not split.prob.tables and set(piece.tables) <= {(0, True)}
    for w, hs in zip(windows, got):
        _orbit_split.cache_clear()
        assert hs == equivariant_hom_space(e_src, e_tgt, w, twist_char=chi)
    assert any(p.representatives for hs in got for p in hs.per_degree)


def test_isotypic_decompose_keeps_one_table_on_its_pair():
    # every twist reads the plain pair without representatives for its sum
    # check, so the pair's entry keeps that one table, and each piece one
    # table with representatives
    act = suites.an_action(4)
    s0, s1 = enumerate_structures(suites.an_objects(4)[1], act)[:2]
    _rank_table.cache_clear()
    _orbit_split.cache_clear()
    for c in act.characters():
        isotypic_decompose(s0, s1.twist(c))
    key = _untwisted(s0.factorization)
    split, _ = _twist_orbit(s0, s1)
    assert split.prob is _rank_table(key, key)
    assert list(split.prob.tables) == [(0, False)]
    assert len(split) == len(act.characters())
    assert all(list(piece.tables) == [(0, True)] for piece in split.values())


def test_a_character_piece_starts_with_an_empty_store_of_cycle_bases():
    # a piece is made from its pair's entry but must not alias its pair's bases
    act = suites.an_action(4)
    s0, s1 = enumerate_structures(suites.an_objects(4)[1], act)[:2]
    _rank_table.cache_clear()
    _orbit_split.cache_clear()
    random_chain_map(s0.factorization, s1.factorization, 0)
    split, _ = _twist_orbit(s0, s1)
    assert list(split.prob.bases) == [0]
    assert all(split[c].bases == {} and split[c].bases is not split.prob.bases
               for c in act.characters())


def test_a_wide_window_keeps_at_most_the_capped_degrees_per_piece():
    # on (x | x^3) under Z/4, 4,001 degrees are answered; each half of a
    # piece keeps default-window degrees only, the split at most
    # _KEPT_DEGREES groupings of unknowns by grade and the full space's
    # rank table as many halves, and the answers equal a fresh problem's
    # and the default window's
    act = suites.an_action(4)
    e = enumerate_structures(suites.an_objects(4)[1], act)[0]
    wide = (-2000, 2000)
    key = _untwisted(e.factorization)

    def answers():
        return [isotypic_decompose(e, e, wide)] + [
            equivariant_hom_space(e, e, wide, twist_char=chi)
            for chi in act.characters()]

    _orbit_split.cache_clear()
    _rank_table.cache_clear()
    got = [answers() for _ in range(2)]
    split, _ = _twist_orbit(e, e)
    # the split is made from the pair's own entry, so the full space and
    # the pieces share one kept problem
    assert split.prob is _rank_table(key, key)
    lo, hi = default_window(e.factorization, e.factorization)
    assert 0 < len(split.groups) <= _KEPT_DEGREES
    assert all(set(half) == set(range(lo, hi + 1))
               for piece in split.values() for half in piece.halves)
    assert all(len(half) <= _KEPT_DEGREES for half in _rank_table(key, key).halves)
    _orbit_split.cache_clear()
    _rank_table.cache_clear()
    fresh = answers()
    assert got[0] == got[1] == fresh
    default = isotypic_decompose(e, e)
    assert any(p.representatives for hs in default.values() for p in hs.per_degree)
    lo, hi = default[act.zero_char()].window
    for chi, hs in fresh[0].items():
        inside = [p for p in hs.per_degree if lo <= p.degree <= hi]
        assert tuple(inside) == default[chi].per_degree and hs.certified
        assert all(p.dim == 0 for p in hs.per_degree if not lo <= p.degree <= hi)
        assert fresh[1 + act.characters().index(chi)].per_degree == hs.per_degree


def test_a_wide_window_leaves_default_piece_reads_warm(monkeypatch):
    # after a wide window, a default isotypic decomposition assembles only
    # the piece blocks whose classes need representatives, and the full
    # space none; a second one assembles nothing
    act = suites.an_action(4)
    e = enumerate_structures(suites.an_objects(4)[1], act)[0]
    _orbit_split.cache_clear()
    _rank_table.cache_clear()
    isotypic_decompose(e, e, (-2000, 2000))
    assembled = []
    block = homotopy.HomProblem.degree_block

    def counted(self, d):
        assembled.append(d)
        return block(self, d)

    monkeypatch.setattr(homotopy.HomProblem, "degree_block", counted)
    spaces = isotypic_decompose(e, e)
    assert sorted(assembled) == sorted(
        p.degree for hs in spaces.values() for p in hs.per_degree if p.dim)
    assert assembled
    del assembled[:]
    assert isotypic_decompose(e, e) == spaces
    assert assembled == []


def test_grading_keeps_no_store_per_monomial():
    # the grade of an orbit split reads each monomial's character afresh:
    # after a 4,001-degree window on (x | x^3) under Z/4, nothing its
    # closure holds has more entries than the problem has slots
    act = suites.an_action(4)
    e = enumerate_structures(suites.an_objects(4)[1], act)[0]
    _orbit_split.cache_clear()
    equivariant_hom_space(e, e, window=(-2000, 2000))
    split, _ = _twist_orbit(e, e)
    held = [cell.cell_contents for cell in split.grade.__closure__]
    prob = homotopy.HomProblem(split.prob.source, split.prob.target)
    slots = len(prob.even_slots) + len(prob.odd_slots)
    assert all(len(x) <= slots for x in held if hasattr(x, "__len__"))
    assert 0 < len(split.groups) <= _KEPT_DEGREES


def test_residue_field_tables_match_the_exterior_algebra():
    # End of the stabilized residue field of x^r + y^r is the exterior
    # algebra on two odd classes; its even part, split by character,
    # against tests/oracles.py, for Z/r acting by (1, -1) and by (1, 1)
    for r in range(3, 7):
        ws = WeightSystem((1, 1), r)
        x, y = (Polynomial.variable(i, 2) for i in range(2))
        k = koszul_factorization([(x, x ** (r - 1)), (y, y ** (r - 1))], ws)
        for exps in ((1, -1), (1, 1)):
            act = cyclic_action(r, exps, 2)
            structures = enumerate_structures(k, act)
            assert len(structures) == r
            e = structures[0]
            tables = {}
            for (tau,) in act.characters():
                iso = isotypic_decompose(e, e.twist((tau,)))
                assert all(hs.certified for hs in iso.values())
                tables[tau] = {chi: {p.degree: p.dim for p in hs.per_degree if p.dim}
                               for chi, hs in iso.items()}
                assert tables[tau] == orc.residue_field_even_table(
                    (1, 1), r, exps, r, twist=tau), (r, exps, tau)
            # Λ^0 and Λ^2 both invariant exactly for a group in SL(2)
            lambda2_invariant = sum(tables[0][(0,)].values()) == 2
            assert act.is_special_linear() == lambda2_invariant, (r, exps)
            assert lambda2_invariant == (exps == (1, -1))


def euler_form_oracle(r, chars):
    """The Euler form sum_T (-1)^|T| [a - b = chi_T mod r] of the twists k_a,
    k_b of the residue field under Z/r, chi_T the sum of chars[i] over the
    variables i in T, from the characters of the variables alone.

    Let K_a be the Koszul factorization of W = sum x_i v_i on (x_i, v_i),
    twisted so that its generator e_() has character a.  An entry of an
    equivariant map has the character of its row generator minus that of
    its column generator, and p carries e_S to x_i e_(S+i); so e_S has
    character a + chi_S and parity |S|.  The x_i form a regular sequence
    resolving k = R/(x) at the top generator e_N, and every x_i and v_i
    lies in the maximal ideal, so Hom(K_a, K_b) is quasi-isomorphic to
    Hom_R(K_a, k e_N) with zero differential: one class e_S -> e_N per
    subset S, of parity |N| - |S|.  It is invariant exactly when
    b + chi_N = a + chi_S, that is a - b = chi_T for T the complement of S,
    of parity |T|.  The even invariant classes minus the odd ones give the
    sum.
    """
    form = [[0] * r for _ in range(r)]
    for mask in range(1 << len(chars)):
        size = bin(mask).count("1")
        shift = sum(c for i, c in enumerate(chars) if mask >> i & 1)
        for a in range(r):
            form[a][(a - shift) % r] += (-1) ** size
    return form


def residue_field_euler_form(r, chars, weights, degree):
    """chi(k_a, k_b) = dim Hom(k_a, k_b)^G - dim Hom(k_a, k_b[1])^G over the
    twists of the equivariant residue field of the Fermat potential
    sum x_i^degree under Z/r acting by chars, each hom certified."""
    n = len(chars)
    xs = [Polynomial.variable(i, n) for i in range(n)]
    k = koszul_factorization([(x, x ** (degree - 1)) for x in xs],
                             WeightSystem(weights, degree))
    structures = enumerate_structures(k, cyclic_action(r, chars, n))
    assert len(structures) == r
    twists = [structures[0].twist((a,)) for a in range(r)]
    homs = [[[stable_hom_g(ka, kb, j) for j in (0, 1)] for kb in twists]
            for ka in twists]
    assert all(hs.certified for row in homs for pair in row for hs in pair)
    return [[even.total - odd.total for even, odd in row] for row in homs]


def test_the_euler_form_of_the_residue_field_is_the_affine_cartan_matrix():
    # the McKay correspondence: for Z/r acting by (1, -1) on x^r + y^r, a
    # subgroup of SL(2), the Euler form is 2I - A with A the adjacency
    # matrix of the r-cycle, the affine Cartan matrix of A~_(r-1), whose two
    # edges coincide at r = 2
    for r in range(2, 7):
        want = euler_form_oracle(r, (1, -1))
        assert residue_field_euler_form(r, (1, -1), (1, 1), r) == want, r
        cartan = [[2 * (a == b) for b in range(r)] for a in range(r)]
        for a in range(r):
            for b in ((a + 1) % r, (a - 1) % r):
                cartan[a][b] -= 1
        assert want == cartan, r
    # Z/3 acting by (1, 1, 1) on the Fermat cubic: the antisymmetric form
    # of the Beilinson quiver of local P^2, which fixes the sign of a - b
    want = euler_form_oracle(3, (1, 1, 1))
    assert residue_field_euler_form(3, (1, 1, 1), (1, 1, 1), 3) == want
    assert want == [[0, 3, -3], [-3, 0, 3], [3, -3, 0]]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_every_handed_over_char_free_copy_is_the_stripped_factorization(field):
    # with_chars and the kept shift hand over a char-free copy instead of
    # stripping the characters again: over every suite object and every
    # structure on it, that copy is the stripped factorization, hash and
    # all, for the structure's factorization, each twist and each shift
    actions = {"quadric": suites.quadric_action(), "fermat": suites.fermat_action()}
    # twists are kept by structure up to equality: start with none kept
    _twisted.cache_clear()
    seen = 0
    for label, mf in suites.full_suite(field):
        act = actions.get(label) or suites.an_action(mf.weights.degree)
        for st in enumerate_structures(mf, act):
            twists = [st.twist(c).factorization for c in act.characters()]
            for x in [st.factorization] + twists:
                for y in (x, x.shift()):
                    key, want = _untwisted(y), y.strip_chars()
                    assert key == want and hash(key) == hash(want)
                    assert key.m0.chars is key.m1.chars is None
                    seen += 1
                assert _untwisted(x.shift()) is _untwisted(x).shift()
                assert _untwisted(x) is _untwisted(st.factorization)
    assert seen > 100


def test_warm_equivariant_reads_compare_nothing_field_by_field(monkeypatch):
    # after one warm-up, every store key of an equivariant read matches by
    # identity, so no factorization, module, action or weight system is
    # compared with another object; the action and weight system checks
    # compare one object with itself, which their __eq__ answers at once
    act = suites.an_action(4)
    objs = suites.an_objects(4)
    _twisted.cache_clear()
    _orbit_split.cache_clear()
    _rank_table.cache_clear()
    e1 = enumerate_structures(objs[1], act)[0]
    e2 = enumerate_structures(objs[2], act)[1]
    twists = [e2.twist(c) for c in act.characters()]

    def reads():
        return ([equivariant_hom_space(e1, t) for t in twists]
                + [equivariant_hom_space(e1, e2), isotypic_decompose(e1, e2)])

    want = reads()
    compared = []
    for cls in (MatrixFactorization, GradedFreeModule, GroupAction, WeightSystem):
        def counted(self, other, eq=cls.__eq__, name=cls.__name__):
            if other is not self:
                compared.append(name)
            return eq(self, other)

        monkeypatch.setattr(cls, "__eq__", counted)
    assert reads() == want
    assert compared == []
    monkeypatch.undo()
    # equal but distinct weight systems and actions still compare equal
    ws, ws2 = WeightSystem((1, 2), 6), WeightSystem((1, 2), 6)
    g, g2 = cyclic_action(4, (1, 3), 2), cyclic_action(4, (1, 3), 2)
    assert ws is not ws2 and ws == ws2 and not ws != ws2
    assert hash(ws) == hash(ws2) == hash(((1, 2), 6))
    assert g is not g2 and g == g2 and not g != g2
    assert hash(g) == hash(g2) == hash(((4,), ((1, 3),), 2))
    assert ws != WeightSystem((1, 2), 8) and g != cyclic_action(4, (1, 1), 2)
    assert ws != (1, 2) and g != ws
