"""Sparse exact linear algebra against the dense oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from mfcat import linalg
from mfcat.errors import UsageError
from mfcat.fields import QQ, PrimeField

P = linalg.PRIME


def random_sparse(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def densify(rows, ncols, zero=Fraction(0)):
    return [[row.get(c, zero) for c in range(ncols)] for row in rows]


def test_rref_matches_dense_oracle():
    rng = random.Random(11)
    for trial in range(40):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        rows = random_sparse(rng, nrows, ncols)
        got_rows, got_pivots = linalg.rref(rows, ncols, QQ)
        want_rows, want_pivots = orc.dense_rref(densify(rows, ncols))
        assert tuple(got_pivots) == want_pivots, trial
        got_dense = densify(got_rows, ncols)
        want_nonzero = [r for r in want_rows if any(r)]
        assert got_dense == want_nonzero, trial


def test_rank_and_nullspace():
    rng = random.Random(23)
    for _ in range(30):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = random_sparse(rng, nrows, ncols)
        r = linalg.rank(rows, ncols, QQ)
        assert r == orc.dense_rank(densify(rows, ncols))
        basis = linalg.nullspace(rows, ncols, QQ)
        assert len(basis) == ncols - r
        for vec in basis:
            for row in rows:
                s = sum((row.get(c, Fraction(0)) * v for c, v in vec.items()),
                        Fraction(0))
                assert s == 0


def test_solve_consistent_and_inconsistent():
    rng = random.Random(5)
    for _ in range(30):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = random_sparse(rng, nrows, ncols, density=0.7)
        x = {c: Fraction(rng.randint(-3, 3)) for c in range(ncols)}
        rhs = []
        for row in rows:
            rhs.append(sum((v * x.get(c, Fraction(0))
                            for c, v in row.items()), Fraction(0)))
        sol = linalg.solve(rows, rhs, ncols, QQ)
        assert sol is not None
        for row, b in zip(rows, rhs):
            s = sum((v * sol.get(c, Fraction(0)) for c, v in row.items()),
                    Fraction(0))
            assert s == b
    # a visibly inconsistent system
    rows = [{0: Fraction(1)}, {0: Fraction(1)}]
    assert linalg.solve(rows, [Fraction(1), Fraction(2)], 1, QQ) is None


def test_kept_solver_matches_solve():
    # on every consistent right-hand side, including those of systems with
    # dependent equations, the kept solver gives solve's solution
    for field in (QQ, PrimeField(7), PrimeField(P)):
        rng = random.Random(31)
        for trial in range(40):
            nrows = rng.randint(1, 7)
            ncols = rng.randint(1, 6)
            rows = [{c: field.coerce(rng.randint(-3, 3))
                     for c in range(ncols) if rng.random() < 0.5}
                    for _ in range(nrows)]
            rows = [{c: v for c, v in row.items() if v} for row in rows]
            if rows and rng.random() < 0.5:  # a dependent equation
                rows.append({c: v + v for c, v in rows[0].items()})
            keyed = {("eq", i): row for i, row in enumerate(rows)}
            substitute, _ = linalg.solver(keyed, ncols, field)
            for _ in range(3):
                x = {c: field.coerce(rng.randint(-3, 3)) for c in range(ncols)}
                rhs = [sum((v * x[c] for c, v in row.items()), field.zero)
                       for row in rows]
                want = linalg.solve(rows, rhs, ncols, field)
                got = substitute({("eq", i): b for i, b in enumerate(rhs) if b})
                assert got == want and list(got) == list(want), (field, trial)


def test_prime_field_rank_differs_from_rational():
    # det = 1 - 6 = -5, so the matrix drops rank exactly over GF(5)
    gf5 = PrimeField(5)
    rows_q = [{0: Fraction(1), 1: Fraction(2)},
              {0: Fraction(3), 1: Fraction(1)}]
    rows_5 = [{0: gf5.coerce(1), 1: gf5.coerce(2)},
              {0: gf5.coerce(3), 1: gf5.coerce(1)}]
    assert linalg.rank(rows_q, 2, QQ) == 2
    assert linalg.rank(rows_5, 2, gf5) == 1


def test_feasible_nonneg():
    # x + y = 2 with x, y >= 0 is feasible; x = -1 is not
    sol = linalg.feasible_nonneg([[Fraction(1), Fraction(1)]], [Fraction(2)])
    assert sol is not None and sum(sol) == 2 and min(sol) >= 0
    assert linalg.feasible_nonneg([[Fraction(1)]], [Fraction(-1)]) is None


# Entries that defeat the reduction mod PRIME: multiples of it vanish, and
# denominators divisible by it have no residue.
ENTRIES = st.one_of(
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.integers(-2, 2).map(lambda k: Fraction(k * P)),
    st.sampled_from([1, -1, 3]).map(lambda k: Fraction(k, P)),
    st.sampled_from([1, 2]).map(lambda k: Fraction(P + k, 2 * P)),
)


@st.composite
def sparse_matrices(draw):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        cols = draw(st.lists(st.integers(0, ncols - 1), max_size=ncols, unique=True))
        rows.append({c: draw(ENTRIES) for c in cols})
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_certified_rank_matches_dense_oracle(system):
    rows, ncols = system
    assert linalg.rank(rows, ncols, QQ) == orc.dense_rank(densify(rows, ncols))


@st.composite
def fields_and_matrices(draw):
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(P)]))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(nrows):
        ints = draw(st.lists(st.integers(-7, 7), min_size=ncols, max_size=ncols))
        coerced = [field.coerce(v) for v in ints]
        rows.append({c: v for c, v in enumerate(coerced) if v})
    return field, rows, ncols


@settings(max_examples=300, deadline=None)
@given(fields_and_matrices())
def test_nullspace_vectors_end_at_their_free_column(system):
    # the fact hom_space reads boundary coordinates by: a basis vector's
    # largest key is its free column (a non-pivot column of the dense
    # oracle), where it is 1, and it is 0 at every other free column
    field, rows, ncols = system
    zero = field.zero
    dense = densify(rows, ncols, zero)
    _, pivots = orc.dense_rref(dense, field.one)
    free = [c for c in range(ncols) if c not in pivots]
    basis = linalg.nullspace(rows, ncols, field)
    assert [max(vec) for vec in basis] == free
    for vec, f in zip(basis, free):
        assert vec[f] == field.one
        assert not any(vec.get(g, zero) for g in free if g != f)
        for row in dense:
            assert not sum((a * vec.get(c, zero) for c, a in enumerate(row)), zero)


def test_rank_falls_back_when_the_prime_divides():
    # a rank mod PRIME below the bound certifies nothing
    assert linalg.rank([{0: Fraction(P)}], 1, QQ) == 1
    det_p = [{0: Fraction(P + 1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    assert linalg.rank(det_p, 2, QQ) == 2
    assert linalg.rank(det_p, 2, PrimeField(P)) == 1
    # no reduction mod PRIME at all: over Q exact, over F_p an error
    assert linalg.rank([{0: Fraction(1, P)}, {0: Fraction(2)}], 1, QQ) == 1
    with pytest.raises(UsageError):
        linalg.rank([{0: Fraction(1, P)}], 1, PrimeField(P))


def test_prime_field_rref_matches_dense_oracle():
    # same pivots and the same reduced rows, including fill-in and cancellation
    for p in (5, 7, P):
        gf = PrimeField(p)
        rng = random.Random(p)
        for trial in range(60):
            nrows = rng.randint(0, 7)
            ncols = rng.randint(1, 7)
            rows = [{c: gf.coerce(rng.randint(-3, 3))
                     for c in range(ncols) if rng.random() < 0.4}
                    for _ in range(nrows)]
            rows = [{c: v for c, v in row.items() if v} for row in rows]
            got_rows, got_pivots = linalg.rref(rows, ncols, gf)
            want_rows, want_pivots = orc.dense_rref(densify(rows, ncols, gf.zero), gf.one)
            assert tuple(got_pivots) == want_pivots, (p, trial)
            assert densify(got_rows, ncols, gf.zero) == [r for r in want_rows if any(r)]
            assert linalg.rank(rows, ncols, gf) == len(want_pivots)
            for vec in linalg.nullspace(rows, ncols, gf):
                for row in rows:
                    assert not sum((v * vec.get(c, gf.zero) for c, v in row.items()),
                                   gf.zero)


def test_certified_dims_leave_a_rank_drop_open():
    # the cycle equation 2^31 - 1 vanishes mod p: Z_p = 2 but Z = 1, so
    # only the boundary side (full rank mod p) may be settled; with no
    # residue the cycle side has no rank mod p and the boundary side is
    # still settled by its own, and Z_p == B_p settles both
    def dims(zrows, dvecs):
        return linalg.certified_dims(2, linalg.certified_rank(zrows, 2, QQ),
                                     linalg.certified_rank(dvecs, 2, QQ))

    zrows = [{0: Fraction(P)}]
    dvecs = [{1: Fraction(1)}]
    assert linalg.certified_rank(zrows, 2, QQ) == (0, False)
    assert linalg.certified_rank([{0: Fraction(1, P)}], 2, QQ) == (None, False)
    assert dims(zrows, dvecs) == (None, 1)
    assert dims([{0: Fraction(1, P)}], dvecs) == (None, 1)
    assert dims([{0: Fraction(1)}], dvecs) == (1, 1)


def sparse_system(rng, nrows, ncols, density=0.1):
    """About nrows rows over ncols columns at the given density, with rows
    that are combinations of earlier ones and rows that are empty."""
    rows = random_sparse(rng, nrows, ncols, density)
    for k in range(0, nrows, 5):
        rows[k] = {}
    for k in range(3, nrows, 7):
        a, b = rng.sample(range(k), 2)
        fa, fb = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(1, 3))
        row = {c: fa * v for c, v in rows[a].items()}
        for c, v in rows[b].items():
            row[c] = row.get(c, Fraction(0)) + fb * v
        rows[k] = {c: v for c, v in row.items() if v}
    return rows


def test_exact_elimination_of_larger_sparse_systems():
    # the exact path, forward only and reduced, against the dense oracle
    rng = random.Random(97)
    for trial in range(12):
        ncols = rng.randint(24, 32)
        rows = sparse_system(rng, rng.randint(34, 44), ncols)
        want_rows, want_pivots = orc.dense_rref(densify(rows, ncols))
        got_rows, got_pivots = linalg._rref_qq(rows, ncols, True)
        assert tuple(got_pivots) == want_pivots, trial
        assert densify(got_rows, ncols) == [r for r in want_rows if any(r)], trial
        assert tuple(linalg._rref_qq(rows, ncols, False)[1]) == want_pivots, trial
        # a denominator divisible by PRIME leaves no reduction mod PRIME
        spoiled = [dict(row) for row in rows]
        k = rng.randrange(len(spoiled))
        c = rng.randrange(ncols)
        spoiled[k][c] = spoiled[k].get(c, Fraction(0)) + Fraction(1, P)
        assert linalg.rank(spoiled, ncols, QQ) == orc.dense_rank(densify(spoiled, ncols))


def test_kept_solver_of_overdetermined_sparse_systems():
    # [A | I] pivots on A's columns only, its rows are E with E A = R, the
    # kept solver's size counts E's entries, and on consistent right-hand
    # sides it gives solve's answer
    rng = random.Random(41)
    for trial in range(8):
        ncols = rng.randint(24, 32)
        rows = sparse_system(rng, rng.randint(36, 44), ncols)
        tagged = [{**row, ncols + i: Fraction(1)} for i, row in enumerate(rows)]
        red, pivots = linalg.rref(tagged, ncols, QQ)
        want_rows, want_pivots = orc.dense_rref(densify(rows, ncols))
        assert tuple(pivots) == want_pivots and all(c < ncols for c in pivots)
        for got, want in zip(red, want_rows):
            combo = [sum((e * rows[c - ncols].get(j, Fraction(0))
                          for c, e in got.items() if c >= ncols), Fraction(0))
                     for j in range(ncols)]
            assert combo == want == [got.get(j, Fraction(0)) for j in range(ncols)]
        keyed = {("eq", i): row for i, row in enumerate(rows)}
        substitute, size = linalg.solver(keyed, ncols, QQ)
        # the solver reports the E entries it holds
        assert size == sum(1 for row in red for c in row if c >= ncols)
        for _ in range(3):
            x = {c: Fraction(rng.randint(-3, 3)) for c in range(ncols)}
            rhs = [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]
            want = linalg.solve(rows, rhs, ncols, QQ)
            got = substitute({("eq", i): b for i, b in enumerate(rhs) if b})
            assert got == want and list(got) == list(want), trial
