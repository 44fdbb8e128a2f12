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
    # residue neither side is, and Z_p == B_p settles both
    zrows = [{0: Fraction(P)}]
    dvecs = [{1: Fraction(1)}]
    assert linalg.certified_dims(zrows, dvecs, 2, QQ) == (None, 1)
    assert linalg.certified_dims([{0: Fraction(1, P)}], dvecs, 2, QQ) == (None, None)
    assert linalg.certified_dims([{0: Fraction(1)}], dvecs, 2, QQ) == (1, 1)
