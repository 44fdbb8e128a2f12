"""Sparse exact linear algebra against the dense oracle."""

import random
from fractions import Fraction

import oracles as orc
from mfcat import linalg
from mfcat.fields import QQ, PrimeField


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


def densify(rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


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
