"""Rational coefficients in their stored form: an int when integral, a
Fraction otherwise.

Every operation that hands rationals back (coercion, parsing, JSON, the
polynomial-matrix kernel, a homotopy's boundary and exact elimination)
must give only int or Fraction values, never a float or a bool, and must
agree with the Fraction-only oracle in tests/oracles.py.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
import suites
from mfcat import (
    Homotopy,
    MfMorphism,
    PolyMatrix,
    Polynomial,
    WeightSystem,
    cone,
    find_homotopy,
    hom_space,
    koszul_factorization,
    random_chain_map,
)
from mfcat import linalg
from mfcat.fields import QQ, PrimeField
from mfcat.homotopy import _kept_systems
from mfcat.matrices import sum_of_products


def stored(v):
    """Whether v is in a stored form of QQ: an int (not a bool) or a
    Fraction."""
    return type(v) is int or type(v) is Fraction


def stored_integral(v):
    """Whether v is stored, and an int when its denominator is 1."""
    return stored(v) and (type(v) is int or v.denominator != 1)


def matrix_values(m):
    return [c for row in m.entries for p in row for c in p.terms.values()]


def test_coerce_parse_and_json_give_the_stored_form():
    for x, want in [(Fraction(4, 2), 2), (True, 1), (False, 0), (7, 7),
                    (Fraction(-9, 3), -3)]:
        got = QQ.coerce(x)
        assert type(got) is int and got == want, x
    half = QQ.coerce(Fraction(1, 2))
    assert type(half) is Fraction and half == Fraction(1, 2)
    for text, want, kind in [("3", 3, int), ("-3", -3, int), ("4/2", 2, int),
                             ("1/2", Fraction(1, 2), Fraction),
                             ("-6/4", Fraction(-3, 2), Fraction)]:
        got = QQ.parse(text)
        assert type(got) is kind and got == want, text
    p = Polynomial.from_json(
        [{"coeff": "4/2", "exps": [2]}, {"coeff": "1/2", "exps": [1]},
         {"coeff": "-5", "exps": [0]}], 1, QQ)
    assert [type(p.terms[e]) for e in [(2,), (1,), (0,)]] == [int, Fraction, int]
    assert p.to_json() == [{"coeff": "2", "exps": [2]}, {"coeff": "1/2", "exps": [1]},
                           {"coeff": "-5", "exps": [0]}]
    assert Polynomial(1, {(1,): True}).terms == {(1,): 1}
    assert type(Polynomial(1, {(1,): True}).terms[(1,)]) is int


def test_zero_and_one_stay_fractions_and_the_forms_agree():
    # callers divide by them: one / x must stay exact
    assert type(QQ.zero) is Fraction and QQ.zero == 0
    assert type(QQ.one) is Fraction and QQ.one == 1
    assert QQ.one / QQ.coerce(2) == Fraction(1, 2)
    assert type(QQ.one / QQ.coerce(2)) is Fraction
    # a Fraction with denominator 1 left by a fast path equals the int,
    # hashes and prints the same, so a polynomial holding either is one key
    for n in (-3, 0, 1, 2**70):
        assert Fraction(n) == n and hash(Fraction(n)) == hash(n)
        assert str(Fraction(n)) == str(n)
    a = Polynomial.__new__(Polynomial)
    a.nvars, a.field, a.terms = 1, QQ, {(1,): Fraction(3)}
    b = Polynomial(1, {(1,): 3})
    assert a == b and hash(a) == hash(b) and str(a) == str(b)


# Coefficients: integral ones given as ints or as Fractions of denominator
# 1, and, when a matrix may be non-integral, Fractions with small
# denominators.
INTEGRAL = st.one_of(st.integers(-5, 5), st.integers(-5, 5).map(Fraction))
RATIONAL = st.one_of(INTEGRAL, st.fractions(min_value=-5, max_value=5,
                                            max_denominator=4))


def coefficients(integral):
    return INTEGRAL if integral else RATIONAL


@st.composite
def sparse_systems(draw):
    integral = draw(st.booleans())
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        cols = draw(st.lists(st.integers(0, ncols - 1), max_size=ncols, unique=True))
        row = {c: draw(coefficients(integral)) for c in cols}
        rows.append({c: v for c, v in row.items() if v})
    x = {c: draw(coefficients(integral)) for c in range(ncols)}
    return integral, rows, ncols, x


def densify(rows, ncols):
    return [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]


def oracle_nullspace(dense, ncols):
    red, pivots = orc.dense_rref(dense)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for row, pcol in zip(red, pivots):
            if row[f]:
                vec[pcol] = -row[f]
        basis.append(vec)
    return basis


def oracle_solve(dense, rhs, ncols):
    red, pivots = orc.dense_rref([row + [b] for row, b in zip(dense, rhs)])
    if ncols in pivots:
        return None
    return {pcol: row[ncols] for row, pcol in zip(red, pivots) if row[ncols]}


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_elimination_hands_back_the_stored_form(system):
    integral, rows, ncols, x = system
    dense = densify(rows, ncols)
    red, pivots = linalg.rref(rows, ncols, QQ)
    want_rows, want_pivots = orc.dense_rref(dense)
    assert tuple(pivots) == want_pivots
    assert densify(red, ncols) == [r for r in want_rows if any(r)]
    assert all(stored_integral(v) for row in red for v in row.values())

    basis = linalg.nullspace(rows, ncols, QQ)
    assert basis == oracle_nullspace(dense, ncols)
    assert all(stored_integral(v) for vec in basis for v in vec.values())

    rhs = [sum((v * x[c] for c, v in row.items()), 0) for row in rows]
    sol = linalg.solve(rows, rhs, ncols, QQ)
    assert sol == oracle_solve(dense, [Fraction(b) for b in rhs], ncols)
    assert all(stored_integral(v) for v in sol.values())
    if rows:  # the first equation off by one, often inconsistent
        bad = [rhs[0] + 1] + rhs[1:]
        off = linalg.solve(rows, bad, ncols, QQ)
        assert off == oracle_solve(dense, [Fraction(b) for b in bad], ncols)
        assert off is None or all(stored_integral(v) for v in off.values())

    substitute, _ = linalg.solver(dict(enumerate(rows)), ncols, QQ)
    got = substitute({i: b for i, b in enumerate(rhs) if b})
    assert got == sol
    # a value of E b may be a Fraction of denominator 1, never a float
    assert all(stored(v) for v in got.values())


@st.composite
def poly_matrices(draw, nrows, ncols, integral, nvars=2):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return PolyMatrix(nrows, ncols, nvars, QQ, tuple(
        tuple(Polynomial(nvars, draw(st.dictionaries(
            exps, coefficients(integral), max_size=3)), QQ)
              for _ in range(ncols))
        for _ in range(nrows)))


def oracle_sum(*mats):
    out = [[{} for _ in row] for row in mats[0]]
    for m in mats:
        out = [[orc.padd(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(out, m)]
    return out


def check_values(m, integral):
    """Every coefficient of m is stored; an int when the inputs were."""
    values = matrix_values(m)
    assert all(stored(v) for v in values)
    if integral:
        assert all(type(v) is int for v in values)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matrix_arithmetic_hands_back_the_stored_form(data):
    integral = data.draw(st.booleans())
    n, k, m = (data.draw(st.integers(0, 3)) for _ in range(3))
    a, a2 = (data.draw(poly_matrices(n, k, integral)) for _ in range(2))
    b, b2 = (data.draw(poly_matrices(k, m, integral)) for _ in range(2))
    c = data.draw(coefficients(integral).filter(bool))
    A, A2, B, B2 = map(orc.matrix_to_data, (a, a2, b, b2))

    got = sum_of_products([(a, b), (a2, b2)])
    assert orc.matrix_to_data(got) == oracle_sum(orc.dense_product(A, B, m),
                                                   orc.dense_product(A2, B2, m))
    check_values(got, integral)
    got = a + a2
    assert orc.matrix_to_data(got) == oracle_sum(A, A2)
    check_values(got, integral)
    got = a - a2
    assert orc.matrix_to_data(got) == orc.mat_sub(A, A2)
    check_values(got, integral)
    got = a.scale(c)
    assert orc.matrix_to_data(got) == [[orc.pscale(p, Fraction(c)) for p in row] for row in A]
    check_values(got, integral)
    if n and k:
        got = c * a[0, 0]
        assert orc.poly_to_dict(got) == orc.pscale(A[0][0], Fraction(c))
        assert all(stored(v) for v in got.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_boundary_hands_back_the_stored_form(data):
    # the Koszul factorization of a x^2 + b y^2 on the pairs (a x, x) and
    # (b y, y), and a random homotopy on it
    integral = data.draw(st.booleans())
    a, b = (data.draw(coefficients(integral).filter(bool)) for _ in range(2))
    x, y = (Polynomial.variable(i, 2) for i in range(2))
    mf = koszul_factorization([(x * a, x), (y * b, y)], WeightSystem((1, 1), 2))
    t0 = data.draw(poly_matrices(mf.m1.rank, mf.m0.rank, integral))
    t1 = data.draw(poly_matrices(mf.m0.rank, mf.m1.rank, integral))
    f = Homotopy(source=mf, target=mf, t0=t0, t1=t1).boundary()
    T0, T1 = orc.matrix_to_data(t0), orc.matrix_to_data(t1)
    P0, P1 = orc.matrix_to_data(mf.p0), orc.matrix_to_data(mf.p1)
    # f0 = t1 p0 + q1 t0 and f1 = q0 t1 + t0 p1
    assert orc.matrix_to_data(f.f0) == oracle_sum(orc.mat_mul(T1, P0), orc.mat_mul(P1, T0))
    assert orc.matrix_to_data(f.f1) == oracle_sum(orc.mat_mul(P0, T1), orc.mat_mul(T0, P1))
    for m in (f.f0, f.f1):
        check_values(m, integral)


def check_built_entries(m):
    """m holds no zero coefficient, rational ones in their stored form,
    and equals itself rebuilt entry by entry through Polynomial."""
    values = matrix_values(m)
    assert all(values)
    if m.field.rational:
        assert all(stored_integral(v) for v in values)
    assert m == PolyMatrix(m.nrows, m.ncols, m.nvars, m.field, tuple(
        tuple(Polynomial(m.nvars, p.terms, m.field) for p in row)
        for row in m.entries))


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2**31 - 1)],
                         ids=["Q", "F7", "F2^31-1"])
def test_witnesses_and_representatives_hand_back_the_stored_form(field):
    # witnesses found by an exact solve, by the call that builds a kept
    # solver and by the calls it answers, and hom-space representatives
    _kept_systems.clear()
    reps = 0
    objects = [o for n in range(2, 6) for o in suites.an_objects(n, field).values()]
    objects.append(suites.quadric(field))
    for idx, x in enumerate(objects):
        phi = random_chain_map(x, x, 0, rng=random.Random(idx))
        for m in (phi.f0, phi.f1):
            check_built_entries(m)
        wphi = MfMorphism(x, x, phi.f0.poly_mul(x.W), phi.f1.poly_mul(x.W),
                          degree=phi.degree + x.weights.degree)
        for psi in (cone(phi).inclusion @ phi, wphi):
            for _ in range(3):
                h = find_homotopy(psi)
                assert h.bounds(psi)
                for m in (h.t0, h.t1):
                    check_built_entries(m)
        for shift in (0, 1):
            for per_degree in hom_space(x, x, shift=shift).per_degree:
                for rep in per_degree.representatives:
                    reps += 1
                    for m in (rep.f0, rep.f1):
                        check_built_entries(m)
    assert _kept_systems.hits and reps
    _kept_systems.clear()
