"""The polynomial-matrix product kernel against a naive dense product."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from mfcat import PolyMatrix, Polynomial, zero_factorization
from mfcat.errors import UsageError
from mfcat.fields import QQ, PrimeField
from mfcat import matrices
from mfcat.matrices import products_equal, sum_of_products

FIELDS = [QQ, PrimeField(7), PrimeField(2**31 - 1)]
FIELD_IDS = ["Q", "F7", "F2^31-1"]


def modulus(field):
    return None if field.rational else field.p


def random_poly(rng, nvars, field, density=0.5):
    """Zero with probability 1 - density, else up to three terms of
    exponent at most 2 and coefficient in -3..3."""
    if rng.random() > density:
        return Polynomial.zero(nvars, field)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[e] = rng.randint(-3, 3)
    return Polynomial(nvars, terms, field)


def random_matrix(rng, nrows, ncols, nvars, field, density=0.5):
    return PolyMatrix(
        nrows, ncols, nvars, field,
        tuple(tuple(random_poly(rng, nvars, field, density) for _ in range(ncols))
              for _ in range(nrows)),
    )


def oracle_product(a, b):
    return orc.dense_product(
        orc.matrix_to_field_data(a), orc.matrix_to_field_data(b), b.ncols,
        modulus(a.field))


def oracle_sum(mats, p):
    out = [[{} for _ in row] for row in mats[0]]
    for m in mats:
        for i, row in enumerate(m):
            for j, entry in enumerate(row):
                acc = dict(out[i][j])
                for e, c in entry.items():
                    acc[e] = acc.get(e, 0) + c
                if p is not None:
                    acc = {e: c % p for e, c in acc.items()}
                out[i][j] = {e: c for e, c in acc.items() if c}
    return out


def assert_clean(m):
    """No entry holds a zero coefficient."""
    for row in m.entries:
        for poly in row:
            assert all(poly.terms.values()), poly.terms


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_matmul_against_dense_oracle(field):
    rng = random.Random(5)
    shapes = [(1, 1, 1), (2, 2, 2), (2, 3, 1), (3, 1, 2), (1, 4, 3), (3, 3, 3)]
    # 0 x n and n x 0 factors: the zero factorization inside cones and sums
    shapes += [(0, 2, 3), (2, 0, 3), (3, 2, 0), (0, 0, 2), (2, 0, 0)]
    for nrows, inner, ncols in shapes:
        for density in (0.0, 0.3, 1.0):
            a = random_matrix(rng, nrows, inner, 2, field, density)
            b = random_matrix(rng, inner, ncols, 2, field, density)
            got = a @ b
            assert (got.nrows, got.ncols, got.nvars, got.field) == (
                nrows, ncols, 2, field)
            assert orc.matrix_to_field_data(got) == oracle_product(a, b)
            assert got == sum_of_products([(a, b)])
            assert_clean(got)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sum_of_products_against_dense_oracle(field):
    rng = random.Random(11)
    for nrows, ncols, inners in [(2, 2, (2, 2)), (1, 3, (2, 1, 3)),
                                 (3, 1, (1, 0, 2)), (0, 2, (2, 2)),
                                 (2, 0, (1, 3))]:
        pairs = [
            (random_matrix(rng, nrows, k, 2, field), random_matrix(rng, k, ncols, 2, field))
            for k in inners
        ]
        got = sum_of_products(pairs)
        want = oracle_sum([oracle_product(a, b) for a, b in pairs], modulus(field))
        assert orc.matrix_to_field_data(got) == want
        assert_clean(got)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_cancelling_products_drop_their_keys(field):
    x = Polynomial.variable(0, 2, field)
    y = Polynomial.variable(1, 2, field)
    row = PolyMatrix.from_rows([[x, x + y]], 2, field)
    col = PolyMatrix.from_rows([[y], [-y]], 2, field)
    # x*y - (x + y)*y = -y^2: the x*y key cancels, the y^2 key stays
    got = (row @ col)[0, 0]
    assert got.terms == {(0, 2): field.coerce(-1)}
    square = PolyMatrix.from_rows([[x, y], [y, x]], 2, field)
    gone = sum_of_products([(square, square), (-square, square)])
    assert all(not p.terms for r in gone.entries for p in r)
    assert gone == PolyMatrix.zero(2, 2, 2, field)
    # cancellation inside one product: (x + y)(x - y) = x^2 - y^2
    diff = PolyMatrix.from_rows([[x + y]], 2, field) @ PolyMatrix.from_rows([[x - y]], 2, field)
    assert diff[0, 0].terms == {(2, 0): field.one, (0, 2): field.coerce(-1)}


def test_mismatches_raise_as_before():
    x = Polynomial.variable(0, 2)
    a = PolyMatrix.from_rows([[x, x, x], [x, x, x]], 2, QQ)
    with pytest.raises(UsageError, match=r"^shape mismatch: 2x3 @ 2x3$"):
        a @ a
    one_var = PolyMatrix.from_rows([[Polynomial.variable(0, 1)]] * 3, 1, QQ)
    with pytest.raises(UsageError, match=r"^variable counts differ: 2 vs 1$"):
        a @ one_var
    f7 = PrimeField(7)
    mod7 = PolyMatrix.from_rows([[Polynomial.variable(0, 2, f7)]] * 3, 2, f7)
    with pytest.raises(UsageError) as err:
        a @ mod7
    assert str(err.value) == f"coefficient fields differ: {QQ} vs {f7}"
    col = PolyMatrix.from_rows([[x]] * 3, 2, QQ)
    cell = PolyMatrix.from_rows([[x]], 2, QQ)
    with pytest.raises(UsageError, match=r"^matrix shapes differ$"):
        sum_of_products([(a, col), (cell, cell)])
    with pytest.raises(UsageError, match=r"^sum of no products$"):
        sum_of_products([])


def test_zero_and_identity_matrices_are_shared_per_shape_and_field():
    zero, eye = PolyMatrix.zero, PolyMatrix.identity
    assert zero(2, 3, 1, QQ) is zero(2, 3, 1, QQ)
    assert eye(2, 1, QQ) is eye(2, 1, QQ)
    f7 = PrimeField(7)
    assert zero(2, 3, 1, f7) is not zero(2, 3, 1, QQ)
    assert zero(2, 3, 1, QQ).field is QQ
    # equal fields made apart each get a matrix holding their own object
    for f in (PrimeField(7), PrimeField(7)):
        for m in (zero(2, 3, 1, f), eye(2, 1, f)):
            assert m.field is f
            assert all(c.field is f for row in m.entries for c in row)
    assert zero(2, 3, 2, QQ) is not zero(2, 3, 1, QQ)
    assert zero(3, 2, 1, QQ) is not zero(2, 3, 1, QQ)
    assert zero(2, 2, 1, QQ) is not eye(2, 1, QQ)
    # each equals the matrix built entry by entry
    for field in (QQ, f7):
        for n, m in ((0, 0), (0, 2), (2, 0), (2, 3)):
            z = Polynomial.zero(2, field)
            assert zero(n, m, 2, field) == PolyMatrix(
                n, m, 2, field, tuple((z,) * m for _ in range(n)))
        one = Polynomial.const(2, 1, field)
        assert eye(3, 2, field) == PolyMatrix.from_rows(
            [[one if i == j else z for j in range(3)] for i in range(3)], 2, field)
    assert matrices._shared.cache_info().maxsize == matrices._SHARED_MATRICES


def test_zero_factorizations_over_equal_fields_made_apart():
    # the shared zero matrices must not carry the first PrimeField(7) into a
    # factorization over a second one, which checks its field by identity
    for _ in range(2):
        f = PrimeField(7)
        x = Polynomial.variable(0, 1, f)
        z = zero_factorization(x ** 3)
        assert z.field is f and z.p0.field is f and z.p1.field is f


def perturbed(m, rng):
    """m with one coefficient of one nonzero entry moved by one, or with a
    term added to a zero matrix."""
    spots = [(i, j) for i, row in enumerate(m.entries)
             for j, poly in enumerate(row) if poly.terms]
    if not spots:
        if not (m.nrows and m.ncols):
            return None
        spots = [(0, 0)]
    i, j = rng.choice(spots)
    terms = dict(m.entries[i][j].terms)
    e = rng.choice(sorted(terms)) if terms else (0,) * m.nvars
    terms[e] = terms.get(e, 0) + 1
    return m.map_entries_indexed(
        lambda r, c, poly: Polynomial(m.nvars, terms, m.field) if (r, c) == (i, j) else poly)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_products_equal_agrees_with_the_built_sum(field):
    # the right sum, a sum that cancels to zero, zero entries and a wrong
    # target, each compared both ways
    rng = random.Random(23)
    x = Polynomial.variable(0, 2, field)
    y = Polynomial.variable(1, 2, field)
    square = PolyMatrix.from_rows([[x, y], [y, x]], 2, field)
    cases = [[(square, square), (-square, square)]]
    for nrows, ncols, inners in [(2, 2, (2, 2)), (1, 3, (2, 1, 3)),
                                 (3, 1, (1, 0, 2)), (0, 2, (2, 2)),
                                 (2, 0, (1, 3)), (2, 2, (1,))]:
        for density in (0.0, 0.4, 1.0):
            cases.append([
                (random_matrix(rng, nrows, k, 2, field, density),
                 random_matrix(rng, k, ncols, 2, field, density))
                for k in inners])
    seen = set()
    for pairs in cases:
        built = sum_of_products(pairs)
        wrong = perturbed(built, rng)
        targets = [built, PolyMatrix.zero(built.nrows, built.ncols, 2, field),
                   PolyMatrix.zero(built.nrows + 1, built.ncols, 2, field),
                   PolyMatrix.zero(built.nrows, built.ncols, 3, field)]
        if wrong is not None:
            targets.append(wrong)
        for target in targets:
            want = built == target
            assert products_equal(pairs, target) is want
            seen.add(want)
        if wrong is not None:
            assert not products_equal(pairs, wrong)
    assert products_equal(cases[0], PolyMatrix.zero(2, 2, 2, field))
    assert seen == {True, False}


@pytest.mark.parametrize("field, a, b", [(QQ, 1, -1), (PrimeField(7), 3, 4)],
                         ids=["Q", "F7"])
def test_products_equal_drops_a_cancelled_coefficient_beside_a_survivor(field, a, b):
    # (a x + y) 1 + (b x) 1 sums to {x: 0, y: 1}, as a + b = 0 in the
    # field: the entry equals y alone, and not y plus any multiple of x
    x = Polynomial.variable(0, 2, field)
    y = Polynomial.variable(1, 2, field)
    one = PolyMatrix.identity(1, 2, field)
    pairs = [(PolyMatrix.from_rows([[x * a + y]], 2, field), one),
             (PolyMatrix.from_rows([[x * b]], 2, field), one)]
    assert products_equal(pairs, PolyMatrix.from_rows([[y]], 2, field))
    for c in (1, a, 2):
        assert not products_equal(pairs, PolyMatrix.from_rows([[x * c + y]], 2, field))


def test_products_equal_mismatches_raise_as_the_built_sum():
    x = Polynomial.variable(0, 2)
    a = PolyMatrix.from_rows([[x, x, x], [x, x, x]], 2, QQ)
    one_var = PolyMatrix.from_rows([[Polynomial.variable(0, 1)]] * 3, 1, QQ)
    f7 = PrimeField(7)
    mod7 = PolyMatrix.from_rows([[Polynomial.variable(0, 2, f7)]] * 3, 2, f7)
    col = PolyMatrix.from_rows([[x]] * 3, 2, QQ)
    cell = PolyMatrix.from_rows([[x]], 2, QQ)
    for pairs in ([(a, a)], [(a, one_var)], [(a, mod7)], [(a, col), (cell, cell)], []):
        with pytest.raises(UsageError) as built:
            sum_of_products(pairs)
        with pytest.raises(UsageError) as compared:
            products_equal(pairs, cell)
        assert str(compared.value) == str(built.value)


@st.composite
def field_polys(draw, field, nvars=2):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(exps, st.integers(-9, 9), max_size=4))
    return Polynomial(nvars, terms, field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sub_matches_add_of_negation(field, data):
    a = data.draw(field_polys(field))
    b = data.draw(field_polys(field))
    got = a - b
    assert got == a + (-b)
    assert all(got.terms.values())
    assert not (a - a).terms
    assert b - Polynomial.zero(2, field) == b
    assert Polynomial.zero(2, field) - b == -b
