"""Polynomial layer: parsing, arithmetic, weights, monomial enumeration."""

import math
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from mfcat import (
    GroupAction,
    Homotopy,
    MfMorphism,
    PolyMatrix,
    Polynomial,
    WeightSystem,
    detect_weights,
    elementary_factorization,
    format_poly,
    is_contractible,
    monomials_of_weighted_degree,
    monomials_up_to_total_degree,
    parse_poly,
    w_multiple_homotopy,
)
from mfcat.errors import ParseError, UsageError
from mfcat.fields import QQ, PrimeField, field_from_name
from mfcat.poly import _monomials_rec, grlex_key


def coeffs():
    return st.fractions(
        min_value=-9, max_value=9, max_denominator=7).filter(lambda c: c != 0)


def polys(nvars, max_exp=4, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, coeffs(), max_size=max_terms).map(
        lambda d: Polynomial(nvars, d))


def test_parse_basic():
    p = parse_poly("3*x1^2*x2 - 1/2*x3 + 1", 3)
    assert p.terms == {
        (2, 1, 0): Fraction(3),
        (0, 0, 1): Fraction(-1, 2),
        (0, 0, 0): Fraction(1),
    }


def test_parse_rejects_garbage():
    with pytest.raises(ParseError) as exc:
        parse_poly("x1 + @", 2)
    assert exc.value.column == 6
    with pytest.raises(ParseError):
        parse_poly("x5", 2)
    with pytest.raises(ParseError):
        parse_poly("", 1)
    # a fractional exponent is a parse error at the exponent, not a crash
    with pytest.raises(ParseError) as exc:
        parse_poly("x1^1/2", 1)
    assert exc.value.column == 4


def test_format_fixed_point():
    p = parse_poly("3*x1^2*x2 - 1/2*x3 + 1", 3)
    assert format_poly(p) == "3*x1^2*x2 - 1/2*x3 + 1"
    assert format_poly(Polynomial.zero(2)) == "0"


@given(polys(2))
@settings(max_examples=60)
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p), 2) == p


@given(polys(2, max_exp=3, max_terms=4), polys(2, max_exp=3, max_terms=4),
       polys(2, max_exp=3, max_terms=4))
@settings(max_examples=40)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    # equal polynomials built along different paths hash equal
    assert hash(a * (b + c)) == hash(a * b + a * c)


@given(polys(2, max_exp=3, max_terms=4), polys(2, max_exp=3, max_terms=4))
@settings(max_examples=40)
def test_product_rule(a, b):
    for i in range(2):
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


@given(polys(1, max_exp=5), polys(1, max_exp=5))
@settings(max_examples=30)
def test_mul_against_oracle(a, b):
    got = orc.poly_to_dict(a * b)
    want = orc.pmul(orc.poly_to_dict(a), orc.poly_to_dict(b))
    assert got == want


def fresh_hash(p):
    return hash((p.nvars, p.field, frozenset(p.terms.items())))


def test_memoized_hash_matches_fresh_hash():
    for field in (QQ, PrimeField(7)):
        a = parse_poly("x1^2 + 2*x1*x2", 2, field)
        b = parse_poly("x2^2 - 1/3*x1*x2", 2, field)
        built = {
            "__init__": Polynomial(2, {(1, 0): 3, (0, 1): -1}, field),
            "zero": Polynomial.zero(2, field),
            "+": a + b,
            "unary -": -a,
            "*": a * b,
            "scalar *": a * 5,
            "scalar * on the left": 5 * b,
        }
        for path, p in built.items():
            # the first call fills the slot, the second reads it back
            assert hash(p) == fresh_hash(p), path
            assert hash(p) == fresh_hash(p), path
    x, y = parse_poly("x1", 2), parse_poly("x2", 2)
    same = [
        (x + y) * (x + y),
        x * x + 2 * (x * y) + y * y,
        -(-((x + y) ** 2)),
        parse_poly("x1^2 + 2*x1*x2 + x2^2", 2),
        Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}),
    ]
    assert all(p == same[0] for p in same)
    assert {hash(p) for p in same} == {fresh_hash(same[0])}


def test_equality_of_one_object_and_of_equal_objects():
    # an object equals itself at once; distinct equal objects still compare
    # by their terms, and a different field or variable count still differs
    p = parse_poly("x1^2 - 1/2*x1*x2", 2)
    assert p == p and not (p != p)
    q = parse_poly("x1^2 - 1/2*x1*x2", 2)
    assert q is not p and q == p and not (q != p)
    assert p != parse_poly("x1^2", 2)
    assert p != parse_poly("x1^2 - 1/2*x1*x2", 3)
    assert parse_poly("x1", 1) != parse_poly("x1", 1, PrimeField(7))
    assert (p == 1) is False and p != "p"


def test_matrix_hash_is_kept_and_structural():
    def build():
        return PolyMatrix.from_rows(
            [[parse_poly("x1^2", 2), parse_poly("x2 - x1", 2)],
             [Polynomial.zero(2), parse_poly("3*x1*x2", 2)]], 2, QQ)

    m, copy = build(), build()
    assert copy == m and copy.entries[0][0] is not m.entries[0][0]
    want = hash((m.nrows, m.ncols, m.nvars, m.field, m.entries))
    assert hash(m) == hash(m) == hash(copy) == want
    assert hash(m) != hash(m.scale(2))


def test_pickles_carry_no_kept_hash():
    # a kept hash follows the string hash seed of the process that made
    # it, so an unpickled copy must hash afresh in a process of another seed
    p = parse_poly("x1^2 - 1/2*x1*x2", 2, PrimeField(7))
    m = PolyMatrix.from_rows([[p, -p]], 2, p.field)
    ws = WeightSystem((1, 2), 6)
    act = GroupAction((3,), ((1, 5),), 2)
    x = parse_poly("x1", 2, PrimeField(7))
    mf = elementary_factorization(x, x * x, WeightSystem((1, 1), 3), 0, 1, (0,), (2,))
    phi = MfMorphism.identity(mf)
    h = w_multiple_homotopy(phi)
    objs = p, m, ws, act, mf, mf.m1, phi, h
    for obj in objs:
        hash(obj)  # fill every kept hash before pickling
    assert all("_hash" in vars(obj) for obj in (ws, act, mf, mf.m1))
    # the slotted value types keep no instance dict
    assert not any(hasattr(obj, "__dict__") for obj in (p, m, phi, h))
    assert mf.shift().shift() == mf and mf.split_degree == 2
    assert is_contractible(mf) is False and "_contractible" in vars(mf)
    data = pickle.dumps(objs)
    assert b"_hash" not in data and b"_shifted" not in data and b"split_degree" not in data
    assert b"_contractible" not in data
    code = (
        "import pickle, sys\n"
        "p, m, ws, act, mf, g, phi, h = pickle.loads(sys.stdin.buffer.read())\n"
        "assert hash(p) == hash((p.nvars, p.field, frozenset(p.terms.items())))\n"
        "assert hash(m) == hash((m.nrows, m.ncols, m.nvars, m.field, m.entries))\n"
        "assert hash(ws) == hash((ws.weights, ws.degree))\n"
        "assert hash(act) == hash((act.orders, act.exponents, act.nvars))\n"
        "assert hash(mf) == hash((mf.W, mf.weights, mf.m0, mf.m1, mf.p0, mf.p1))\n"
        "assert hash(g) == hash((g.rank, g.degrees, g.chars))\n"
        "assert hash(phi) == hash((phi.source, phi.target, phi.f0, phi.f1, phi.degree))\n"
        "assert hash(h) == hash((h.source, h.target, h.t0, h.t1, h.degree))\n"
    )
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
    subprocess.run([sys.executable, "-c", code], input=data, check=True,
                   env=dict(os.environ, PYTHONHASHSEED=seed))
    copies = pickle.loads(data)
    assert copies == objs
    assert type(copies[-2]) is MfMorphism and type(copies[-1]) is Homotopy


def test_detect_weights_frozen():
    cases = [
        ("x1^4", 1, ((1,), 4)),
        ("x1^3+x2^3+x3^3", 3, ((1, 1, 1), 3)),
        ("x1^2 + x2^2", 2, ((1, 1), 2)),
        ("x1^3 + x1*x2", 2, ((1, 2), 3)),
        ("x1^2*x2 + x2^2", 2, ((1, 2), 4)),
        ("x1^2 + x1^3", 1, None),
    ]
    for text, nvars, want in cases:
        ws = detect_weights(parse_poly(text, nvars))
        if want is None:
            assert ws is None, text
        else:
            assert (ws.weights, ws.degree) == want, text


def test_weight_system():
    ws = WeightSystem((1, 2), 6)
    assert ws.wdeg((4, 1)) == 6
    assert ws.socle_bound() == 6
    assert WeightSystem((1,), 4).socle_bound() == 2
    assert WeightSystem((1, 1, 1), 3).socle_bound() == 3
    p = parse_poly("x1^6 + x1^4*x2 + x2^3", 2)
    assert p.homogeneous_weighted_degree(ws) == 6
    assert parse_poly("x1 + x2", 2).homogeneous_weighted_degree(ws) is None


def test_monomial_enumeration_frozen():
    assert monomials_of_weighted_degree((1, 2), 4) == ((4, 0), (2, 1), (0, 2))
    assert monomials_of_weighted_degree((1,), 0) == ((0,),)
    assert monomials_of_weighted_degree((1,), -1) == ()
    assert len(monomials_up_to_total_degree(2, 2)) == 6


@given(st.tuples(st.integers(1, 3), st.integers(1, 3)), st.integers(0, 7))
@settings(max_examples=40)
def test_monomial_enumeration_against_oracle(weights, d):
    got = sorted(monomials_of_weighted_degree(weights, d))
    want = sorted(orc.monomials_of_wdeg(2, weights, d))
    assert got == want
    for mono in got:
        assert orc.wdeg(mono, weights) == d


@given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(-3, 30))
@settings(max_examples=200, deadline=None)
def test_monomial_enumeration_against_brute_force(weights, d):
    # every exponent tuple in the box e_i <= d / w_i, kept when its weighted
    # degree is d, in descending graded-lex order
    weights = tuple(weights)
    box = product(*(range(d // w + 1) if d >= 0 else () for w in weights))
    want = sorted((e for e in box if orc.wdeg(e, weights) == d),
                  key=grlex_key, reverse=True)
    assert list(monomials_of_weighted_degree(weights, d)) == want


def test_one_weight_left_costs_one_step():
    # the last exponent is read off the degree that is left, so one
    # variable costs one call whatever the degree
    _monomials_rec.cache_clear()
    assert monomials_of_weighted_degree((3,), 3 * 10**6) == ((10**6,),)
    assert monomials_of_weighted_degree((3,), 3 * 10**6 + 1) == ()
    assert _monomials_rec.cache_info().misses == 2


def test_prime_field_arithmetic():
    gf5 = PrimeField(5)
    p = parse_poly("2/3*x1 + 4", 1, field=gf5)
    assert p.terms[(1,)] == gf5.coerce(4)
    q = p * p
    assert q.terms[(2,)] == gf5.coerce(16 % 5)
    with pytest.raises((ZeroDivisionError, UsageError, ParseError)):
        parse_poly("1/5*x1", 1, field=gf5)


def test_field_from_name():
    assert field_from_name("q") is QQ
    assert field_from_name("p:7") == PrimeField(7)
    with pytest.raises(UsageError):
        field_from_name("p:6")
    with pytest.raises(UsageError):
        field_from_name("r")


def test_one_field_object_per_prime():
    # equal fields are one object, so caches keyed by a field hand every
    # caller matrices and twists over the caller's own field object
    f7 = PrimeField(7)
    assert PrimeField(7) is f7 and field_from_name("p:7") is f7
    assert PrimeField(11) is not f7
    assert pickle.loads(pickle.dumps(f7)) is f7
    assert pickle.loads(pickle.dumps(QQ)) is QQ


def test_prime_field_primality_is_fast_and_strict():
    # Miller-Rabin: a 61-bit Mersenne prime is accepted at once
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 0.5
    # 1 is not prime, 2 is not odd, 561 is a Carmichael number,
    # 2^61 + 1 is divisible by 3, and 2^89 - 1 lies past the proven range
    for bad in (1, 2, 561, 2**61 + 1, 2**89 - 1):
        with pytest.raises(UsageError):
            PrimeField(bad)
    # primes with p - 1 = 2^s * d for large s need the squaring steps, and
    # strong pseudoprimes to the bases up to 7 and up to 23 are refused
    for p in (65537, 998244353, 2**31 - 1):
        assert PrimeField(p).p == p
    for n in (3215031751, 3825123056546413051):
        with pytest.raises(UsageError):
            PrimeField(n)
    small = [n for n in range(3, 3000)
             if all(n % d for d in range(2, math.isqrt(n) + 1))]
    accepted = []
    for n in range(3, 3000):
        try:
            accepted.append(PrimeField(n).p)
        except UsageError:
            pass
    assert accepted == small
