"""Polynomial layer: parsing, arithmetic, weights, monomial enumeration."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from mfcat import (
    Polynomial,
    WeightSystem,
    detect_weights,
    format_poly,
    monomials_of_weighted_degree,
    monomials_up_to_total_degree,
    parse_poly,
)
from mfcat.errors import ParseError, UsageError
from mfcat.fields import QQ, PrimeField, field_from_name


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
