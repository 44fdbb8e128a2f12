"""Diagonal abelian group actions: characters and projections."""

import pytest

from mfcat import GroupAction, Polynomial, cyclic_action, parse_poly
from mfcat.action import char_add, char_sub, normalize_char
from mfcat.errors import UsageError


def test_cyclic_action_basics():
    a = cyclic_action(3, (1, 1, 1), 3)
    assert a.orders == (3,)
    assert a.exponents == ((1, 1, 1),)
    assert a.characters() == ((0,), (1,), (2,))
    assert a.zero_char() == (0,)


def test_char_arithmetic():
    orders = (4, 2)
    assert char_add((3, 1), (2, 1), orders) == (1, 0)
    assert char_sub((0, 0), (1, 1), orders) == (3, 1)
    assert normalize_char((-1, 5), orders) == (3, 1)


def test_monomial_characters():
    a = cyclic_action(3, (1, 1, 1), 3)
    assert a.char_of_monomial((2, 1, 0)) == (0,)
    assert a.char_of_monomial((1, 0, 0)) == (1,)
    f = parse_poly("x1^3 + x2^3 + x3^3", 3)
    assert a.is_invariant(f)
    assert not a.is_invariant(parse_poly("x1*x2", 3))
    assert a.has_character(Polynomial.zero(3), (2,))


def test_project_character():
    a = cyclic_action(3, (1, 1, 1), 3)
    p = parse_poly("x1 + x1*x2 + x2*x3^2", 3)
    proj = a.project_character(p, (1,))
    assert proj == parse_poly("x1", 3)
    # the three projections add back up to p
    total = Polynomial.zero(3)
    for chi in a.characters():
        total = total + a.project_character(p, chi)
    assert total == p


def test_invalid_actions_rejected():
    with pytest.raises(UsageError):
        GroupAction((0,), ((1,),), 1)
    with pytest.raises(UsageError):
        GroupAction((2,), ((1, 1),), 1)


def test_json_round_trip():
    a = GroupAction((3, 2), ((1, 1, 1), (0, 1, 0)), 3)
    assert GroupAction.from_json(a.to_json(), 3) == a
