"""Diagonal actions of finite abelian groups on polynomial rings.

A group Z/m1 x ... x Z/mr acts on k[x1..xn] with the i-th generator
scaling x_j by a primitive m_i-th root of unity raised to exponents[i][j].
Roots of unity are never materialized: everything is tracked through the
character lattice, where a "character" is a residue tuple (c1..cr) with
c_i taken mod m_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add, mod, sub

from .errors import UsageError
from .poly import Polynomial, kept


def normalize_char(char, orders):
    """char as a residue tuple under cyclic factors of the given orders.

    A character is a tuple or list of one int per factor; anything else
    is refused, so no character is cut to fit.
    """
    if not (isinstance(char, (tuple, list)) and len(char) == len(orders)
            and all(type(c) is int for c in char)):
        raise UsageError(
            "a character needs one integer per cyclic factor, %d in all; "
            "got %r" % (len(orders), char))
    return tuple(map(mod, char, orders))


def char_add(a, b, orders):
    return tuple(map(mod, map(add, a, b), orders))


def char_sub(a, b, orders):
    return tuple(map(mod, map(sub, a, b), orders))


@dataclass(frozen=True)
class GroupAction:
    """orders: cyclic factor sizes; exponents: one row per factor, one
    column per ring variable."""

    orders: tuple
    exponents: tuple  # tuple of tuples, len(orders) x nvars
    nvars: int

    def __post_init__(self):
        if not self.orders:
            raise UsageError("group needs at least one cyclic factor")
        for m in self.orders:
            if not isinstance(m, int) or m < 1:
                raise UsageError("cyclic factor orders must be positive integers")
        if len(self.exponents) != len(self.orders):
            raise UsageError("need one exponent row per cyclic factor")
        norm = []
        for row, m in zip(self.exponents, self.orders):
            if len(row) != self.nvars:
                raise UsageError("exponent row length must match variable count")
            norm.append(tuple(int(a) % m for a in row))
        object.__setattr__(self, "exponents", tuple(norm))
        object.__setattr__(self, "orders", tuple(int(m) for m in self.orders))

    def __hash__(self):
        return self._hash

    @kept
    def _hash(self):
        return hash((self.orders, self.exponents, self.nvars))

    def __reduce__(self):
        # as for PolyMatrix: a pickle must not carry the kept hash
        return GroupAction, (self.orders, self.exponents, self.nvars)

    @property
    def nfactors(self):
        return len(self.orders)

    def zero_char(self):
        return (0,) * len(self.orders)

    def characters(self):
        return tuple(product(*(range(m) for m in self.orders)))

    def char_of_monomial(self, exps):
        return tuple(
            sum(a * e for a, e in zip(row, exps)) % m
            for row, m in zip(self.exponents, self.orders)
        )

    def has_character(self, f, char):
        """True when every monomial of f lies in the char eigenspace.

        The zero polynomial has every character.
        """
        want = normalize_char(char, self.orders)
        return all(self.char_of_monomial(e) == want for e in f.terms)

    def project_character(self, f, char):
        """Sum of the monomials of f whose character equals char."""
        want = normalize_char(char, self.orders)
        kept = {
            e: c for e, c in f.terms.items() if self.char_of_monomial(e) == want
        }
        return Polynomial(f.nvars, kept, f.field)

    def is_invariant(self, f):
        return self.has_character(f, self.zero_char())

    def is_special_linear(self):
        """Whether every generator acts with determinant one."""
        return all(
            sum(row) % m == 0 for row, m in zip(self.exponents, self.orders)
        )

    def to_json(self):
        return {
            "orders": list(self.orders),
            "exponents": [list(r) for r in self.exponents],
        }

    @classmethod
    def from_json(cls, data, nvars):
        return cls(
            orders=tuple(data["orders"]),
            exponents=tuple(tuple(r) for r in data["exponents"]),
            nvars=nvars,
        )


def cyclic_action(order, weights, nvars):
    """Z/order acting with x_j scaled by the weights[j]-th power of a
    fixed primitive root."""
    return GroupAction(orders=(order,), exponents=(tuple(weights),), nvars=nvars)
