"""Sparse multivariate polynomials with exact coefficients.

A polynomial in variables x1..xn is stored as a dict mapping exponent
tuples (one int per variable) to nonzero coefficients.  The zero polynomial
is the empty dict.  All arithmetic is exact; the coefficient field is either
the rationals or a prime field (see ``mfcat.fields``).

Monomials are ordered graded-lex everywhere output has to be deterministic:
compare total degree first, then the exponent tuple lexicographically,
largest first.

Quasi-homogeneous structure: a weight system (w1..wn, D) with positive
integer weights assigns each monomial the weighted degree sum(e_i * w_i);
W is quasi-homogeneous when every monomial of W has weighted degree D.
``detect_weights`` finds such a system exactly, or certifies none exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Iterable

from .errors import ParseError, UsageError
from .fields import QQ, field_from_name

Exponent = tuple  # tuple[int, ...]


class kept:
    """A value derived from an object's fields, computed on first read and
    stored with ``object.__setattr__``, outside the fields, equality and
    hash of a frozen dataclass.  The cached property of functools writes
    the instance dict directly instead, and on CPython 3.11 every later
    attribute read of that object then takes a slower path.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


def grlex_key(e: Exponent):
    return (sum(e), e)


class Polynomial:
    """Immutable-by-convention sparse polynomial.

    ``terms`` is never mutated after construction: the hash is computed on
    first use and kept in the ``_hash`` slot.  The arithmetic fast paths
    build results through ``__new__`` and leave that slot unset.
    """

    __slots__ = ("nvars", "field", "terms", "_hash")

    def __init__(self, nvars: int, terms: dict | None = None, field=QQ):
        self.nvars = nvars
        self.field = field
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise UsageError(f"exponent {e} does not have {nvars} entries")
                c = field.coerce(c)
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, field=QQ) -> "Polynomial":
        return cls(nvars, {}, field)

    @classmethod
    def const(cls, nvars: int, c, field=QQ) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c}, field)

    @classmethod
    def variable(cls, i: int, nvars: int, field=QQ) -> "Polynomial":
        if not 0 <= i < nvars:
            raise UsageError(f"variable index {i} out of range for {nvars} variables")
        e = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(nvars, {e: 1}, field)

    @classmethod
    def monomial(cls, e: Exponent, c=1, field=QQ) -> "Polynomial":
        return cls(len(e), {tuple(e): c}, field)

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, e: Exponent):
        return self.terms.get(tuple(e), self.field.zero)

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)

    def weighted_degrees(self, weights) -> set:
        ws = getattr(weights, "weights", weights)
        return {sum(ei * wi for ei, wi in zip(e, ws)) for e in self.terms}

    def homogeneous_weighted_degree(self, weights):
        """The common weighted degree of all terms, or None if mixed/zero."""
        degs = self.weighted_degrees(weights)
        if len(degs) != 1:
            return None
        return degs.pop()

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i."""
        out: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            nc = c * self.field.coerce(e[i])
            if nc:
                out[e2] = out.get(e2, self.field.zero) + nc
        return Polynomial(self.nvars, {e: c for e, c in out.items() if c}, self.field)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise UsageError(f"variable counts differ: {self.nvars} vs {other.nvars}")
        if self.field != other.field:
            raise UsageError(f"coefficient fields differ: {self.field} vs {other.field}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            cur = terms.get(e)
            s = c if cur is None else cur + c
            if s:
                terms[e] = s
            elif cur is not None:
                del terms[e]
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.field, out.terms = self.nvars, self.field, terms
        return out

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            cur = terms.get(e)
            s = -c if cur is None else cur - c
            if s:
                terms[e] = s
            elif cur is not None:
                del terms[e]
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.field, out.terms = self.nvars, self.field, terms
        return out

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.field = self.nvars, self.field
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            terms: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    c = c1 * c2
                    cur = terms.get(e)
                    s = c if cur is None else cur + c
                    if s:
                        terms[e] = s
                    elif cur is not None:
                        del terms[e]
            out = Polynomial.__new__(Polynomial)
            out.nvars, out.field, out.terms = self.nvars, self.field, terms
            return out
        # scalar
        c = self.field.coerce(other)
        if not c:
            return Polynomial.zero(self.nvars, self.field)
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.field = self.nvars, self.field
        out.terms = {e: v * c for e, v in self.terms.items()}
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise UsageError("negative polynomial power")
        result = Polynomial.const(self.nvars, 1, self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(
                (self.nvars, self.field, frozenset(self.terms.items())))
            return h

    def __reduce__(self):
        # the kept hash follows the process's string hash seed (the field's
        # hash), so a pickle carries the terms only
        return Polynomial, (self.nvars, self.terms, self.field)

    # -- text and JSON -------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"

    def to_json(self) -> list:
        return [{"coeff": self.field.format(c), "exps": list(e)} for e, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, data: list, nvars: int, field=QQ) -> "Polynomial":
        terms = {}
        for item in data:
            e = tuple(item["exps"])
            c = field.parse(str(item["coeff"]))
            if len(e) != nvars:
                raise UsageError(f"term {item} does not have {nvars} exponents")
            if e in terms:
                raise UsageError(f"duplicate exponent {e} in polynomial JSON")
            terms[e] = c
        return cls(nvars, terms, field)


# -- parsing -----------------------------------------------------------------

def parse_poly(text: str, nvars: int, field=QQ, line: int | None = None) -> Polynomial:
    """Parse ``3*x1^2*x2 - 1/2*x3`` style syntax.

    Variables are x1..xn.  A term is a '*'-separated product of numeric
    literals (integers or a/b rationals) and powers xi^k.  No parentheses.
    """
    pos = 0
    n = len(text)

    def err(msg: str, at: int):
        raise ParseError(msg, line, at + 1)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_number(at: int) -> str:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            err("expected a number", at)
        if pos < n and text[pos] == "/":
            pos += 1
            dstart = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == dstart:
                err("expected a denominator after '/'", pos)
        return text[start:pos]

    result = Polynomial.zero(nvars, field)
    skip_ws()
    if pos == n:
        err("empty polynomial", pos)
    first = True
    while pos < n:
        sign = 1
        skip_ws()
        if pos < n and text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos += 1
            skip_ws()
        elif not first:
            err(f"expected '+' or '-' before {text[pos]!r}", pos)
        first = False
        # one term: factors joined by '*'
        coeff = field.one
        exps = [0] * nvars
        saw_factor = False
        while True:
            skip_ws()
            if pos >= n:
                break
            ch = text[pos]
            if ch == "x":
                xstart = pos
                pos += 1
                istart = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                if pos == istart:
                    err("expected a variable index after 'x'", xstart)
                idx = int(text[istart:pos])
                if not 1 <= idx <= nvars:
                    err(f"variable x{idx} out of range (ring has {nvars})", xstart)
                power = 1
                if pos < n and text[pos] == "^":
                    pos += 1
                    at = pos
                    power = read_number(pos)
                    if "/" in power:
                        err("an exponent must be a whole number", at)
                    power = int(power)
                exps[idx - 1] += power
            elif ch.isdigit():
                at = pos
                try:
                    coeff = coeff * field.parse(read_number(pos))
                except UsageError as exc:
                    err(str(exc), at)
            else:
                err(f"unexpected character {ch!r}", pos)
            saw_factor = True
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            break
        if not saw_factor:
            err("empty term", pos)
        term = Polynomial.monomial(tuple(exps), field.coerce(coeff) * sign, field)
        result = result + term
        skip_ws()
    return result


def format_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        if p.field.rational:
            neg = c < 0
            mag = -c if neg else c
        else:
            neg = False
            mag = c
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
        if not factors:
            body = p.field.format(mag)
        elif mag == p.field.one:
            body = "*".join(factors)
        else:
            body = p.field.format(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# -- quasi-homogeneous structure ----------------------------------------------

@dataclass(frozen=True)
class WeightSystem:
    """Positive integer weights for the variables plus the total degree D,
    normalized so gcd(w1..wn, D) = 1."""

    weights: tuple
    degree: int

    def __post_init__(self):
        if any(w <= 0 for w in self.weights) or self.degree <= 0:
            raise UsageError("weights and total degree must be positive")

    def __hash__(self):
        return self._hash

    @kept
    def _hash(self):
        return hash((self.weights, self.degree))

    def __reduce__(self):
        # as for PolyMatrix: a pickle must not carry the kept hash
        return WeightSystem, (self.weights, self.degree)

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def wdeg(self, e: Exponent) -> int:
        return sum(ei * wi for ei, wi in zip(e, self.weights))

    def socle_bound(self) -> int:
        """Top weighted degree of the Milnor algebra of a quasi-homogeneous
        isolated singularity: sum_i (D - 2*w_i)."""
        return sum(self.degree - 2 * w for w in self.weights)

    def to_json(self):
        return {"weights": list(self.weights), "degree": self.degree}


def detect_weights(w_poly: Polynomial):
    """Find a positive weight system making w_poly quasi-homogeneous.

    Exact and exhaustive: sets up the linear feasibility problem over the
    rationals and runs a phase-1 simplex, so a None answer certifies that no
    positive solution exists.
    """
    from . import linalg  # deferred: linalg has no poly dependency

    if w_poly.is_zero():
        raise UsageError("the zero polynomial has no weight system")
    n = w_poly.nvars
    exps = sorted(w_poly.terms, key=grlex_key)
    # unknowns (w - 1, D - 1) >= 0; constraint per monomial: e.w - D = 0
    rows = [[Fraction(e[i]) for i in range(n)] + [Fraction(-1)] for e in exps]
    rhs = [Fraction(1 - sum(e)) for e in exps]
    sol = linalg.feasible_nonneg(rows, rhs)
    if sol is None:
        return None
    vals = [v + 1 for v in sol]  # rational, all >= 1
    from math import gcd, lcm

    denom = lcm(*(v.denominator for v in vals)) if len(vals) > 1 else vals[0].denominator
    ints = [int(v * denom) for v in vals]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    ws = WeightSystem(tuple(ints[:-1]), ints[-1])
    for e in exps:
        if ws.wdeg(e) != ws.degree:
            raise AssertionError("weight detection produced an invalid system")
    return ws


def embed_extra_variable(p: Polynomial) -> Polynomial:
    """View p in a ring with one more (last) variable."""
    return Polynomial(p.nvars + 1, {e + (0,): c for e, c in p.terms.items()}, p.field)


# Entries kept by each monomial cache, one per (weights, degree); one pass
# of every perfbench workload in one process fills at most 141.
_MONOMIAL_CACHE = 4096


@lru_cache(maxsize=_MONOMIAL_CACHE)
def _monomials_rec(weights: tuple, d: int) -> tuple:
    if d < 0:
        return ()
    if not weights:
        return ((),) if d == 0 else ()
    w0 = weights[0]
    if len(weights) == 1:
        # the last exponent is fixed by what is left of d
        return ((d // w0,),) if d % w0 == 0 else ()
    out = []
    e = 0
    while e * w0 <= d:
        for rest in _monomials_rec(weights[1:], d - e * w0):
            out.append((e,) + rest)
        e += 1
    return tuple(out)


@lru_cache(maxsize=_MONOMIAL_CACHE)
def monomials_of_weighted_degree(weights: tuple, d: int) -> tuple:
    """All exponent tuples of weighted degree exactly d, descending graded-lex.
    Finite because all weights are positive."""
    mons = _monomials_rec(tuple(weights), d)
    return tuple(sorted(mons, key=grlex_key, reverse=True))


def monomials_up_to_total_degree(nvars: int, bound: int) -> tuple:
    """All exponent tuples of total degree <= bound, descending graded-lex."""
    ones = (1,) * nvars
    out = []
    for d in range(bound + 1):
        out.extend(monomials_of_weighted_degree(ones, d))
    return tuple(sorted(out, key=grlex_key, reverse=True))
