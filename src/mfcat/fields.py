"""Coefficient fields: exact rationals (the default) and odd prime fields.

Every computation in the package is exact; floating point is never used.
A rational coefficient is stored as a plain ``int`` when it is integral and
as a ``fractions.Fraction`` otherwise, so the integer coefficients that
almost every factorization carries multiply and add at C speed.  Prime-field
coefficients are ``FpElement`` wrappers that keep values reduced mod p and
support the same operator set, so the polynomial layer stays
field-agnostic.

Row reduction does not run on these objects.  ``mfcat.linalg`` turns F_p
elements into ints once, eliminates mod p on raw ints, and wraps the
results once.  Over the rationals it reduces mod linalg.PRIME = 2^31 - 1
and keeps a rank only under a certificate: full rank mod p, Z_p == B_p
for a hom-space block, or else the exact fallback on (num, den) pairs.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from .errors import UsageError


class FpElement:
    """An element of F_p.  Arithmetic stays reduced; division uses the
    modular inverse (p prime)."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise UsageError(f"mixed prime fields F_{self.p} and F_{other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"{self.val}"


class RationalField:
    """The field of exact rationals.

    ``coerce`` gives an integral value as an ``int`` and any other as a
    ``Fraction``; ``parse`` and, through it, JSON go the same way, and so
    does exact elimination (``linalg``).  Three invariants keep the two
    forms interchangeable:

    * ``zero`` and ``one`` stay ``Fraction(0)`` and ``Fraction(1)``, since
      callers divide by them, and ``one / x`` must not give a float.
    * Nothing applies ``/`` to raw coefficients: code that divides builds
      Fractions first (``feasible_nonneg``, ``detect_weights``).
    * A fast path may still leave a ``Fraction`` whose denominator is 1.
      It equals the int, hashes the same and prints the same, so no
      answer and no output byte depends on which form a value has.
    """

    name = "q"
    rational = True

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)  # a bool, or another subclass of int
        if isinstance(x, FpElement):
            raise UsageError("cannot mix F_p coefficients into a rational polynomial")
        raise UsageError(f"cannot coerce {x!r} into the rational field")

    def parse(self, text: str):
        # accepts "3", "-3", "1/2"
        try:
            return self.coerce(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational literal {text!r}") from exc

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def format(self, c) -> str:
        return str(c)

    def __reduce__(self):
        # a pickle comes back as the one rational field, as for PrimeField
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the primes up to 41 as bases decides primality for
# every n below 3.3 * 10^24 (Sorenson-Webster 2015; the primes up to 37
# alone reach only 3.2 * 10^23).  PrimeField accepts no larger p.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


# The live PrimeField of each prime, dropped with its last reference.
_PRIME_FIELDS = weakref.WeakValueDictionary()


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 1 <= n < _MR_LIMIT."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for an odd prime p.  There is one live object per p
    (``_PRIME_FIELDS``): ``PrimeField(p)`` returns it while it lives, and a
    pickle comes back as it, so two fields are equal exactly when they are
    the same object.  Primality is checked when the object is made, by a
    deterministic Miller-Rabin test, so p must lie below 3.3 * 10^24."""

    rational = False

    def __new__(cls, p: int):
        field = _PRIME_FIELDS.get(p)
        if field is not None:
            return field
        if p >= _MR_LIMIT:
            raise UsageError(f"prime fields need p < {_MR_LIMIT}; got {p}")
        if p == 2:
            raise UsageError("prime fields need an odd prime; got 2")
        if not _is_prime(p):
            raise UsageError(f"{p} is not prime")
        field = super().__new__(cls)
        field.p = p
        field.name = f"p:{p}"
        _PRIME_FIELDS[p] = field
        return field

    def __reduce__(self):
        return PrimeField, (self.p,)

    def coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise UsageError(f"mixed prime fields F_{self.p} and F_{x.p}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise UsageError(f"denominator of {x} vanishes mod {self.p}")
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        raise UsageError(f"cannot coerce {x!r} into F_{self.p}")

    def parse(self, text: str):
        if "/" in text:
            num, _, den = text.partition("/")
            if not int(den):
                raise UsageError(f"bad rational literal {text!r}")
            return self.coerce(Fraction(int(num), int(den)))
        return FpElement(int(text), self.p)

    @property
    def zero(self):
        return FpElement(0, self.p)

    @property
    def one(self):
        return FpElement(1, self.p)

    def format(self, c) -> str:
        return str(c.val)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("p", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_name(name: str):
    """Parse a field name as used by the CLI: ``q`` or ``p:<prime>``."""
    if name == "q":
        return QQ
    if name.startswith("p:"):
        return PrimeField(int(name[2:]))
    raise UsageError(f"unknown field {name!r}; expected 'q' or 'p:<prime>'")
