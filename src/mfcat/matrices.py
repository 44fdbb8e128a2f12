"""Dense matrices of polynomials.

Shapes are carried explicitly so that empty matrices (0 rows or 0 columns)
compose correctly; those show up as soon as the zero factorization enters a
cone or direct sum.  Entries are Polynomial values over a common field,
and, like every Polynomial, never hold a zero coefficient, so two matrices
are equal exactly when their difference is zero.

Products go through one kernel, ``_accumulate``: the sum of a @ b over a
list of (a, b) pairs, accumulated into one term dict per output entry.
It walks the rows of b as they are stored, skipping their zero entries,
so no product, sum, negated copy or list of nonzero entries is built on
the way.  The kernel has two finishers.  ``sum_of_products`` builds each
entry's Polynomial once, dropping the coefficients that cancel; ``@`` is
its one-pair case, and a homotopy's boundary is one call.
``products_equal`` compares each entry's term dict with a given matrix
as it is, and drops the cancelled coefficients only when that compare
fails; it builds nothing, so a check that a product equals a matrix (a
witness's boundary, a chain-map square, p1 p0 = W id) costs the
arithmetic alone.  The matrices this library multiplies are tiny
(mostly 1x1 to 2x2, about one term per entry), so the cost lies in
intermediate objects, not arithmetic.
Integral rational coefficients are plain ints (``mfcat.fields``), so their
products and sums run on C-level int arithmetic and build no Fraction.

``PolyMatrix.zero`` and ``PolyMatrix.identity`` return one shared instance
per (shape, nvars, field object), kept in a bounded LRU (``_shared``): a matrix is
frozen and its entries are never written, so sharing it is safe, and a
cone, a zero map or a chain-map check then builds no matrix of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add

from .errors import UsageError
from .poly import Polynomial

# Zero and identity matrices kept by _shared, one per (shape, nvars, field
# object, kind); one set-up and one pass of witness-certify ask for 14,376 of 12.
_SHARED_MATRICES = 256


@dataclass(frozen=True)
class PolyMatrix:
    nrows: int
    ncols: int
    nvars: int
    field: object
    entries: tuple  # tuple of row tuples of Polynomial

    def __post_init__(self):
        if len(self.entries) != self.nrows:
            raise UsageError("row count mismatch")
        for row in self.entries:
            if len(row) != self.ncols:
                raise UsageError("column count mismatch")

    @classmethod
    def from_rows(cls, rows, nvars, field, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            if not rows:
                raise UsageError("cannot infer column count of an empty matrix")
            ncols = len(rows[0])
        return cls(len(rows), ncols, nvars, field, rows)

    @classmethod
    def zero(cls, nrows, ncols, nvars, field):
        """The nrows x ncols zero matrix, shared (``_shared``)."""
        return _shared(nrows, ncols, nvars, field, id(field), False)

    @classmethod
    def identity(cls, n, nvars, field):
        """The n x n identity matrix, shared (``_shared``)."""
        return _shared(n, n, nvars, field, id(field), True)

    @classmethod
    def scalar(cls, f, n):
        """f times the n x n identity."""
        z = Polynomial.zero(f.nvars, f.field)
        return cls(
            n, n, f.nvars, f.field,
            tuple(tuple(f if i == j else z for j in range(n)) for i in range(n)),
        )

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        """Hash of the dataclass fields, computed once: the fields are
        frozen, and the value is kept in the instance dict, outside them."""
        return hash((self.nrows, self.ncols, self.nvars, self.field, self.entries))

    def __reduce__(self):
        # as for Polynomial: a pickle must not carry the kept hash
        return PolyMatrix, (self.nrows, self.ncols, self.nvars, self.field, self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __matmul__(self, other):
        return sum_of_products([(self, other)])

    def __add__(self, other):
        self._same_shape(other)
        return PolyMatrix(
            self.nrows, self.ncols, self.nvars, self.field,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other):
        self._same_shape(other)
        return PolyMatrix(
            self.nrows, self.ncols, self.nvars, self.field,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self):
        return PolyMatrix(
            self.nrows, self.ncols, self.nvars, self.field,
            tuple(tuple(-a for a in row) for row in self.entries),
        )

    def scale(self, c):
        c = self.field.coerce(c)
        return PolyMatrix(
            self.nrows, self.ncols, self.nvars, self.field,
            tuple(tuple(a * c for a in row) for row in self.entries),
        )

    def poly_mul(self, f):
        return PolyMatrix(
            self.nrows, self.ncols, self.nvars, self.field,
            tuple(tuple(a * f for a in row) for row in self.entries),
        )

    def map_entries_indexed(self, fn):
        return PolyMatrix(
            self.nrows, self.ncols, self.nvars, self.field,
            tuple(
                tuple(fn(i, j, a) for j, a in enumerate(row))
                for i, row in enumerate(self.entries)
            ),
        )

    def is_zero(self):
        return all(a.is_zero() for row in self.entries for a in row)

    def _same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise UsageError("matrix shapes differ")

    def to_json(self):
        return [[a.to_json() for a in row] for row in self.entries]

    @classmethod
    def from_json(cls, data, nvars, field, nrows=None, ncols=None):
        rows = tuple(
            tuple(Polynomial.from_json(cell, nvars, field) for cell in row)
            for row in data
        )
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return cls(nrows, ncols, nvars, field, rows)


@lru_cache(maxsize=_SHARED_MATRICES)
def _shared(nrows, ncols, nvars, field, field_id, identity):
    """The zero matrix of this shape, with ones on the diagonal when
    identity; every caller shares it.

    field_id is id(field), so that equal fields made apart (``PrimeField``
    compares by p) each get a matrix holding their own field object, as
    ``MatrixFactorization`` checks by identity.  The kept matrix holds its
    field, so the id is not reused while the entry lives."""
    z = Polynomial.zero(nvars, field)
    one = Polynomial.const(nvars, 1, field) if identity else z
    return PolyMatrix(nrows, ncols, nvars, field, tuple(
        tuple(one if i == j else z for j in range(ncols)) for i in range(nrows)))


def sum_of_products(pairs):
    """The sum of a @ b over the (a, b) pairs, as one PolyMatrix.

    Every product must have the shape, the number of variables and the
    field of the first one.  The coefficients that cancel are dropped when
    each entry's Polynomial is built from its term dict (``_accumulate``).
    """
    nrows, ncols, nvars, field, acc = _accumulate(pairs)
    zero = Polynomial.zero(nvars, field)
    rows = []
    for out in acc:
        row = []
        for terms in out:
            if terms is None:
                row.append(zero)
                continue
            poly = Polynomial.__new__(Polynomial)
            poly.nvars, poly.field = nvars, field
            poly.terms = _cleaned(terms)
            row.append(poly)
        rows.append(tuple(row))
    return PolyMatrix(nrows, ncols, nvars, field, tuple(rows))


def products_equal(pairs, target):
    """Whether sum_of_products(pairs) == target, with the same errors.

    Each entry's term dict (``_accumulate``) is compared with the terms of
    target's entry, and again with its cancelled coefficients dropped
    when that fails (a target entry holds no zero); no Polynomial
    or PolyMatrix is built.  A target of another shape, number of
    variables or field is unequal, as for ``==``.
    """
    nrows, ncols, nvars, field, acc = _accumulate(pairs)
    if (target.nrows != nrows or target.ncols != ncols or target.nvars != nvars
            or (target.field is not field and target.field != field)):
        return False
    for out, row in zip(acc, target.entries):
        for terms, poly in zip(out, row):
            if terms is None:
                if poly.terms:
                    return False
            elif terms != poly.terms and _cleaned(terms) != poly.terms:
                return False
    return True


def _cleaned(terms):
    return {e: c for e, c in terms.items() if c}


def _accumulate(pairs):
    """(nrows, ncols, nvars, field, acc) of the sum of a @ b over the (a, b)
    pairs: acc[i][j] is the term dict of entry (i, j), None where no
    product reaches it, and may hold coefficients that cancelled to zero.

    Every product must have the shape, the number of variables and the
    field of the first one.  Each nonzero entry a[i][k] meets only the
    nonzero entries of row k of b, read from b as stored.
    """
    if not pairs:
        raise UsageError("sum of no products")
    a0, b0 = pairs[0]
    nrows, ncols, nvars, field = a0.nrows, b0.ncols, a0.nvars, a0.field
    acc = [[None] * ncols for _ in range(nrows)]
    for a, b in pairs:
        if a.ncols != b.nrows:
            raise UsageError(
                "shape mismatch: %dx%d @ %dx%d" % (a.nrows, a.ncols, b.nrows, b.ncols)
            )
        if a.nrows != nrows or b.ncols != ncols:
            raise UsageError("matrix shapes differ")
        for m in (a, b):
            if m.nvars != nvars:
                raise UsageError(f"variable counts differ: {nvars} vs {m.nvars}")
            if m.field is not field and m.field != field:
                raise UsageError(f"coefficient fields differ: {field} vs {m.field}")
        for a_row, out in zip(a.entries, acc):
            for p, b_row in zip(a_row, b.entries):
                a_terms = p.terms
                if not a_terms:
                    continue
                for j, q in enumerate(b_row):
                    b_terms = q.terms
                    if not b_terms:
                        continue
                    terms = out[j]
                    if terms is None:
                        terms = out[j] = {}
                    for e1, c1 in a_terms.items():
                        for e2, c2 in b_terms.items():
                            e = tuple(map(add, e1, e2))
                            cur = terms.get(e)
                            terms[e] = c1 * c2 if cur is None else cur + c1 * c2
    return nrows, ncols, nvars, field, acc


def hstack(blocks):
    """Join matrices left to right."""
    blocks = [b for b in blocks]
    if not blocks:
        raise UsageError("hstack of nothing")
    nrows = blocks[0].nrows
    for b in blocks:
        if b.nrows != nrows:
            raise UsageError("hstack needs equal row counts")
    rows = []
    for i in range(nrows):
        row = []
        for b in blocks:
            row.extend(b.entries[i])
        rows.append(tuple(row))
    return PolyMatrix(
        nrows, sum(b.ncols for b in blocks), blocks[0].nvars, blocks[0].field,
        tuple(rows),
    )


def vstack(blocks):
    """Join matrices top to bottom."""
    blocks = [b for b in blocks]
    if not blocks:
        raise UsageError("vstack of nothing")
    ncols = blocks[0].ncols
    for b in blocks:
        if b.ncols != ncols:
            raise UsageError("vstack needs equal column counts")
    rows = []
    for b in blocks:
        rows.extend(b.entries)
    return PolyMatrix(
        sum(b.nrows for b in blocks), ncols, blocks[0].nvars, blocks[0].field,
        tuple(rows),
    )
