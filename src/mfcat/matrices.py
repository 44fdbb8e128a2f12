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
per (shape, nvars, field), kept in a bounded LRU (``_shared``): a matrix is
immutable by convention, never written, so sharing it is safe, and a
cone, a zero map or a chain-map check then builds no matrix of its own.
``PolyMatrix`` is a ``__slots__`` class, as ``Polynomial`` is, so building
one assigns five slots and reading a field takes the fast path.

Every block matrix is built by ``block``, whose inverse ``unstack`` cuts
one up; a zero or identity block is named 0 or 1 and comes from
``_shared``, and ``hstack`` and ``vstack`` are cases of ``block``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from operator import add

from .errors import UsageError
from .poly import Polynomial

# Zero and identity matrices kept by _shared, one per (shape, nvars, field,
# kind); one set-up and one pass of witness-certify ask for 14,376 of 12.
_SHARED_MATRICES = 256


class PolyMatrix:
    """An nrows x ncols matrix of Polynomial entries over one field.

    Immutable by convention, as Polynomial is: no attribute and no entry
    is written after construction.  Equality, the hash and the repr are
    those of the field tuple (nrows, ncols, nvars, field, entries); the
    hash is computed on first use and kept in the ``_hash`` slot.
    """

    __slots__ = ("nrows", "ncols", "nvars", "field", "entries", "_hash")

    def __init__(self, nrows, ncols, nvars, field, entries):
        if len(entries) != nrows:
            raise UsageError("row count mismatch")
        for row in entries:
            if len(row) != ncols:
                raise UsageError("column count mismatch")
        self.nrows = nrows
        self.ncols = ncols
        self.nvars = nvars
        self.field = field
        self.entries = entries  # tuple of row tuples of Polynomial

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
        return _shared(nrows, ncols, nvars, field, False)

    @classmethod
    def identity(cls, n, nvars, field):
        """The n x n identity matrix, shared (``_shared``)."""
        return _shared(n, n, nvars, field, True)

    @classmethod
    def scalar(cls, f, n):
        """f times the n x n identity."""
        z = Polynomial.zero(f.nvars, f.field)
        return cls(
            n, n, f.nvars, f.field,
            tuple(tuple(f if i == j else z for j in range(n)) for i in range(n)),
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.nvars == other.nvars and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(
                (self.nrows, self.ncols, self.nvars, self.field, self.entries))
            return h

    def __reduce__(self):
        # as for Polynomial: a pickle must not carry the kept hash
        return PolyMatrix, (self.nrows, self.ncols, self.nvars, self.field, self.entries)

    def __repr__(self):
        return "PolyMatrix(nrows=%r, ncols=%r, nvars=%r, field=%r, entries=%r)" % (
            self.nrows, self.ncols, self.nvars, self.field, self.entries)

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
def _shared(nrows, ncols, nvars, field, identity):
    """The zero matrix of this shape, with ones on the diagonal when
    identity; every caller shares it."""
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


def block(grid, row_sizes, col_sizes, nvars, field):
    """The matrix of the block rows grid, the inverse of ``unstack``.

    Block (i, j) fills row_sizes[i] x col_sizes[j]: a PolyMatrix of that
    shape, or 0 or 1 for the shared zero or (square) identity matrix of
    it.  Rows are joined in one pass, with no matrix built per block row.
    """
    if len(grid) != len(row_sizes):
        raise UsageError("block grid does not match its row sizes")
    rows = []
    for blocks, n in zip(grid, row_sizes):
        if len(blocks) != len(col_sizes):
            raise UsageError("block row does not match its column sizes")
        mats = []
        for b, m in zip(blocks, col_sizes):
            if b.__class__ is int and (b == 0 or (b == 1 and n == m)):
                b = _shared(n, m, nvars, field, b == 1)
            elif b.__class__ is not PolyMatrix:
                raise UsageError("a block is a PolyMatrix, 0 or a square 1")
            elif b.nrows != n or b.ncols != m:
                raise UsageError("a %dx%d block in a %dx%d place"
                                 % (b.nrows, b.ncols, n, m))
            mats.append(b.entries)
        if len(mats) == 1:
            rows.extend(mats[0])
        else:
            rows.extend(map(sum, zip(*mats), repeat(())))
    return PolyMatrix(sum(row_sizes), sum(col_sizes), nvars, field, tuple(rows))


def hstack(blocks):
    """Join matrices left to right: ``block`` with one block row."""
    blocks = list(blocks)
    if not blocks:
        raise UsageError("hstack of nothing")
    b = blocks[0]
    return block([blocks], (b.nrows,), [m.ncols for m in blocks], b.nvars, b.field)


def vstack(blocks):
    """Join matrices top to bottom: ``block`` with one block column."""
    blocks = list(blocks)
    if not blocks:
        raise UsageError("vstack of nothing")
    b = blocks[0]
    return block([[m] for m in blocks], [m.nrows for m in blocks], (b.ncols,),
                 b.nvars, b.field)


def unstack(m, row_sizes, col_sizes):
    """The blocks of m, cut into rows of the sizes row_sizes and columns of
    the sizes col_sizes, as a list of block rows: the inverse of
    ``block``."""
    if sum(row_sizes) != m.nrows or sum(col_sizes) != m.ncols:
        raise UsageError("block sizes do not add up to the matrix shape")
    rows = list(accumulate(row_sizes, initial=0))
    cols = list(accumulate(col_sizes, initial=0))
    return [[PolyMatrix(r1 - r0, c1 - c0, m.nvars, m.field,
                        tuple(row[c0:c1] for row in m.entries[r0:r1]))
             for c0, c1 in zip(cols, cols[1:])]
            for r0, r1 in zip(rows, rows[1:])]
