"""Exact sparse linear algebra over the rationals or a prime field.

Matrices are lists of sparse rows, each row a dict {column: coefficient}.
Coefficients live in a field object from mfcat.fields.

One kernel, ``_eliminate``, row-reduces over F_p on raw Python ints and
over Q on normalized (num, den) pairs of ints (after LaMacchia-Odlyzko
1990): pivot columns are taken left to right, a column-to-rows index
finds the rows holding each one, the sparsest of them is the pivot row,
and back-substitution clears each pivot column from the pivot rows an
index of holders names.  Inverses mod p come from pow(x, -1, p).  A rank
stops after the forward pass; ``rref`` also back-substitutes.  Columns
past ncols are carried along but never pivot, which is how ``solver``
tags the equations of [A | I].  Over F_p, ``rref``, ``rank``,
``nullspace`` and ``solve`` turn the entries into ints once on the way in
and back into F_p elements once on the way out.

Over the rationals every rank is certified or exact:

* full rank: the rows are reduced mod PRIME.  A minor that is nonzero
  mod p is nonzero over Q, so rank mod p <= rank over Q <= min(nonzero
  rows, columns), and a rank mod p that reaches that bound is exact.
* Z_p == B_p: ``certified_dims`` reads one degree of a complex (a
  hom-space block) from the ranks mod PRIME of its cycle equations and
  of its boundaries (``certified_rank``); since boundaries are cycles,
  B_p <= B <= Z <= Z_p, and equal ends settle both.
* exact fallback: otherwise, or when a denominator is divisible by
  PRIME, ``_rref_qq`` runs the kernel exactly over Q, forward only for a
  rank.  ``rref``, ``nullspace`` and ``solve`` over the rationals always
  take this exact path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import UsageError
from .fields import FpElement, PrimeField

# The prime of the modular pass over the rationals: the largest prime
# below 2^31, so residues and their products stay small Python ints.
PRIME = 2**31 - 1
_GF_PRIME = PrimeField(PRIME)


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    if field.rational:
        return _rref_qq(rows, ncols, True)
    p = field.p
    red, pivots = _eliminate(_residues(rows, p), ncols, p, True)
    return [{c: FpElement(v, p) for c, v in row.items()} for row in red], pivots


def rank(rows, ncols, field):
    """Rank over the field; over the rationals, certified by one reduction.

    Over F_p the kernel's forward pass gives the rank.  Rational rows may
    also be ranked over F_p: that is the rank of their reduction mod p,
    and a denominator divisible by p raises UsageError.  Over the
    rationals the rows are reduced mod PRIME first; a rank mod p that
    reaches the upper bound of ``_full_rank`` is exact, and otherwise (or
    when a denominator is divisible by PRIME) the exact forward pass runs.
    """
    p = PRIME if field.rational else field.p
    res = _residues(rows, p)
    if res is not None:
        r = len(res) if len(res) < 2 else len(_eliminate(res, ncols, p, False)[1])
        if not field.rational or _full_rank(r, rows, ncols):
            return r
    elif not field.rational:
        raise UsageError(f"a denominator vanishes mod {p}")
    return len(_rref_qq(rows, ncols, False)[1])


def certified_rank(rows, ncols, field):
    """(r, exact): the rank of rows when exact is True, else a lower bound
    on it, or None.

    Over F_p the rank is exact.  Over the rationals r is the rank mod
    PRIME, which never exceeds the rank over Q, and exact when it is full
    (``_full_rank``); r is None when a denominator is divisible by PRIME.
    """
    if not field.rational:
        return rank(rows, ncols, field), True
    try:
        r = rank(rows, ncols, _GF_PRIME)
    except UsageError:
        return None, False
    return r, _full_rank(r, rows, ncols)


def certified_dims(ncols, cycle_rank, boundary_rank):
    """(Z, B) of one degree of a complex over ncols unknowns, from the
    ``certified_rank`` of its cycle equations and of its boundaries; None
    for a side only exact elimination can settle.

    Z is ncols minus the rank of the cycle equations, B the rank of the
    boundaries, each a vector in their kernel.  A side whose rank is
    exact is settled on its own.  Boundaries are cycles, so B_p <= B <= Z
    <= Z_p for the ranks mod p: when Z_p == B_p both are exact.
    """
    (zr, z_exact), (br, b_exact) = cycle_rank, boundary_rank
    if zr is not None and br is not None and ncols - zr == br:
        return br, br
    return ncols - zr if z_exact else None, br if b_exact else None


def _full_rank(r, rows, ncols):
    """Whether a rank r mod p reaches min(nonzero rows, ncols).  No rank
    over Q exceeds that bound, so then r is the rank over Q too.  The
    count of rows is tried first: it bounds the nonzero rows."""
    return r == min(len(rows), ncols) or r == min(
        sum(1 for row in rows if any(row.values())), ncols)


def nullspace(rows, ncols, field):
    """Basis of the kernel as sparse column vectors {index: value}.

    One basis vector per free column, with that free coordinate set to 1.
    The basis is deterministic: free columns in increasing order.  A basis
    vector's free column is its largest key (a reduced row's free columns
    lie right of its pivot), and it is 0 at every other free column, so a
    kernel vector is the sum of v[f] times the basis vector of f over the
    free columns f.
    """
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    one = field.one
    basis = {free: {free: one} for free in range(ncols) if free not in pivot_set}
    # a reduced row holds its pivot and free columns only
    for row, pcol in zip(red, pivots):
        for c, v in row.items():
            if c != pcol:
                basis[c][pcol] = -v
    return list(basis.values())


def solve(rows, rhs, ncols, field):
    """One solution of the sparse system rows * x = rhs, or None.

    rhs is a list aligned with rows.  Free variables are set to zero, so
    the answer is deterministic.
    """
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[ncols] = b
        aug.append(r)
    red, pivots = rref(aug, ncols + 1, field)
    sol = {}
    for row, pcol in zip(red, pivots):
        if pcol == ncols:
            return None  # a row reduced to 0 = 1
        v = row.get(ncols)
        if v is not None:
            sol[pcol] = v
    return sol


def solver(rows, ncols, field):
    """(substitute, size): a kept solver for the keyed system {key: sparse
    row}.  substitute is a function from a right-hand side {key: value} to
    the solution ``solve`` gives, for every right-hand side the system can
    meet; size is the number of (key, entry) pairs it holds.

    [A | I] is reduced once, one tag column per equation past ncols, so
    only the columns of A pivot.  For each pivot column of A the row of
    the transform E (R = E A) is kept, as (key, entry) pairs; then
    x[pivot k] = (E b)_k with the free unknowns zero, the unique solution
    ``solve`` picks.  The rows of E that reduce A to zero vanish on every
    consistent b; the kernel drops them.  An inconsistent b still gets a
    vector, which is no solution: callers check it.
    """
    keys = list(rows)
    one = field.one
    aug = []
    for i, row in enumerate(rows.values()):
        r = dict(row)
        r[ncols + i] = one
        aug.append(r)
    red, pivots = rref(aug, ncols, field)
    kept = [
        (pcol, [(keys[c - ncols], v) for c, v in row.items() if c >= ncols])
        for row, pcol in zip(red, pivots)
    ]

    def substitute(rhs):
        sol = {}
        for pcol, erow in kept:
            v = 0
            for key, e in erow:
                b = rhs.get(key)
                if b is not None:
                    v = e * b + v
            if v:
                sol[pcol] = v
        return sol

    return substitute, sum(len(erow) for _, erow in kept)


def feasible_nonneg(rows, rhs):
    """Solve rows * x = rhs with x >= 0 over the rationals, exactly.

    rows: dense list of lists of Fractions, rhs: list of Fractions.
    Returns a list of Fractions (one per column) or None when infeasible.
    Phase-1 simplex with Bland's rule, which cannot cycle, so this always
    terminates and a None answer is a certificate of infeasibility.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # tableau with artificial basis; make rhs nonnegative first
    tab = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        tab.append(row + [b])
    basis = list(range(n, n + m))  # artificial variable per row
    # objective: minimize sum of artificials; reduced costs via row sums
    cost = [Fraction(0)] * (n + 1)
    for i in range(m):
        for j in range(n):
            cost[j] -= tab[i][j]
        cost[n] -= tab[i][n]
    while True:
        enter = -1
        for j in range(n):  # Bland: first improving column
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][n] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            break  # unbounded direction; cannot happen with artificials
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [v - f * w for v, w in zip(cost, tab[leave])]
        basis[leave] = enter
    # feasible iff all artificials can be driven to zero
    for i in range(m):
        if basis[i] >= n and tab[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][n]
    return x


def _rref_qq(rows, ncols, reduce):
    # Exact elimination over Q: the kernel on normalized (num, den) pairs
    # of ints.  Without reduce only the pivot columns are meant.
    work = []
    for row in rows:
        r = {c: (v.numerator, v.denominator) for c, v in row.items() if v}
        if r:
            work.append(r)
    red, pivots = _eliminate(work, ncols, None, reduce)
    if not reduce:
        return red, pivots
    return [{c: Fraction(n, d) for c, (n, d) in row.items()} for row in red], pivots


def _residues(rows, p):
    """rows with every entry as an int in 1..p-1, empty rows dropped.

    Entries are F_p elements or rationals; None when a rational's
    denominator is divisible by p, so that the rows have no reduction.
    """
    out = []
    for row in rows:
        r = {}
        for c, v in row.items():
            if type(v) is FpElement:
                x = v.val
            else:
                d = v.denominator
                if d == 1:
                    x = v.numerator % p
                elif d % p:
                    x = v.numerator * pow(d, -1, p) % p
                else:
                    return None
            if x:
                r[c] = x
        if r:
            out.append(r)
    return out


def _eliminate(rows, ncols, p, reduce):
    """Row-reduce rows.  Returns (pivot rows, pivot columns).

    Over F_p (p a prime) entries are ints in 1..p-1; over Q (p None) they
    are normalized (num, den) pairs of ints with den > 0.  rows are dicts
    {column: entry}; they are consumed.  Pivot columns are taken left to
    right among the columns < ncols, and for each one an index from column
    to rows finds the rows that hold it; the sparsest of them is the pivot
    row (LaMacchia-Odlyzko), scaled to a leading 1, and is subtracted from
    the others.  Columns >= ncols are carried along but not indexed, so
    they never pivot.  The index is appended to on fill-in and never
    pruned, so stale entries are skipped on use.  Without reduce this is
    the forward pass alone, enough for a rank, and the pivot rows are not
    all kept; with it, each pivot column is also cleared from the earlier
    pivot rows, giving the reduced row echelon form (unique on the columns
    < ncols).
    """
    where = {}
    for i, r in enumerate(rows):
        for c in r:
            if c < ncols:
                held = where.get(c)
                if held is None:
                    where[c] = [i]
                else:
                    held.append(i)
    pivots = []
    pivot_rows = []
    # fill-in below ncols lands only on columns of a pivot row, already in
    # the index
    for col in sorted(where):
        holders = [i for i in where[col] if rows[i] is not None and col in rows[i]]
        if not holders:
            continue
        best = holders[0]
        if len(holders) > 1:
            best = min(holders, key=lambda i: len(rows[i]))
        elif not reduce:
            rows[best] = None
            pivots.append(col)
            continue
        row = _leading_one(rows[best], col, p)
        rows[best] = None
        pivots.append(col)
        pivot_rows.append(row)
        _clear(rows, holders, col, row, p, where)
    if reduce:
        _back_substitute(pivot_rows, pivots, p)
    return pivot_rows, pivots


def _leading_one(row, col, p):
    """row divided by its entry at col."""
    if p is not None:
        inv = pow(row[col], -1, p)
        return row if inv == 1 else {c: v * inv % p for c, v in row.items()}
    pn, pd = row[col]
    if pn == pd:
        return row
    if pn < 0:
        pn, pd = -pn, -pd
    out = {}
    for c, (n, d) in row.items():
        g = gcd(n, pn)
        h = gcd(pd, d)
        out[c] = (n // g * (pd // h), d // h * (pn // g))
    return out


def _clear(rows, targets, col, pivot_row, p, where):
    """Clear col from rows[i] for each i in targets: subtract rows[i][col]
    times pivot_row, whose entry at col is 1.  Entries that cancel are
    dropped.  A target that is None or lacks col (the pivot row itself, or
    a repeated index entry) is skipped.  Each new entry at a column of the
    index where appends its row there."""
    rest = [(c, v) for c, v in pivot_row.items() if c != col]
    for i in targets:
        r = rows[i]
        f = None if r is None else r.pop(col, None)
        if f is None:
            continue
        if p is not None:
            for c, v in rest:
                cur = r.get(c)
                if cur is None:
                    r[c] = -f * v % p
                    held = where.get(c)
                    if held is not None:
                        held.append(i)
                else:
                    cur = (cur - f * v) % p
                    if cur:
                        r[c] = cur
                    else:
                        del r[c]
            continue
        fn, fd = f
        for c, (vn, vd) in rest:
            # t = f * v, reduced
            g = gcd(fn, vd)
            h = gcd(vn, fd)
            tn = fn // g * (vn // h)
            td = fd // h * (vd // g)
            cur = r.get(c)
            if cur is None:
                r[c] = (-tn, td)
                held = where.get(c)
                if held is not None:
                    held.append(i)
                continue
            n, d = cur
            if d == td:
                n -= tn
            else:
                g = gcd(d, td)
                n = n * (td // g) - tn * (d // g)
                d = d // g * td
            if n:
                g = gcd(n, d)
                r[c] = (n // g, d // g) if g > 1 else (n, d)
            else:
                del r[c]


def _back_substitute(pivot_rows, pivots, p):
    # Clear each pivot column from the earlier pivot rows, last pivot
    # first.  A finished pivot row holds its own pivot and free columns
    # only, so fill-in never reaches a pivot column and the index of
    # pivot-column holders, built once, stays exact.
    owner = {col: k for k, col in enumerate(pivots)}
    holders = {col: [] for col in pivots}
    for k, row in enumerate(pivot_rows):
        for c in row:
            if c in owner and owner[c] != k:
                holders[c].append(k)
    for k in range(len(pivots) - 1, 0, -1):
        col = pivots[k]
        if holders[col]:
            _clear(pivot_rows, holders[col], col, pivot_rows[k], p, {})
