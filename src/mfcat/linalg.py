"""Exact sparse linear algebra over the rationals or a prime field.

Matrices are lists of sparse rows, each row a dict {column: coefficient}.
Coefficients live in a field object from mfcat.fields.

One kernel, ``_eliminate``, row-reduces mod a prime p on raw Python ints
(after LaMacchia-Odlyzko 1990): pivot columns are taken left to right, a
column-to-rows index finds the rows holding each one, the sparsest of
them is the pivot row, and inverses come from pow(x, -1, p).  A rank
stops after the forward pass; ``rref`` also back-substitutes.  Over F_p,
``rref``, ``rank``, ``nullspace`` and ``solve`` turn the entries into ints
once on the way in and back into F_p elements once on the way out.

Over the rationals every rank is certified or exact:

* full rank: the rows are reduced mod PRIME.  A minor that is nonzero
  mod p is nonzero over Q, so rank mod p <= rank over Q <= min(nonzero
  rows, columns), and a rank mod p that reaches that bound is exact.
* Z_p == B_p: ``certified_dims`` ranks the cycle equations and the
  boundaries of one degree of a complex (a hom-space block) mod PRIME;
  since boundaries are cycles, B_p <= B <= Z <= Z_p, and equal ends
  settle both.
* exact fallback: otherwise, or when a denominator is divisible by
  PRIME, ``_rref_qq`` eliminates exactly on normalized (num, den) pairs of
  ints, forward only for a rank.  ``rref``, ``nullspace`` and ``solve``
  over the rationals always take this exact path.
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
    red, pivots = _eliminate(_residues(rows, p), p, True)
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
        r = len(res) if len(res) < 2 else len(_eliminate(res, p, False)[1])
        if not field.rational or _full_rank(r, rows, ncols):
            return r
    elif not field.rational:
        raise UsageError(f"a denominator vanishes mod {p}")
    return len(_rref_qq(rows, ncols, False)[1])


def certified_dims(cycle_rows, boundary_rows, ncols, field):
    """(Z, B) of one degree of a complex, from ranks mod p; None for a side
    only exact elimination can settle.

    Z is the dimension of the kernel of cycle_rows, B the rank of
    boundary_rows, each a vector in that kernel.  Over F_p both ranks are
    exact.  Over the rationals a rank mod PRIME never exceeds the rank
    over Q, and boundaries are cycles, so B_p <= B <= Z <= Z_p: when
    Z_p == B_p both are exact.  Otherwise a side whose rank mod p is full
    (``_full_rank``) is exact on its own.  A denominator divisible by PRIME
    leaves both open.
    """
    if not field.rational:
        return ncols - rank(cycle_rows, ncols, field), rank(boundary_rows, ncols, field)
    try:
        zrank = rank(cycle_rows, ncols, _GF_PRIME)
        brank = rank(boundary_rows, ncols, _GF_PRIME)
    except UsageError:
        return None, None
    zdim = ncols - zrank
    if zdim == brank:
        return zdim, brank
    return (
        zdim if _full_rank(zrank, cycle_rows, ncols) else None,
        brank if _full_rank(brank, boundary_rows, ncols) else None,
    )


def _full_rank(r, rows, ncols):
    """Whether a rank r mod p reaches min(nonzero rows, ncols).  No rank
    over Q exceeds that bound, so then r is the rank over Q too.  The
    count of rows is tried first: it bounds the nonzero rows."""
    return r == min(len(rows), ncols) or r == min(
        sum(1 for row in rows if any(row.values())), ncols)


def nullspace(rows, ncols, field):
    """Basis of the kernel as sparse column vectors {index: value}.

    One basis vector per free column, with that free coordinate set to 1.
    The basis is deterministic: free columns in increasing order.
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


def _mul(a, b):
    an, ad = a
    bn, bd = b
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    if g1 > 1:
        an //= g1
        bd //= g1
    if g2 > 1:
        bn //= g2
        ad //= g2
    return (an * bn, ad * bd)


def _add(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        n, d = an + bn, ad
    else:
        g = gcd(ad, bd)
        if g > 1:
            bdr = bd // g
            n = an * bdr + bn * (ad // g)
            d = ad * bdr
        else:
            n = an * bd + bn * ad
            d = ad * bd
    if n == 0:
        return (0, 1)
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return (n, d)


def _axpy(r, src, fn, fd):
    # r += (fn/fd) * src, dropping entries that cancel to zero
    f = (fn, fd)
    for c, v in src.items():
        cur = r.get(c)
        if cur is None:
            r[c] = _mul(v, f)
        else:
            nv = _add(cur, _mul(v, f))
            if nv[0] == 0:
                del r[c]
            else:
                r[c] = nv


def _rref_qq(rows, ncols, reduce):
    # Exact elimination over Q on (num, den) pairs.  Without reduce it
    # stops after the forward pass and only the pivot columns are meant.
    work = []
    for row in rows:
        r = {}
        for c, v in row.items():
            if v:
                r[c] = (v.numerator, v.denominator)
        if r:
            work.append(r)
    pivots = []
    pivot_rows = []
    for col in range(ncols):
        target = -1
        for idx in range(len(work)):
            if col in work[idx]:
                target = idx
                break
        if target < 0:
            continue
        row = work.pop(target)
        pn, pd = row[col]
        if pn > 0:
            inv = (pd, pn)
        else:
            inv = (-pd, -pn)
        row = {c: _mul(v, inv) for c, v in row.items()}
        live = []
        for r in work:
            f = r.get(col)
            if f is not None:
                _axpy(r, row, -f[0], f[1])
            if r:
                live.append(r)
        work = live
        pivots.append(col)
        pivot_rows.append(row)
    if not reduce:
        return pivot_rows, pivots
    for i in range(len(pivot_rows) - 1, 0, -1):
        col = pivots[i]
        row = pivot_rows[i]
        for j in range(i):
            f = pivot_rows[j].get(col)
            if f is not None:
                _axpy(pivot_rows[j], row, -f[0], f[1])
    out = [{c: Fraction(n, d) for c, (n, d) in row.items()} for row in pivot_rows]
    return out, pivots


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


def _eliminate(rows, p, reduce):
    """Row-reduce rows mod the prime p.  Returns (pivot rows, pivot columns).

    rows are dicts {column: int in 1..p-1}; they are consumed.  Pivot
    columns are taken left to right, and for each one an index from
    column to rows finds the rows that hold it; the sparsest of them is
    the pivot row (LaMacchia-Odlyzko), scaled to a leading 1, and is
    subtracted from the others.  The index is appended to on fill-in and
    never pruned, so stale entries are skipped on use.  Without reduce
    this is the forward pass alone, enough for a rank, and the pivot rows
    are not all kept; with it, each pivot column is also cleared from the
    earlier pivot rows, giving the (unique) reduced row echelon form.
    """
    where = {}
    for i, r in enumerate(rows):
        for c in r:
            held = where.get(c)
            if held is None:
                where[c] = [i]
            else:
                held.append(i)
    pivots = []
    pivot_rows = []
    # fill-in lands only on columns of a pivot row, already in the index
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
        row = rows[best]
        rows[best] = None
        inv = pow(row[col], -1, p)
        if inv != 1:
            row = {c: v * inv % p for c, v in row.items()}
        pivots.append(col)
        pivot_rows.append(row)
        rest = [(c, v) for c, v in row.items() if c != col]
        for i in holders:
            r = rows[i]
            f = None if r is None else r.pop(col, None)
            if f is None:  # the pivot row, or a repeated index entry
                continue
            for c, v in rest:
                cur = r.get(c)
                if cur is None:
                    r[c] = -f * v % p
                    where[c].append(i)
                else:
                    cur = (cur - f * v) % p
                    if cur:
                        r[c] = cur
                    else:
                        del r[c]
    if reduce:
        _back_substitute(pivot_rows, pivots, p)
    return pivot_rows, pivots


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
        if not holders[col]:
            continue
        rest = [(c, v) for c, v in pivot_rows[k].items() if c != col]
        for j in holders[col]:
            r = pivot_rows[j]
            f = r.pop(col)
            for c, v in rest:
                cur = r.get(c)
                if cur is None:
                    r[c] = -f * v % p
                else:
                    cur = (cur - f * v) % p
                    if cur:
                        r[c] = cur
                    else:
                        del r[c]
