"""Exact sparse linear algebra over the rationals or a prime field.

Matrices are lists of sparse rows, each row a dict {column: coefficient}.
Coefficients live in a field object from mfcat.fields.  Over the
rationals, row reduction works on normalized (num, den) pairs of Python
ints, avoiding Fraction's per-operation overhead inside the elimination
loop; results convert back to Fraction at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    if field.rational:
        return _rref_qq(rows, ncols)
    return _rref_generic(rows, ncols)


def rank(rows, ncols, field):
    _, pivots = rref(rows, ncols, field)
    return len(pivots)


def nullspace(rows, ncols, field):
    """Basis of the kernel as sparse column vectors {index: value}.

    One basis vector per free column, with that free coordinate set to 1.
    The basis is deterministic: free columns in increasing order.
    """
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    one = field.one
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: one}
        for row, pcol in zip(red, pivots):
            v = row.get(free)
            if v is not None:
                vec[pcol] = -v
        basis.append(vec)
    return basis


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


def _rref_qq(rows, ncols):
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
    for i in range(len(pivot_rows) - 1, 0, -1):
        col = pivots[i]
        row = pivot_rows[i]
        for j in range(i):
            f = pivot_rows[j].get(col)
            if f is not None:
                _axpy(pivot_rows[j], row, -f[0], f[1])
    out = [{c: Fraction(n, d) for c, (n, d) in row.items()} for row in pivot_rows]
    return out, pivots


def _gen_axpy(r, src, f):
    # r += f * src over a generic field
    for c, v in src.items():
        cur = r.get(c)
        nv = (cur + f * v) if cur is not None else f * v
        if nv:
            r[c] = nv
        elif cur is not None:
            del r[c]


def _rref_generic(rows, ncols):
    work = []
    for row in rows:
        r = {c: v for c, v in row.items() if v}
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
        piv = row[col]
        row = {c: v / piv for c, v in row.items()}
        live = []
        for r in work:
            f = r.get(col)
            if f is not None:
                _gen_axpy(r, row, -f)
            if r:
                live.append(r)
        work = live
        pivots.append(col)
        pivot_rows.append(row)
    for i in range(len(pivot_rows) - 1, 0, -1):
        col = pivots[i]
        row = pivot_rows[i]
        for j in range(i):
            f = pivot_rows[j].get(col)
            if f is not None:
                _gen_axpy(pivot_rows[j], row, -f)
    return pivot_rows, pivots
