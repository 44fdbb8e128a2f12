"""Shared builders for the test suites.

The standing cast: the one-variable power potentials x^n for n = 2..6 with
their elementary factorizations, the plane quadric x^2 + y^2 as a Koszul
factorization, and the Fermat cubic x^3 + y^3 + z^3 likewise.
"""

from fractions import Fraction

from mfcat import (
    QQ,
    Homotopy,
    Polynomial,
    PolyMatrix,
    WeightSystem,
    cyclic_action,
    elementary_factorization,
    koszul_factorization,
    monomials_of_weighted_degree,
    parse_poly,
)


def power_weights(n):
    return WeightSystem((1,), n)


def an_objects(n, field=QQ):
    """The elementary factorizations (x^k | x^{n-k}) of x^n, k = 1..n-1."""
    ws = power_weights(n)
    out = {}
    for k in range(1, n):
        out[k] = elementary_factorization(
            parse_poly(f"x1^{k}", 1, field), parse_poly(f"x1^{n - k}", 1, field), ws)
    return out


def an_action(n):
    return cyclic_action(n, (1,), 1)


def quadric(field=QQ):
    ws = WeightSystem((1, 1), 2)
    x = parse_poly("x1", 2, field)
    y = parse_poly("x2", 2, field)
    return koszul_factorization([(x, x), (y, y)], ws)


def quadric_action():
    return cyclic_action(2, (1, 1), 2)


def fermat_cubic(field=QQ):
    ws = WeightSystem((1, 1, 1), 3)
    pairs = []
    for i in range(3):
        v = Polynomial.variable(i, 3, field)
        pairs.append((v, v * v))
    return koszul_factorization(pairs, ws)


def fermat_action():
    return cyclic_action(3, (1, 1, 1), 3)


def full_suite(field=QQ):
    """Every suite object as (label, factorization) pairs, over the field."""
    out = []
    for n in range(2, 7):
        for k, mf in sorted(an_objects(n, field).items()):
            out.append((f"x^{n}:k={k}", mf))
    out.append(("quadric", quadric(field)))
    out.append(("fermat", fermat_cubic(field)))
    return out


def random_matrix(nrows, ncols, row_degs, col_degs, shift, weights, rng,
                  nvars, field):
    """Random polynomial matrix with entry (i, j) homogeneous of degree
    shift + col_degs[j] - row_degs[i]."""
    rows = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            d = shift + col_degs[j] - row_degs[i]
            p = Polynomial.zero(nvars, field)
            for mono in monomials_of_weighted_degree(tuple(weights.weights), d):
                c = rng.randint(-3, 3)
                if c:
                    p = p + Polynomial(nvars, {mono: Fraction(c)}, field)
            row.append(p)
        rows.append(tuple(row))
    return PolyMatrix(nrows, ncols, nvars, field, tuple(rows))


def random_homotopy(source, target, degree, rng):
    """A random odd map from source to target with the degree bookkeeping
    of a homotopy for a chain map of the given degree.  Its boundary is a
    null-homotopic chain map by construction."""
    s, t = source, target
    ws = s.weights
    dd = ws.degree
    nvars, field = s.W.nvars, s.W.field
    t0 = random_matrix(
        t.m1.rank, s.m0.rank, t.m1.degrees, s.m0.degrees,
        degree + t.split_degree - dd, ws, rng, nvars, field)
    t1 = random_matrix(
        t.m0.rank, s.m1.rank, t.m0.degrees, s.m1.degrees,
        degree - s.split_degree, ws, rng, nvars, field)
    return Homotopy(source=s, target=t, t0=t0, t1=t1, degree=degree)
