"""Deliberately naive reference implementations used by the tests.

Everything here recomputes results the package produces, but along an
independent route: dense Gaussian elimination over Fraction instead of the
sparse solver, direct monomial enumeration per matrix entry instead of the
graded index bookkeeping, exhaustive search over character assignments
instead of constraint propagation, and a literal two-element group average
instead of character filtering.  Nothing in this module imports the package
under test; converters read plain attributes off the objects they are handed.

Polynomials are plain dicts mapping exponent tuples to Fraction.  Matrices
of polynomials are nested lists of such dicts.
"""

from fractions import Fraction
from itertools import combinations, product

F0 = Fraction(0)


# ---------------------------------------------------------------------------
# tiny polynomial arithmetic


def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, F0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pneg(a):
    return {e: -c for e, c in a.items()}


def pscale(a, c):
    if not c:
        return {}
    return {e: c * x for e, x in a.items()}


def pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, F0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[{} for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            a = A[i][t]
            if not a:
                continue
            for j in range(m):
                if B[t][j]:
                    out[i][j] = padd(out[i][j], pmul(a, B[t][j]))
    return out


def mat_sub(A, B):
    return [[padd(a, pneg(b)) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_is_zero(A):
    return all(not e for row in A for e in row)


def dense_product(A, B, ncols, p=None):
    """A @ B for nested lists of {exponent: coefficient} dicts, entry by
    entry over every index, B having ncols columns (B may have no rows).
    Coefficients are Fractions, or ints reduced mod p when p is given."""
    out = []
    for i in range(len(A)):
        row = []
        for j in range(ncols):
            acc = {}
            for k in range(len(B)):
                for ea, ca in A[i][k].items():
                    for eb, cb in B[k][j].items():
                        e = tuple(x + y for x, y in zip(ea, eb))
                        acc[e] = acc.get(e, 0) + ca * cb
            if p is not None:
                acc = {e: c % p for e, c in acc.items()}
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# dense rational row reduction


def dense_rref(rows, one=Fraction(1)):
    """Reduced row echelon form of a dense list-of-lists matrix over the
    field of ``one`` (Fraction by default, or an F_p element).

    Returns (rref rows, pivot column tuple).  The input is not modified.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = one / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, tuple(pivots)


def dense_rank(rows, one=Fraction(1)):
    return len(dense_rref(rows, one)[1])


def dense_rank_mod(rows, p):
    """Rank of a dense matrix of integers (or integral Fractions) mod p."""
    mat = [[int(x) % p for x in r] for r in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c]
            if f:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# monomial enumeration


def wdeg(mono, weights):
    return sum(e * w for e, w in zip(mono, weights))


def monomials_of_wdeg(nvars, weights, d):
    """All exponent tuples of weighted degree exactly d, positive weights."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    w = weights[0]
    e = 0
    while e * w <= d:
        for rest in monomials_of_wdeg(nvars - 1, weights[1:], d - e * w):
            out.append((e,) + rest)
        e += 1
    return out


def milnor_basis(powers):
    """Monomial basis of k[x]/(x_i^{n_i - 1}) for a diagonal sum of powers.

    The Jacobian ideal of W = sum x_i^{n_i} is generated by the x_i^{n_i-1},
    so the basis is every exponent tuple with e_i <= n_i - 2.
    """
    return sorted(product(*[range(n - 1) for n in powers]))


# ---------------------------------------------------------------------------
# conversion from package objects (attribute reads only, no package import)


def poly_to_dict(p):
    """Coefficients as Fractions; an F_p coefficient as its integer
    representative (read off ``.val``)."""
    return {tuple(e): Fraction(getattr(c, "val", c)) for e, c in p.terms.items()}


def matrix_to_data(m):
    return [[poly_to_dict(e) for e in row] for row in m.entries]


def matrix_to_field_data(m):
    """Entries as {exponent: coefficient} dicts, F_p coefficients as their
    int representatives (read off ``.val``), rationals as Fractions."""
    return [
        [{tuple(e): getattr(c, "val", c) for e, c in poly.terms.items()}
         for poly in row]
        for row in m.entries
    ]


def mf_to_data(mf):
    return {
        "nvars": mf.W.nvars,
        "weights": tuple(mf.weights.weights),
        "D": mf.weights.degree,
        "a": mf.split_degree,
        "r0": mf.m0.rank,
        "r1": mf.m1.rank,
        "g0": tuple(mf.m0.degrees),
        "g1": tuple(mf.m1.degrees),
        "W": poly_to_dict(mf.W),
        "p0": matrix_to_data(mf.p0),
        "p1": matrix_to_data(mf.p1),
    }


def shift_data(t):
    """mf_to_data of the shift of the factorization t describes: the two
    modules swap, so do their generator degrees, the maps become -p1 and
    -p0, and the split degree, the degree of the new p0, is D - a."""
    out = dict(t)
    out.update(r0=t["r1"], r1=t["r0"], g0=t["g1"], g1=t["g0"], a=t["D"] - t["a"],
               p0=[[pneg(e) for e in row] for row in t["p1"]],
               p1=[[pneg(e) for e in row] for row in t["p0"]])
    return out


# ---------------------------------------------------------------------------
# contractibility from the constant terms


def contractible_by_nakayama(data, p=None):
    """Whether the graded factorization ``data`` (mf_to_data) is zero in the
    homotopy category: exactly when the constant terms of p0 and p1 have
    ranks adding up to the rank of P0.  With positive weights a unit entry
    c splits off a contractible brick (c | W/c), one rank of constants
    each, and what is left has every entry in the maximal ideal, so its
    identity is not null-homotopic (graded Nakayama).  Ranks are dense,
    over Q, or over F_p when p is given."""
    zero = (0,) * data["nvars"]
    rank = 0
    for key in ("p0", "p1"):
        rows = [[e.get(zero, F0) for e in row] for row in data[key]]
        rank += dense_rank(rows) if p is None else dense_rank_mod(rows, p)
    return rank == data["r0"]


# ---------------------------------------------------------------------------
# hom space dimensions, degree by degree, by dense linear algebra
#
# Conventions (same mathematics as the package, separate bookkeeping):
# a chain map of internal degree d from (P, p) to (Q, q) is a pair
# f0: P0 -> Q0, f1: P1 -> Q1 with f1 p0 = q0 f0 and f0 p1 = q1 f1.
# It is a boundary when f0 = t1 p0 + q1 t0 and f1 = q0 t1 + t0 p1 for some
# t0: P0 -> Q1, t1: P1 -> Q0.  Entry degrees follow from the generator
# degrees and the two split degrees.


def _entry_coords(slots, nvars, weights):
    coords = []
    for name, nrows, ncols, degfn in slots:
        for i in range(nrows):
            for j in range(ncols):
                for mono in monomials_of_wdeg(nvars, weights, degfn(i, j)):
                    coords.append((name, i, j, mono))
    return coords


def _rank_of_images(images, p=None):
    images = [img for img in images if img]
    if not images:
        return 0
    keys = sorted(set().union(*images))
    rows = [[img.get(k, F0) for k in keys] for img in images]
    return dense_rank(rows) if p is None else dense_rank_mod(rows, p)


def _add_image(vec, block, i, j, poly, sign=1):
    for e, c in poly.items():
        key = (block, i, j, e)
        s = vec.get(key, F0) + sign * c
        if s:
            vec[key] = s
        else:
            vec.pop(key, None)


def hom_dims(s, t, lo, hi, p=None):
    """Per-degree cycle, boundary and homology dimensions.

    s and t are dicts from mf_to_data over the same graded ring, over the
    rationals, or over F_p when p is given.  Returns
    {d: {"Z": int, "B": int, "H": int}} for lo <= d <= hi.
    """
    if s["weights"] != t["weights"] or s["D"] != t["D"]:
        raise ValueError("factorizations live over different gradings")
    nvars, weights, D = s["nvars"], s["weights"], s["D"]
    p0s, p1s = s["p0"], s["p1"]
    q0, q1 = t["p0"], t["p1"]
    out = {}
    for d in range(lo, hi + 1):
        f_slots = [
            ("f0", t["r0"], s["r0"], lambda i, j: d + s["g0"][j] - t["g0"][i]),
            ("f1", t["r1"], s["r1"],
             lambda i, j: d + t["a"] - s["a"] + s["g1"][j] - t["g1"][i]),
        ]
        t_slots = [
            ("t0", t["r1"], s["r0"],
             lambda i, j: d + t["a"] - D + s["g0"][j] - t["g1"][i]),
            ("t1", t["r0"], s["r1"],
             lambda i, j: d - s["a"] + s["g1"][j] - t["g0"][i]),
        ]
        fcoords = _entry_coords(f_slots, nvars, weights)
        tcoords = _entry_coords(t_slots, nvars, weights)

        c_images = []
        for name, i, j, mono in fcoords:
            m = {mono: Fraction(1)}
            vec = {}
            if name == "f0":
                for r in range(t["r1"]):
                    _add_image(vec, "o1", r, j, pmul(q0[r][i], m), -1)
                for c in range(s["r1"]):
                    _add_image(vec, "o2", i, c, pmul(m, p1s[j][c]))
            else:
                for c in range(s["r0"]):
                    _add_image(vec, "o1", i, c, pmul(m, p0s[j][c]))
                for r in range(t["r0"]):
                    _add_image(vec, "o2", r, j, pmul(q1[r][i], m), -1)
            c_images.append(vec)

        d_images = []
        for name, i, j, mono in tcoords:
            m = {mono: Fraction(1)}
            vec = {}
            if name == "t0":
                for r in range(t["r0"]):
                    _add_image(vec, "f0", r, j, pmul(q1[r][i], m))
                for c in range(s["r1"]):
                    _add_image(vec, "f1", i, c, pmul(m, p1s[j][c]))
            else:
                for c in range(s["r0"]):
                    _add_image(vec, "f0", i, c, pmul(m, p0s[j][c]))
                for r in range(t["r1"]):
                    _add_image(vec, "f1", r, j, pmul(q0[r][i], m))
            d_images.append(vec)

        z = len(fcoords) - _rank_of_images(c_images, p)
        b = _rank_of_images(d_images, p)
        if b > z:
            raise AssertionError("boundary rank exceeds cycle dimension")
        out[d] = {"Z": z, "B": b, "H": z - b}
    return out


def hom_total(s, t, lo, hi):
    return sum(v["H"] for v in hom_dims(s, t, lo, hi).values())


# ---------------------------------------------------------------------------
# exhaustive enumeration of equivariant structures


def monomial_char(mono, orders, exponents):
    return tuple(
        sum(row[k] * mono[k] for k in range(len(mono))) % m
        for m, row in zip(orders, exponents))


def _entry_wants(poly, want, orders, exponents):
    return all(
        monomial_char(e, orders, exponents) == want for e in poly)


def brute_force_structures(data, orders, exponents):
    """Every character assignment making p0 and p1 equivariant, by search.

    Tries all |G|^(r0+r1) assignments.  Returns a sorted list of pairs
    (chars0, chars1), each a tuple of character tuples.  Empty when W is
    not invariant.
    """
    if not _entry_wants(data["W"], tuple(0 for _ in orders), orders, exponents):
        return []
    chars = sorted(product(*[range(m) for m in orders]))
    r0, r1 = data["r0"], data["r1"]

    def diff(a, b):
        return tuple((x - y) % m for x, y, m in zip(a, b, orders))

    found = []
    for c0s in product(chars, repeat=r0):
        for c1s in product(chars, repeat=r1):
            ok = True
            for i in range(r1):
                for j in range(r0):
                    p = data["p0"][i][j]
                    if p and not _entry_wants(
                            p, diff(c1s[i], c0s[j]), orders, exponents):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                for i in range(r0):
                    for j in range(r1):
                        p = data["p1"][i][j]
                        if p and not _entry_wants(
                                p, diff(c0s[i], c1s[j]), orders, exponents):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                found.append((c0s, c1s))
    return sorted(found)


# ---------------------------------------------------------------------------
# literal Reynolds average for a two-element group


def substitute_signs(poly, exps):
    """Apply x_k -> (-1)^{exps[k]} x_k to a dict polynomial."""
    out = {}
    for e, c in poly.items():
        if sum(a * b for a, b in zip(e, exps)) % 2:
            c = -c
        out[e] = c
    return out


def literal_reynolds_order2(block, src_chars, tgt_chars, exps, twist=0):
    """Average a matrix block over the two-element group, literally.

    block is a nested list of dict polynomials for a map with source
    generator characters src_chars and target generator characters
    tgt_chars (ints mod 2; the group acts by sign flips given by exps).
    Averages onto the twist component.  Every coefficient stays rational
    because the only character values are +1 and -1.
    """
    half = Fraction(1, 2)
    out = []
    for i, row in enumerate(block):
        new_row = []
        for j, p in enumerate(row):
            sign = (-1) ** ((tgt_chars[i] - src_chars[j] + twist) % 2)
            moved = pscale(substitute_signs(p, exps), Fraction(sign))
            new_row.append(pscale(padd(p, moved), half))
        out.append(new_row)
    return out


# ---------------------------------------------------------------------------
# stabilized residue fields of diagonal potentials


def residue_field_even_table(weights, degree, exponents, order, twist=0):
    """{(character,): {internal degree: dimension}} of the even maps of
    transformation character `character` from the stabilized residue field
    k = (x_1 | x_1^(r_1 - 1)) ⊗ ... ⊗ (x_n | x_n^(r_n - 1)) of the diagonal
    potential W = x_1^r_1 + ... + x_n^r_n, with one equivariant structure,
    to k with that structure twisted by `twist`.  W has degree `degree`
    under the weights (so r_i * w_i = degree), every r_i is at least 3,
    and Z/order acts on x_i by exponents[i].  Every character
    0..order-1 is a key; a piece without classes maps to {}.

    The table comes from the subsets S of the variables alone.  Write
    k = S ⊗ Λ(θ_1..θ_n) with the Koszul differential
    δ = Σ_i (x_i θ_i∧ + x_i^(r_i - 1) ι_i), ι_i the contraction with θ_i,
    so δ² = W.  Graded commutators give [δ, θ_i∧] = x_i^(r_i - 1) and
    [δ, ι_i] = x_i, hence η_i = θ_i∧ - x_i^(r_i - 2) ι_i is a closed odd
    endomorphism, with η_i² = -x_i^(r_i - 2) and η_i η_j = -η_j η_i for
    i != j.  Since W lies in m³, End(k) is the exterior algebra on the
    classes of the η_i (Dyckerhoff, 0904.4713), so the even classes are
    η_S = Π_{i∈S} η_i, one for each S of even size, and none other.

    Degree: η_S² = ±Π_{i∈S} x_i^(r_i - 2), and x_i^(r_i - 2) has degree
    degree - 2 w_i, so 2 deg η_S = Σ_{i∈S} (degree - 2 w_i), that is
    deg η_S = |S| degree / 2 - Σ_{i∈S} w_i (for x^r + y^r and S = {x, y}:
    r - 2, not w_x + w_y).

    Character: δ(1) = Σ_i x_i θ_i, so in an equivariant structure θ_i has
    the character of the generator 1 plus that of x_i, and η_S(1) = θ_S.
    A map has transformation character χ when each entry from a generator
    g to a generator h has character χ(h) - χ(g) - χ, so the constant
    entry from 1 to θ_S gives χ(η_S) = Σ_{i∈S} exponents[i]; the twist of
    the target adds `twist`.
    """
    n = len(weights)
    table = {(c,): {} for c in range(order)}
    for size in range(0, n + 1, 2):
        for subset in combinations(range(n), size):
            d = (size * degree) // 2 - sum(weights[i] for i in subset)
            chi = (twist + sum(exponents[i] for i in subset)) % order
            piece = table[chi,]
            piece[d] = piece.get(d, 0) + 1
    return table


# ---------------------------------------------------------------------------
# graded Serre duality


def serre_dual(weights, degree, nvars, a_source, a_target, p):
    """(q, c) such that dim Hom(X, Y[p])_d = dim Hom(Y, X[q])_{c - d} for
    every internal degree d, for factorizations X and Y, with split degrees
    a_source and a_target, of one potential W of the given degree in nvars
    variables with an isolated singularity; [p] is the package's shift and
    Hom(X, Y)_d its degree-d maps.

    The package's grading.  Put P0 = ⊕ R(-g) over the generator degrees g
    of m0 and P1 = ⊕ R(-(g - a)) over those of m1, a the split degree.
    The entry degrees of p0 and p1 make X the graded factorization
    P0 -> P1 -> P0(D) of degree-0 maps (Orlov, math/0503632, §3), D the
    degree of W.  A degree-d map X -> Y has f0 entries of degree
    d + g_X - g_Y and f1 entries of degree d + (g_X - a_X) - (g_Y - a_Y),
    so it is a degree-0 map X -> Y(d): Hom(X, Y)_d = Hom(X, Y(d)) in the
    graded homotopy category.  Its suspension Σ takes X to
    P1 -> P0(D) -> P1(D), with Σ² = (D).  The package's shift has m0 with
    generator degrees g1 = (g1 - a) + a and split degree D - a, so its
    modules are P1(-a) and P0(D)(-a): X[1] = ΣX(-a_X).

    Serre duality.  X -> coker(p1) is an equivalence onto the stable
    category of graded maximal Cohen-Macaulay modules over A = R/(W)
    (Buchweitz; Orlov, §3), in which Σ is the cosyzygy.  A is Gorenstein of
    dimension n - 1, n = nvars, with canonical module A(-g), g = Σ w_i - D
    its Gorenstein parameter, and has an isolated singularity, so graded
    Auslander-Reiten duality (Yoshino 1990) gives the Serre functor
    S = τΣ with τ = Σ^(n - 3)(-g): S = Σ^(n - 2)(-g) = Σ^n(-Σ w_i), by
    Σ² = (D).  Hence Hom(X, Y(k)) is dual to Hom(Y(k), SX) =
    Hom(Y, Σ^n X(-Σ w_i - k)).

    The bookkeeping.  Y[p](d) = Σ^p Y(d - p a_Y), so Hom(X, Y[p])_d is dual
    to Hom(Y, Σ^(n - p) X(-Σ w_i - d + p a_Y)).  Take q = n + p mod 2; then
    n - p - q is even and Σ^(n - p) X = Σ^q X((n - p - q) D / 2) =
    X[q](q a_X + (n - p - q) D / 2).  So the dual space is
    Hom(Y, X[q])_{c - d} with

        c = q a_X + p a_Y + (n - p - q) D / 2 - Σ w_i.
    """
    q = (nvars + p) % 2
    return q, q * a_source + p * a_target + (nvars - p - q) // 2 * degree - sum(weights)
