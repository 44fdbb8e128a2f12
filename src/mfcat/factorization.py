"""Matrix factorizations of a polynomial potential.

A factorization of W consists of two free modules P0, P1 and maps
p0: P0 -> P1, p1: P1 -> P0 with both composites equal to W times the
identity, checked exactly on construction.  Modules carry generator
degrees (for the quasi-homogeneous theory) and optionally generator
characters (for group-equivariant structures).

Degree bookkeeping: when a weight system is attached, every entry of p0
is homogeneous of degree s + deg(source gen) - deg(target gen) for a
single integer s, the splitting degree of the factorization, and p1
entries are homogeneous with s replaced by D - s where D is the degree
of W.  The splitting degree is never stored; it is recovered from the
first nonzero entry of p0, which keeps serialization to plain degree
lists lossless.  Shifting swaps the modules and recovers D - s
automatically.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

from .errors import GradingError, MfcatError, UsageError
from .matrices import PolyMatrix, block, products_equal, sum_of_products
from .poly import Polynomial, WeightSystem, kept


@dataclass(frozen=True)
class GradedFreeModule:
    """A free module with a degree per generator and optional characters."""

    rank: int
    degrees: tuple
    chars: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if len(self.degrees) != self.rank:
            raise UsageError("need one degree per generator")
        if self.chars is not None:
            chars = tuple(tuple(c) for c in self.chars)
            if len(chars) != self.rank:
                raise UsageError("need one character per generator")
            object.__setattr__(self, "chars", chars)

    def __hash__(self):
        return self._hash

    @kept
    def _hash(self):
        return hash((self.rank, self.degrees, self.chars))

    def __reduce__(self):
        # as for PolyMatrix: a pickle must not carry the kept hash
        return GradedFreeModule, (self.rank, self.degrees, self.chars)

    def twist(self, c):
        return GradedFreeModule(self.rank, tuple(d + c for d in self.degrees), self.chars)


def _entry_degree_table(mat, weights, expected):
    """Check each entry of mat is homogeneous of the expected degree.

    expected(i, j) gives the required degree.  Returns a list of
    violation strings, empty when the matrix is homogeneous.
    """
    bad = []
    for i in range(mat.nrows):
        for j in range(mat.ncols):
            f = mat.entries[i][j]
            if f.is_zero():
                continue
            d = f.homogeneous_weighted_degree(weights)
            want = expected(i, j)
            if d is None:
                bad.append("entry (%d,%d) is not homogeneous" % (i, j))
            elif d != want:
                bad.append(
                    "entry (%d,%d) has degree %d, expected %d" % (i, j, d, want)
                )
    return bad


@dataclass(frozen=True)
class MatrixFactorization:
    W: Polynomial
    weights: WeightSystem
    m0: GradedFreeModule
    m1: GradedFreeModule
    p0: PolyMatrix
    p1: PolyMatrix
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if self.p0.nrows != self.m1.rank or self.p0.ncols != self.m0.rank:
            raise UsageError("p0 must be a (rank P1) x (rank P0) matrix")
        if self.p1.nrows != self.m0.rank or self.p1.ncols != self.m1.rank:
            raise UsageError("p1 must be a (rank P0) x (rank P1) matrix")
        for mat in (self.p0, self.p1):
            if mat.nvars != self.W.nvars or mat.field is not self.W.field:
                raise UsageError("matrix entries live in a different ring than W")
        if self.weights is not None and len(self.weights.weights) != self.W.nvars:
            raise UsageError("weight count must match variable count")
        if validate:
            report = self.verify()
            if not report["ok"]:
                raise MfcatError(
                    "invalid matrix factorization: " + "; ".join(report["problems"])
                )

    def __hash__(self):
        return self._hash

    @kept
    def _hash(self):
        return hash((self.W, self.weights, self.m0, self.m1, self.p0, self.p1))

    def __reduce__(self):
        # as for PolyMatrix: a pickle carries neither the kept hash nor
        # the kept split degree and shift; the copy is not validated again
        return MatrixFactorization, (
            self.W, self.weights, self.m0, self.m1, self.p0, self.p1, False)

    @property
    def nvars(self):
        return self.W.nvars

    @property
    def field(self):
        return self.W.field

    @property
    def rank(self):
        return self.m0.rank

    @kept
    def split_degree(self):
        """Internal degree of p0, recovered from its first nonzero entry.

        None when no weights are attached or p0 is the zero matrix.
        """
        if self.weights is None:
            return None
        for i in range(self.p0.nrows):
            for j in range(self.p0.ncols):
                f = self.p0.entries[i][j]
                if not f.is_zero():
                    d = f.homogeneous_weighted_degree(self.weights)
                    if d is None:
                        return None
                    return d - self.m0.degrees[j] + self.m1.degrees[i]
        return None

    def verify(self):
        """Full validity report; never raises."""
        problems = []
        square = self.m0.rank == self.m1.rank
        if not square:
            problems.append(
                "module ranks differ (%d vs %d)" % (self.m0.rank, self.m1.rank)
            )
        wid0 = PolyMatrix.scalar(self.W, self.m0.rank)
        wid1 = PolyMatrix.scalar(self.W, self.m1.rank)
        products = (products_equal([(self.p1, self.p0)], wid0)
                    and products_equal([(self.p0, self.p1)], wid1))
        if not products:
            problems.append("composites of p0 and p1 are not W times the identity")
        graded = None
        split = None
        if self.weights is not None:
            graded = True
            wd = self.W.homogeneous_weighted_degree(self.weights)
            if wd is None or (not self.W.is_zero() and wd != self.weights.degree):
                graded = False
                problems.append(
                    "potential is not quasi-homogeneous of the declared degree"
                )
            split = self.split_degree
            if split is None and not self.p0.is_zero():
                graded = False
                problems.append("cannot determine a splitting degree from p0")
            if split is not None:
                g0, g1 = self.m0.degrees, self.m1.degrees
                dd = self.weights.degree
                bad = _entry_degree_table(
                    self.p0, self.weights, lambda i, j: split + g0[j] - g1[i]
                )
                bad += _entry_degree_table(
                    self.p1, self.weights, lambda i, j: (dd - split) + g1[j] - g0[i]
                )
                if bad:
                    graded = False
                    problems.extend(bad[:8])
        ok = square and products and graded is not False
        return {
            "square": square,
            "products": products,
            "graded": graded,
            "split_degree": split,
            "ok": ok,
            "problems": problems,
        }

    def shift(self, n=1):
        """Homological shift.  Two shifts give back the object on the nose."""
        out = self
        for _ in range(abs(int(n))):
            out = out._shifted
        return out

    @kept
    def _shifted(self):
        """The shift, built once per object like split_degree: hom spaces
        into a shift read it on every call."""
        return MatrixFactorization(
            W=self.W,
            weights=self.weights,
            m0=self.m1,
            m1=self.m0,
            p0=-self.p1,
            p1=-self.p0,
            validate=False,
        )

    def degree_twist(self, c):
        """Shift all generator degrees by a constant; maps are untouched."""
        return MatrixFactorization(
            W=self.W,
            weights=self.weights,
            m0=self.m0.twist(c),
            m1=self.m1.twist(c),
            p0=self.p0,
            p1=self.p1,
            validate=False,
        )

    def strip_chars(self):
        if self.m0.chars is None and self.m1.chars is None:
            return self
        return MatrixFactorization(
            W=self.W,
            weights=self.weights,
            m0=GradedFreeModule(self.m0.rank, self.m0.degrees, None),
            m1=GradedFreeModule(self.m1.rank, self.m1.degrees, None),
            p0=self.p0,
            p1=self.p1,
            validate=False,
        )

    def with_chars(self, chars0, chars1):
        return MatrixFactorization(
            W=self.W,
            weights=self.weights,
            m0=GradedFreeModule(self.m0.rank, self.m0.degrees, tuple(chars0)),
            m1=GradedFreeModule(self.m1.rank, self.m1.degrees, tuple(chars1)),
            p0=self.p0,
            p1=self.p1,
            validate=False,
        )

    def to_json(self):
        data = {
            "W": self.W.to_json(),
            "P0_deg": list(self.m0.degrees),
            "P1_deg": list(self.m1.degrees),
            "p0": self.p0.to_json(),
            "p1": self.p1.to_json(),
        }
        if self.weights is not None:
            data["weights"] = list(self.weights.weights)
            data["degree"] = self.weights.degree
        if self.m0.chars is not None:
            data["chars0"] = [list(c) for c in self.m0.chars]
        if self.m1.chars is not None:
            data["chars1"] = [list(c) for c in self.m1.chars]
        return data

    @classmethod
    def from_json(cls, data, nvars, field, validate=True):
        W = Polynomial.from_json(data["W"], nvars, field)
        weights = None
        if "weights" in data:
            weights = WeightSystem(tuple(data["weights"]), int(data["degree"]))
        deg0 = tuple(data["P0_deg"])
        deg1 = tuple(data["P1_deg"])
        chars0 = None
        chars1 = None
        if "chars0" in data:
            chars0 = tuple(tuple(c) for c in data["chars0"])
        if "chars1" in data:
            chars1 = tuple(tuple(c) for c in data["chars1"])
        p0 = PolyMatrix.from_json(
            data["p0"], nvars, field, nrows=len(deg1), ncols=len(deg0)
        )
        p1 = PolyMatrix.from_json(
            data["p1"], nvars, field, nrows=len(deg0), ncols=len(deg1)
        )
        return cls(
            W=W,
            weights=weights,
            m0=GradedFreeModule(len(deg0), deg0, chars0),
            m1=GradedFreeModule(len(deg1), deg1, chars1),
            p0=p0,
            p1=p1,
            validate=validate,
        )


class MfMorphism:
    """An even map of factorizations: f0 on P0 components, f1 on P1.

    degree is the internal (weight) degree; morphisms produced by solvers
    are homogeneous pieces of hom spaces.  A ``__slots__`` class, immutable
    by convention; equality, the hash and the repr are those of the field
    tuple (source, target, f0, f1, degree).  validate=True checks the
    shapes, that both squares commute and the entry degrees; with False
    only the shapes and the potentials are checked.
    """

    __slots__ = ("source", "target", "f0", "f1", "degree")

    def __init__(self, source, target, f0, f1, degree=0, validate=True):
        self.source = s = source
        self.target = t = target
        self.f0 = f0
        self.f1 = f1
        self.degree = degree
        if f0.nrows != t.m0.rank or f0.ncols != s.m0.rank:
            raise UsageError("f0 must be a (rank Q0) x (rank P0) matrix")
        if f1.nrows != t.m1.rank or f1.ncols != s.m1.rank:
            raise UsageError("f1 must be a (rank Q1) x (rank P1) matrix")
        if s.W != t.W:
            raise UsageError("morphism endpoints factor different potentials")
        if validate and not self.is_chain_map():
            raise MfcatError("not a chain map: the two squares do not commute")
        if validate:
            bad = self.grading_violations()
            if bad:
                raise GradingError("; ".join(bad[:8]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.f0, self.f1, self.degree) == (
            other.source, other.target, other.f0, other.f1, other.degree)

    def __hash__(self):
        return hash((self.source, self.target, self.f0, self.f1, self.degree))

    def __repr__(self):
        return "MfMorphism(source=%r, target=%r, f0=%r, f1=%r, degree=%r)" % (
            self.source, self.target, self.f0, self.f1, self.degree)

    def __reduce__(self):
        # the copy is not validated again, as for MatrixFactorization
        return MfMorphism, (
            self.source, self.target, self.f0, self.f1, self.degree, False)

    def is_chain_map(self):
        """Whether f1 p0 = p0 f0 and f0 p1 = p1 f1, each square summed in
        the product kernel against zero: the kept shift of the target has
        p1 = -p0 and p0 = -p1, so no product is built."""
        s, t = self.source, self.target
        ts, f0, f1 = t.shift(), self.f0, self.f1
        return (products_equal([(f1, s.p0), (ts.p1, f0)],
                               PolyMatrix.zero(t.m1.rank, s.m0.rank, s.nvars, s.field))
                and products_equal([(f0, s.p1), (ts.p0, f1)],
                                   PolyMatrix.zero(t.m0.rank, s.m1.rank, s.nvars, s.field)))

    def grading_violations(self):
        s, t = self.source, self.target
        if s.weights is None or t.weights is None:
            return []
        d = self.degree
        g0, g1 = s.m0.degrees, s.m1.degrees
        h0, h1 = t.m0.degrees, t.m1.degrees
        bad = _entry_degree_table(
            self.f0, s.weights, lambda i, j: d + g0[j] - h0[i]
        )
        a_s, a_t = s.split_degree, t.split_degree
        if a_s is not None and a_t is not None:
            off = a_t - a_s
            bad += _entry_degree_table(
                self.f1, s.weights, lambda i, j: d + off + g1[j] - h1[i]
            )
        return bad

    def __matmul__(self, other):
        if other.target != self.source:
            raise UsageError("composition endpoints do not match")
        return MfMorphism(
            source=other.source,
            target=self.target,
            f0=self.f0 @ other.f0,
            f1=self.f1 @ other.f1,
            degree=self.degree + other.degree,
            validate=False,
        )

    def __add__(self, other):
        self._combinable(other)
        return MfMorphism(
            self.source, self.target, self.f0 + other.f0, self.f1 + other.f1,
            self.degree, validate=False,
        )

    def __sub__(self, other):
        self._combinable(other)
        return MfMorphism(
            self.source, self.target, self.f0 - other.f0, self.f1 - other.f1,
            self.degree, validate=False,
        )

    def __neg__(self):
        return MfMorphism(
            self.source, self.target, -self.f0, -self.f1, self.degree,
            validate=False,
        )

    def scale(self, c):
        return MfMorphism(
            self.source, self.target, self.f0.scale(c), self.f1.scale(c),
            self.degree, validate=False,
        )

    def _combinable(self, other):
        if self.source != other.source or self.target != other.target:
            raise UsageError("morphisms join different objects")
        if self.degree != other.degree:
            raise UsageError("morphisms have different internal degrees")

    def is_zero(self):
        return self.f0.is_zero() and self.f1.is_zero()

    def shift(self):
        s, t = self.source, self.target
        a_s, a_t = s.split_degree, t.split_degree
        off = (a_t - a_s) if (a_s is not None and a_t is not None) else 0
        return MfMorphism(
            source=s.shift(),
            target=t.shift(),
            f0=self.f1,
            f1=self.f0,
            degree=self.degree + off,
            validate=False,
        )

    @classmethod
    def identity(cls, mf):
        return cls(
            source=mf,
            target=mf,
            f0=PolyMatrix.identity(mf.m0.rank, mf.nvars, mf.field),
            f1=PolyMatrix.identity(mf.m1.rank, mf.nvars, mf.field),
            degree=0,
            validate=False,
        )

    @classmethod
    def zero(cls, source, target, degree=0):
        return cls(
            source=source,
            target=target,
            f0=PolyMatrix.zero(target.m0.rank, source.m0.rank, source.nvars, source.field),
            f1=PolyMatrix.zero(target.m1.rank, source.m1.rank, source.nvars, source.field),
            degree=degree,
            validate=False,
        )

    def to_json(self):
        return {"f0": self.f0.to_json(), "f1": self.f1.to_json(), "degree": self.degree}


class Homotopy:
    """An odd map: t0 lands in the shifted P1 slot, t1 in the P0 slot.

    A ``__slots__`` class like MfMorphism, with equality, the hash and the
    repr of the field tuple (source, target, t0, t1, degree); the shapes
    are checked on construction.
    """

    __slots__ = ("source", "target", "t0", "t1", "degree")

    def __init__(self, source, target, t0, t1, degree=0):
        self.source = source
        self.target = target
        self.t0 = t0  # P0 -> Q1
        self.t1 = t1  # P1 -> Q0
        self.degree = degree
        if t0.nrows != target.m1.rank or t0.ncols != source.m0.rank:
            raise UsageError("t0 must be a (rank Q1) x (rank P0) matrix")
        if t1.nrows != target.m0.rank or t1.ncols != source.m1.rank:
            raise UsageError("t1 must be a (rank Q0) x (rank P1) matrix")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.t0, self.t1, self.degree) == (
            other.source, other.target, other.t0, other.t1, other.degree)

    def __hash__(self):
        return hash((self.source, self.target, self.t0, self.t1, self.degree))

    def __repr__(self):
        return "Homotopy(source=%r, target=%r, t0=%r, t1=%r, degree=%r)" % (
            self.source, self.target, self.t0, self.t1, self.degree)

    def __reduce__(self):
        return Homotopy, (self.source, self.target, self.t0, self.t1, self.degree)

    def _boundary_products(self):
        """The (a, b) pairs whose products sum to the boundary's f0 and f1."""
        s, t = self.source, self.target
        return ([(self.t1, s.p0), (t.p1, self.t0)],
                [(t.p0, self.t1), (self.t0, s.p1)])

    def boundary(self):
        """The chain map this homotopy bounds."""
        f0, f1 = self._boundary_products()
        return MfMorphism(
            source=self.source,
            target=self.target,
            f0=sum_of_products(f0),
            f1=sum_of_products(f1),
            degree=self.degree,
            validate=False,
        )

    def bounds(self, phi):
        """Whether self.boundary() == phi; the products are compared in the
        product kernel (``products_equal``), and the boundary is not
        built."""
        f0, f1 = self._boundary_products()
        return (phi.source == self.source and phi.target == self.target
                and phi.degree == self.degree
                and products_equal(f0, phi.f0) and products_equal(f1, phi.f1))


def zero_factorization(W, weights=None):
    empty = GradedFreeModule(0, ())
    zmat = PolyMatrix.zero(0, 0, W.nvars, W.field)
    return MatrixFactorization(
        W=W, weights=weights, m0=empty, m1=empty, p0=zmat, p1=zmat, validate=False
    )


def elementary_factorization(f, g, weights=None, deg0=0, deg1=0, chars0=None, chars1=None):
    """The rank one factorization f * g of their product."""
    W = f * g
    m0 = GradedFreeModule(1, (deg0,), None if chars0 is None else (tuple(chars0),))
    m1 = GradedFreeModule(1, (deg1,), None if chars1 is None else (tuple(chars1),))
    p0 = PolyMatrix(1, 1, W.nvars, W.field, ((f,),))
    p1 = PolyMatrix(1, 1, W.nvars, W.field, ((g,),))
    return MatrixFactorization(W=W, weights=weights, m0=m0, m1=m1, p0=p0, p1=p1)


def _subset_sign(i, subset):
    s = 1
    for j in subset:
        if j < i:
            s = -s
    return s


def koszul_factorization(pairs, weights=None):
    """Tensor factorization of sum(u_i * v_i) built on subset generators.

    pairs: list of (u_i, v_i).  The generator for a subset S has degree
    D * floor(|S|/2) - sum of deg(u_i) over i in S when weights are given.
    """
    if not pairs:
        raise UsageError("need at least one factor pair")
    nvars = pairs[0][0].nvars
    field = pairs[0][0].field
    W = Polynomial.zero(nvars, field)
    for u, v in pairs:
        W = W + u * v
    s = len(pairs)
    subsets = [[] for _ in range(s + 1)]
    for mask in range(1 << s):
        sub = tuple(i for i in range(s) if mask & (1 << i))
        subsets[len(sub)].append(sub)
    for bucket in subsets:
        bucket.sort()
    even = [sub for size in range(0, s + 1, 2) for sub in subsets[size]]
    odd = [sub for size in range(1, s + 1, 2) for sub in subsets[size]]
    index_even = {sub: k for k, sub in enumerate(even)}
    index_odd = {sub: k for k, sub in enumerate(odd)}

    def differential(basis, index_target):
        z = Polynomial.zero(nvars, field)
        cols = []
        for sub in basis:
            col = [z] * len(index_target)
            inside = set(sub)
            for i in range(s):
                if i in inside:
                    tgt = tuple(j for j in sub if j != i)
                    coeff = pairs[i][1]
                    sign = _subset_sign(i, tgt)
                else:
                    tgt = tuple(sorted(sub + (i,)))
                    coeff = pairs[i][0]
                    sign = _subset_sign(i, sub)
                k = index_target[tgt]
                col[k] = col[k] + (coeff if sign > 0 else -coeff)
            cols.append(col)
        rows = tuple(
            tuple(cols[j][i] for j in range(len(basis)))
            for i in range(len(index_target))
        )
        return PolyMatrix(len(index_target), len(basis), nvars, field, rows)

    p0 = differential(even, index_odd)
    p1 = differential(odd, index_even)

    def gen_degree(sub):
        if weights is None:
            return 0
        du = sum(
            pairs[i][0].homogeneous_weighted_degree(weights) for i in sub
        )
        return weights.degree * (len(sub) // 2) - du

    if weights is not None:
        for u, v in pairs:
            a = u.homogeneous_weighted_degree(weights)
            b = v.homogeneous_weighted_degree(weights)
            if a is None or b is None or a + b != weights.degree:
                raise GradingError(
                    "factor pairs must be homogeneous with degrees summing to "
                    "the potential degree"
                )
    m0 = GradedFreeModule(len(even), tuple(gen_degree(sub) for sub in even))
    m1 = GradedFreeModule(len(odd), tuple(gen_degree(sub) for sub in odd))
    return MatrixFactorization(W=W, weights=weights, m0=m0, m1=m1, p0=p0, p1=p1)


def direct_sum(a, b):
    if a.W != b.W:
        raise UsageError("summands factor different potentials")
    if a.weights != b.weights:
        raise UsageError("summands carry different weight systems")
    sa, sb = a.split_degree, b.split_degree
    if sa is not None and sb is not None and sa != sb:
        raise GradingError(
            "summands have splitting degrees %d and %d; twist one first"
            % (sa, sb)
        )

    def join_chars(ca, cb):
        if ca is None and cb is None:
            return None
        if ca is None or cb is None:
            raise UsageError("cannot sum a factorization with characters and one without")
        return ca + cb

    r0, r1 = (a.m0.rank, b.m0.rank), (a.m1.rank, b.m1.rank)
    p0 = block([[a.p0, 0], [0, b.p0]], r1, r0, a.nvars, a.field)
    p1 = block([[a.p1, 0], [0, b.p1]], r0, r1, a.nvars, a.field)
    m0 = GradedFreeModule(
        a.m0.rank + b.m0.rank,
        a.m0.degrees + b.m0.degrees,
        join_chars(a.m0.chars, b.m0.chars),
    )
    m1 = GradedFreeModule(
        a.m1.rank + b.m1.rank,
        a.m1.degrees + b.m1.degrees,
        join_chars(a.m1.chars, b.m1.chars),
    )
    return MatrixFactorization(
        W=a.W, weights=a.weights, m0=m0, m1=m1, p0=p0, p1=p1, validate=False
    )


def _join_chars(ca, cb):
    """The characters of a module stacked from two: None unless both have
    them."""
    if ca is None or cb is None:
        return None
    return ca + cb


def _generator_components(p0, p1, label, m=None):
    """Solve the difference constraints that the nonzero entries of p0 and
    p1 put on the generators ("g0", j) of P0 and ("g1", i) of P1, by
    weighted union-find over the integers, or mod m when m is given.  An
    entry f of p_k in row i and column j, read in p0 and then p1 row by
    row, says value(v) - value(u) = label(f, k), u the generator of
    column j and v that of row i.

    Returns {root: [(node, offset from root)]}, P0's nodes first, or None
    when label gives None or the constraints conflict.
    """
    nodes = [("g0", j) for j in range(p0.ncols)]
    nodes += [("g1", i) for i in range(p0.nrows)]
    parent = {v: v for v in nodes}
    offset = dict.fromkeys(nodes, 0)

    def reduce(x):
        return x if m is None else x % m

    def find(v):
        if parent[v] == v:
            return v, 0
        root, above = find(parent[v])
        parent[v] = root
        offset[v] = reduce(offset[v] + above)
        return root, offset[v]

    for k, (mat, src, tgt) in enumerate(((p0, "g0", "g1"), (p1, "g1", "g0"))):
        for i, row in enumerate(mat.entries):
            for j, f in enumerate(row):
                if not f.terms:
                    continue
                d = label(f, k)
                if d is None:
                    return None
                (ru, ou), (rv, ov) = find((src, j)), find((tgt, i))
                if ru != rv:
                    parent[rv] = ru
                    offset[rv] = reduce(ou + d - ov)
                elif reduce(ov - ou - d):
                    return None
    comp = {}
    for v in nodes:
        root, off = find(v)
        comp.setdefault(root, []).append((v, off))
    return comp


class Cone:
    """Mapping cone of a morphism phi: P -> Q, with its triangle structure
    maps.

    factorization is built with the cone (``cone_factorization``).
    inclusion embeds the target, projection drops onto the shifted
    source, and splitting_homotopy trivializes inclusion composed with
    phi; each is built on its first read and kept, since most callers read
    the factorization alone or with the inclusion.  Two cones are equal
    when their maps phi are.
    """

    def __init__(self, phi, factorization):
        self.phi = phi
        self.factorization = factorization

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.phi == other.phi

    def __hash__(self):
        return hash(self.phi)

    @kept
    def inclusion(self):
        s, t = self.phi.source, self.phi.target
        c0, c1 = _cone_sizes(self.phi)
        return MfMorphism(
            source=t,
            target=self.factorization,
            f0=block([[1], [0]], c0, (t.m0.rank,), s.nvars, s.field),
            f1=block([[1], [0]], c1, (t.m1.rank,), s.nvars, s.field),
            degree=0,
            validate=False,
        )

    @kept
    def projection(self):
        s = self.phi.source
        c0, c1 = _cone_sizes(self.phi)
        a_s = s.split_degree
        return MfMorphism(
            source=self.factorization,
            target=s.shift(),
            f0=block([[0, 1]], (s.m1.rank,), c0, s.nvars, s.field),
            f1=block([[0, 1]], (s.m0.rank,), c1, s.nvars, s.field),
            degree=(a_s - self.phi.degree) if a_s is not None else 0,
            validate=False,
        )

    @kept
    def splitting_homotopy(self):
        s = self.phi.source
        c0, c1 = _cone_sizes(self.phi)
        return Homotopy(
            source=s,
            target=self.factorization,
            t0=block([[0], [1]], c1, (s.m0.rank,), s.nvars, s.field),
            t1=block([[0], [1]], c0, (s.m1.rank,), s.nvars, s.field),
            degree=self.phi.degree,
        )


def _cone_sizes(phi):
    """The ranks of the summands of the cone's P0 = Q0 + P1 and of its
    P1 = Q1 + P0, for phi: P -> Q."""
    s, t = phi.source, phi.target
    return (t.m0.rank, s.m1.rank), (t.m1.rank, s.m0.rank)


def cone_factorization(phi):
    """The factorization of the mapping cone of phi: P -> Q, with none of
    the triangle data ``cone`` attaches.  Its corner blocks -p1 and -p0
    are those of the source's kept shift."""
    s, t = phi.source, phi.target
    d = phi.degree
    a_s, a_t = s.split_degree, t.split_degree
    dd = s.weights.degree if s.weights is not None else 0
    off1 = (d - a_s) if a_s is not None else 0
    off0 = (d + a_t - dd) if a_t is not None else 0

    c_m0 = GradedFreeModule(
        t.m0.rank + s.m1.rank,
        t.m0.degrees + tuple(g + off1 for g in s.m1.degrees),
        _join_chars(t.m0.chars, s.m1.chars),
    )
    c_m1 = GradedFreeModule(
        t.m1.rank + s.m0.rank,
        t.m1.degrees + tuple(g + off0 for g in s.m0.degrees),
        _join_chars(t.m1.chars, s.m0.chars),
    )
    shifted = s.shift()
    r0, r1 = _cone_sizes(phi)
    c0 = block([[t.p0, phi.f1], [0, shifted.p0]], r1, r0, s.nvars, s.field)
    c1 = block([[t.p1, phi.f0], [0, shifted.p1]], r0, r1, s.nvars, s.field)
    return MatrixFactorization(
        W=s.W, weights=s.weights, m0=c_m0, m1=c_m1, p0=c0, p1=c1, validate=False
    )


def cone(phi):
    """Mapping cone of phi: P -> Q, its triangle data built on first read."""
    return Cone(phi, cone_factorization(phi))


def trivial_brick(q):
    """The contractible double of a factorization.

    Its even part presents the cokernel of q's p1 map as a free module
    modulo W, which is what makes it the unit of the stabilization
    construction.
    """
    a = q.split_degree
    dd = q.weights.degree if q.weights is not None else 0
    sh0 = (dd - 2 * a) if a is not None else 0
    shm = (-a) if a is not None else 0

    b_m0 = GradedFreeModule(
        q.m1.rank + q.m0.rank,
        tuple(g + sh0 for g in q.m1.degrees) + tuple(g + shm for g in q.m0.degrees),
        _join_chars(q.m1.chars, q.m0.chars),
    )
    b_m1 = GradedFreeModule(
        q.m0.rank + q.m1.rank,
        q.m0.degrees + tuple(g + shm for g in q.m1.degrees),
        _join_chars(q.m0.chars, q.m1.chars),
    )
    r0, r1 = (q.m1.rank, q.m0.rank), (q.m0.rank, q.m1.rank)
    b0 = block([[-q.p1, 1], [0, q.p0]], r1, r0, q.nvars, q.field)
    b1 = block([[-q.p0, 1], [0, q.p1]], r0, r1, q.nvars, q.field)
    return MatrixFactorization(
        W=q.W, weights=q.weights, m0=b_m0, m1=b_m1, p0=b0, p1=b1, validate=False
    )


def w_multiple_homotopy(phi):
    """Explicit trivialization of W times a morphism.

    For any chain map phi the product W * phi bounds, with witness
    (phi.f1 composed with p0, zero).
    """
    s, t = phi.source, phi.target
    dd = s.weights.degree if s.weights is not None else 0
    return Homotopy(
        source=s,
        target=t,
        t0=phi.f1 @ s.p0,
        t1=PolyMatrix.zero(t.m0.rank, s.m1.rank, s.nvars, s.field),
        degree=phi.degree + dd,
    )
