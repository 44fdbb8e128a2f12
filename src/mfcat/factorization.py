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
from functools import cached_property

from .errors import GradingError, MfcatError, UsageError
from .matrices import PolyMatrix, hstack, vstack
from .poly import Polynomial, WeightSystem


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

    @property
    def nvars(self):
        return self.W.nvars

    @property
    def field(self):
        return self.W.field

    @property
    def rank(self):
        return self.m0.rank

    @property
    def has_chars(self):
        return self.m0.chars is not None and self.m1.chars is not None

    @cached_property
    def split_degree(self):
        """Internal degree of p0, recovered from its first nonzero entry.

        None when no weights are attached or p0 is the zero matrix.  Read
        once per object: the fields are frozen, and the value is kept in
        the instance dict, outside the dataclass fields, equality and hash.
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
        products = (self.p1 @ self.p0 - wid0).is_zero() and (
            self.p0 @ self.p1 - wid1
        ).is_zero()
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
            out = MatrixFactorization(
                W=out.W,
                weights=out.weights,
                m0=out.m1,
                m1=out.m0,
                p0=-out.p1,
                p1=-out.p0,
                validate=False,
            )
        return out

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
        if not self.has_chars and self.m0.chars is None and self.m1.chars is None:
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


@dataclass(frozen=True)
class MfMorphism:
    """An even map of factorizations: f0 on P0 components, f1 on P1.

    degree is the internal (weight) degree; morphisms produced by solvers
    are homogeneous pieces of hom spaces.
    """

    source: MatrixFactorization
    target: MatrixFactorization
    f0: PolyMatrix
    f1: PolyMatrix
    degree: int = 0
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        s, t = self.source, self.target
        if self.f0.nrows != t.m0.rank or self.f0.ncols != s.m0.rank:
            raise UsageError("f0 must be a (rank Q0) x (rank P0) matrix")
        if self.f1.nrows != t.m1.rank or self.f1.ncols != s.m1.rank:
            raise UsageError("f1 must be a (rank Q1) x (rank P1) matrix")
        if s.W != t.W:
            raise UsageError("morphism endpoints factor different potentials")
        if validate and not self.is_chain_map():
            raise MfcatError("not a chain map: the two squares do not commute")
        if validate:
            bad = self.grading_violations()
            if bad:
                raise GradingError("; ".join(bad[:8]))

    def is_chain_map(self):
        s, t = self.source, self.target
        return (self.f1 @ s.p0 - t.p0 @ self.f0).is_zero() and (
            self.f0 @ s.p1 - t.p1 @ self.f1
        ).is_zero()

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


@dataclass(frozen=True)
class Homotopy:
    """An odd map: t0 lands in the shifted P1 slot, t1 in the P0 slot."""

    source: MatrixFactorization
    target: MatrixFactorization
    t0: PolyMatrix  # P0 -> Q1
    t1: PolyMatrix  # P1 -> Q0
    degree: int = 0

    def __post_init__(self):
        s, t = self.source, self.target
        if self.t0.nrows != t.m1.rank or self.t0.ncols != s.m0.rank:
            raise UsageError("t0 must be a (rank Q1) x (rank P0) matrix")
        if self.t1.nrows != t.m0.rank or self.t1.ncols != s.m1.rank:
            raise UsageError("t1 must be a (rank Q0) x (rank P1) matrix")

    def boundary(self):
        """The chain map this homotopy bounds."""
        s, t = self.source, self.target
        return MfMorphism(
            source=s,
            target=t,
            f0=self.t1 @ s.p0 + t.p1 @ self.t0,
            f1=t.p0 @ self.t1 + self.t0 @ s.p1,
            degree=self.degree,
            validate=False,
        )

    def shift(self):
        return Homotopy(
            source=self.source.shift(),
            target=self.target.shift(),
            t0=-self.t1,
            t1=-self.t0,
            degree=self.boundary().shift().degree,
        )

    def grading_violations(self):
        s, t = self.source, self.target
        if s.weights is None or t.weights is None:
            return []
        a_s, a_t = s.split_degree, t.split_degree
        if a_s is None or a_t is None:
            return []
        d = self.degree
        dd = s.weights.degree
        g0, g1 = s.m0.degrees, s.m1.degrees
        h0, h1 = t.m0.degrees, t.m1.degrees
        bad = _entry_degree_table(
            self.t0, s.weights, lambda i, j: (d + a_t - dd) + g0[j] - h1[i]
        )
        bad += _entry_degree_table(
            self.t1, s.weights, lambda i, j: (d - a_s) + g1[j] - h0[i]
        )
        return bad


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

    nvars, field = a.nvars, a.field
    z01 = PolyMatrix.zero(a.m1.rank, b.m0.rank, nvars, field)
    z10 = PolyMatrix.zero(b.m1.rank, a.m0.rank, nvars, field)
    p0 = vstack([hstack([a.p0, z01]), hstack([z10, b.p0])])
    y01 = PolyMatrix.zero(a.m0.rank, b.m1.rank, nvars, field)
    y10 = PolyMatrix.zero(b.m0.rank, a.m1.rank, nvars, field)
    p1 = vstack([hstack([a.p1, y01]), hstack([y10, b.p1])])
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


@dataclass(frozen=True)
class Cone:
    """Mapping cone of a morphism, with its triangle structure maps.

    inclusion embeds the target, projection drops onto the shifted
    source, and splitting_homotopy trivializes inclusion composed with
    the original morphism.
    """

    factorization: MatrixFactorization
    inclusion: MfMorphism
    projection: MfMorphism
    splitting_homotopy: Homotopy


def cone(phi):
    """Mapping cone of phi: P -> Q with the triangle data attached."""
    s, t = phi.source, phi.target
    nvars, field = s.nvars, s.field
    d = phi.degree
    a_s, a_t = s.split_degree, t.split_degree
    dd = s.weights.degree if s.weights is not None else 0
    off1 = (d - a_s) if a_s is not None else 0
    off0 = (d + a_t - dd) if a_t is not None else 0

    def join_chars(ct, cs):
        if ct is None and cs is None:
            return None
        if ct is None or cs is None:
            return None
        return ct + cs

    c_m0 = GradedFreeModule(
        t.m0.rank + s.m1.rank,
        t.m0.degrees + tuple(g + off1 for g in s.m1.degrees),
        join_chars(t.m0.chars, s.m1.chars),
    )
    c_m1 = GradedFreeModule(
        t.m1.rank + s.m0.rank,
        t.m1.degrees + tuple(g + off0 for g in s.m0.degrees),
        join_chars(t.m1.chars, s.m0.chars),
    )
    z_low0 = PolyMatrix.zero(s.m0.rank, t.m0.rank, nvars, field)
    c0 = vstack([hstack([t.p0, phi.f1]), hstack([z_low0, -s.p1])])
    z_low1 = PolyMatrix.zero(s.m1.rank, t.m1.rank, nvars, field)
    c1 = vstack([hstack([t.p1, phi.f0]), hstack([z_low1, -s.p0])])
    c = MatrixFactorization(
        W=s.W, weights=s.weights, m0=c_m0, m1=c_m1, p0=c0, p1=c1, validate=False
    )
    inc = MfMorphism(
        source=t,
        target=c,
        f0=vstack([
            PolyMatrix.identity(t.m0.rank, nvars, field),
            PolyMatrix.zero(s.m1.rank, t.m0.rank, nvars, field),
        ]),
        f1=vstack([
            PolyMatrix.identity(t.m1.rank, nvars, field),
            PolyMatrix.zero(s.m0.rank, t.m1.rank, nvars, field),
        ]),
        degree=0,
        validate=False,
    )
    shifted = s.shift()
    proj = MfMorphism(
        source=c,
        target=shifted,
        f0=hstack([
            PolyMatrix.zero(s.m1.rank, t.m0.rank, nvars, field),
            PolyMatrix.identity(s.m1.rank, nvars, field),
        ]),
        f1=hstack([
            PolyMatrix.zero(s.m0.rank, t.m1.rank, nvars, field),
            PolyMatrix.identity(s.m0.rank, nvars, field),
        ]),
        degree=(a_s - d) if a_s is not None else 0,
        validate=False,
    )
    homot = Homotopy(
        source=s,
        target=c,
        t0=vstack([
            PolyMatrix.zero(t.m1.rank, s.m0.rank, nvars, field),
            PolyMatrix.identity(s.m0.rank, nvars, field),
        ]),
        t1=vstack([
            PolyMatrix.zero(t.m0.rank, s.m1.rank, nvars, field),
            PolyMatrix.identity(s.m1.rank, nvars, field),
        ]),
        degree=d,
    )
    return Cone(factorization=c, inclusion=inc, projection=proj, splitting_homotopy=homot)


def trivial_brick(q):
    """The contractible double of a factorization.

    Its even part presents the cokernel of q's p1 map as a free module
    modulo W, which is what makes it the unit of the stabilization
    construction.
    """
    nvars, field = q.nvars, q.field
    a = q.split_degree
    dd = q.weights.degree if q.weights is not None else 0
    sh0 = (dd - 2 * a) if a is not None else 0
    shm = (-a) if a is not None else 0

    def join(cx, cy):
        if cx is None or cy is None:
            return None
        return cx + cy

    b_m0 = GradedFreeModule(
        q.m1.rank + q.m0.rank,
        tuple(g + sh0 for g in q.m1.degrees) + tuple(g + shm for g in q.m0.degrees),
        join(q.m1.chars, q.m0.chars),
    )
    b_m1 = GradedFreeModule(
        q.m0.rank + q.m1.rank,
        q.m0.degrees + tuple(g + shm for g in q.m1.degrees),
        join(q.m0.chars, q.m1.chars),
    )
    z10 = PolyMatrix.zero(q.m1.rank, q.m1.rank, nvars, field)
    b0 = vstack([
        hstack([-q.p1, PolyMatrix.identity(q.m0.rank, nvars, field)]),
        hstack([z10, q.p0]),
    ])
    z01 = PolyMatrix.zero(q.m0.rank, q.m0.rank, nvars, field)
    b1 = vstack([
        hstack([-q.p0, PolyMatrix.identity(q.m1.rank, nvars, field)]),
        hstack([z01, q.p1]),
    ])
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
