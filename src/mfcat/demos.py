"""Deterministic demo suites for the command line and the tests.

Each demo builds a workspace, runs a fixed set of computations on it,
and returns (workspace_text, report).  Reports are plain dict/list/str
data so that they serialize to stable JSON; randomized parts use a
fixed seed.
"""

from __future__ import annotations

import random

from .action import cyclic_action
from .equivariant import (
    enumerate_structures,
    equivariant_hom_space,
    isotypic_decompose,
    twist_orbits,
)
from .errors import UsageError
from .factorization import (
    MfMorphism,
    cone,
    elementary_factorization,
    koszul_factorization,
    trivial_brick,
    w_multiple_homotopy,
)
from .fields import QQ
from .homotopy import (
    hom_space,
    is_contractible,
    is_null_homotopic,
    random_chain_map,
)
from .matrices import PolyMatrix
from .poly import Polynomial, WeightSystem, format_poly
from .singcat import (
    brick_presentation_normal_form,
    cok,
    homotopy_decomposition,
    stable_hom,
    two_periodicity_check,
)
from .workspace import Workspace

DEMO_NAMES = ("an", "fermat", "brick", "cone-axioms")


def _matrix_strings(mat):
    return [[format_poly(a) for a in row] for row in mat.entries]


def _one_variable(power, field=QQ):
    return Polynomial.monomial((power,), 1, field)


def an_suite(n, field=QQ):
    """The factorizations (x^k | x^{n-k}) of x^n, for k = 1..n-1."""
    if n < 2:
        raise UsageError("the one-variable suite needs n >= 2")
    weights = WeightSystem((1,), n)
    out = {}
    for k in range(1, n):
        out[f"f{k}"] = elementary_factorization(
            _one_variable(k, field),
            _one_variable(n - k, field),
            weights=weights,
        )
    return out


def an_workspace(n, field=QQ):
    w = Polynomial.monomial((n,), 1, field)
    ws = Workspace(1, field, w, WeightSystem((1,), n), cyclic_action(n, (1,), 1))
    for k, mf in an_suite(n, field).items():
        idx = int(k[1:])
        ws.factorizations[k] = mf.with_chars(((0,),), ((idx % n,),))
    return ws


def demo_an(n=4, field=QQ):
    ws = an_workspace(n, field)
    report = {
        "demo": "an",
        "n": n,
        "verify": ws.verify_all(),
        "hom": {},
        "structures": {},
    }
    for a in ws.names():
        for b in ws.names():
            hs = hom_space(ws.factorization(a), ws.factorization(b))
            report["hom"][f"{a}->{b}"] = hs.to_json()
    for name in ws.names():
        found = enumerate_structures(ws.factorization(name).strip_chars(), ws.action)
        report["structures"][name] = len(found)
    return ws.render(), report


def fermat_koszul(n=3, field=QQ):
    """Rank-4 Koszul factorization of x1^n + x2^n + x3^n."""
    if n < 2:
        raise UsageError("the diagonal potential needs n >= 2")
    weights = WeightSystem((1, 1, 1), n)
    pairs = []
    for i in range(3):
        e_lin = tuple(1 if j == i else 0 for j in range(3))
        e_rest = tuple(n - 1 if j == i else 0 for j in range(3))
        pairs.append(
            (
                Polynomial.monomial(e_lin, 1, field),
                Polynomial.monomial(e_rest, 1, field),
            )
        )
    return koszul_factorization(pairs, weights=weights)


def demo_fermat(n=3, field=QQ):
    mf = fermat_koszul(n, field)
    action = cyclic_action(n, (1, 1, 1), 3)
    ws = Workspace(3, field, mf.W, mf.weights, action)
    ws.factorizations["kos"] = mf
    structures = enumerate_structures(mf, action)
    orbits = twist_orbits(structures)
    report = {
        "demo": "fermat",
        "n": n,
        "verify": ws.verify_all(),
        "structure_count": len(structures),
        "orbit_sizes": [len(o) for o in orbits],
        "equivariant_hom": {},
        "isotypic_sums_match": True,
    }
    full = hom_space(mf, mf)
    for i, es in enumerate(structures):
        for j, et in enumerate(structures):
            hs = equivariant_hom_space(es, et)
            report["equivariant_hom"][f"{i}->{j}"] = hs.to_json()
    pieces = isotypic_decompose(structures[0], structures[0])
    total = sum(hs.total for hs in pieces.values())
    report["isotypic_sums_match"] = total == full.total
    report["hom_total"] = full.total
    return ws.render(), report


def demo_brick(field=QQ):
    w = Polynomial.monomial((3,), 1, field)
    weights = WeightSystem((1,), 3)
    q = elementary_factorization(
        _one_variable(1, field), _one_variable(2, field), weights=weights
    )
    brick = trivial_brick(q)
    ws = Workspace(1, field, w, weights, None)
    ws.factorizations["q"] = q
    ws.factorizations["brick"] = brick
    contractible = is_contractible(brick)
    s_mat, c_mat, n_mat = brick_presentation_normal_form(q)
    phi = MfMorphism(
        source=q,
        target=q,
        f0=PolyMatrix.scalar(q.W, q.m0.rank),
        f1=PolyMatrix.scalar(q.W, q.m1.rank),
        degree=weights.degree,
    )  # W times the identity, the canonical null-homotopic map
    decomp = homotopy_decomposition(
        phi, homotopy=w_multiple_homotopy(MfMorphism.identity(q))
    )
    brick_cok = cok(brick)
    q_cok = cok(q)
    stable = {}
    for s in (0, 1):
        stable[f"from_brick_shift{s}"] = stable_hom(brick_cok, q_cok, s).total
        stable[f"to_brick_shift{s}"] = stable_hom(q_cok, brick_cok, s).total
    periodicity = two_periodicity_check(brick)
    report = {
        "demo": "brick",
        "verify": ws.verify_all(),
        "contractible": bool(contractible),
        "normal_form": _matrix_strings(n_mat),
        "row_transform": _matrix_strings(s_mat),
        "column_transform": _matrix_strings(c_mat),
        "decomposition": {
            "into_brick_f0": _matrix_strings(decomp.into_brick.f0),
            "into_brick_f1": _matrix_strings(decomp.into_brick.f1),
            "from_brick_f0": _matrix_strings(decomp.from_brick.f0),
            "from_brick_f1": _matrix_strings(decomp.from_brick.f1),
            "recomposes": decomp.composite() == phi,
        },
        "stable_hom_totals": stable,
        "two_periodicity": periodicity.to_json(),
    }
    return ws.render(), report


def demo_cone_axioms(field=QQ):
    n = 4
    weights = WeightSystem((1,), n)
    suite = {
        "f1": elementary_factorization(
            _one_variable(1, field), _one_variable(3, field), weights=weights
        ),
        "f2": elementary_factorization(
            _one_variable(2, field), _one_variable(2, field), weights=weights
        ),
    }
    w = Polynomial.monomial((n,), 1, field)
    ws = Workspace(1, field, w, weights, None)
    ws.factorizations.update(suite)
    rng = random.Random(20240901)
    report = {
        "demo": "cone-axioms",
        "verify": ws.verify_all(),
        "shift_involution": {},
        "cones": [],
    }
    for name, mf in suite.items():
        report["shift_involution"][name] = mf.shift().shift() == mf
    for sname, src in suite.items():
        for tname, tgt in suite.items():
            phi = random_chain_map(src, tgt, rng=rng)
            c = cone(phi)
            entry = {
                "map": f"{sname}->{tname}",
                "cone_verifies": c.factorization.verify()["ok"],
                "inclusion_after_map_bounds": bool(
                    is_null_homotopic(c.inclusion @ phi)
                ),
                "projection_after_inclusion_zero": (
                    c.projection @ c.inclusion
                ).is_zero(),
                "splitting_homotopy_exact": (
                    c.splitting_homotopy.bounds(c.inclusion @ phi)
                ),
            }
            report["cones"].append(entry)
    return ws.render(), report


def run_demo(name, n=None, field=QQ):
    """Dispatch a demo by name; returns (workspace_text, report)."""
    if name == "an":
        return demo_an(4 if n is None else n, field)
    if name == "fermat":
        return demo_fermat(3 if n is None else n, field)
    if name == "brick":
        if n is not None:
            raise UsageError("the brick demo takes no --n")
        return demo_brick(field)
    if name == "cone-axioms":
        if n is not None:
            raise UsageError("the cone-axioms demo takes no --n")
        return demo_cone_axioms(field)
    raise UsageError(f"unknown demo {name!r}; choose from {', '.join(DEMO_NAMES)}")
