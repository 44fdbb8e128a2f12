"""End-to-end acceptance checks, one test per criterion.

Each test exercises one guarantee of the library over the demo suite
(power potentials x^n for n = 2..6, the plane quadric, and the diagonal
cubic in three variables) and prints a single PASS line when it holds.
Expected values come from the independent oracles in oracles.py, which
were written before the library was run on these inputs.
"""

import json
import random
import subprocess
import sys

import oracles as orc
import suites
from mfcat import (
    EquivariantStructure,
    Homotopy,
    MfMorphism,
    PolyMatrix,
    cok,
    cok_g,
    cone,
    direct_sum,
    enumerate_structures,
    equivariant_hom_space,
    find_homotopy,
    hom_space,
    homotopy_decomposition,
    is_contractible,
    is_equivariant_map,
    isotypic_decompose,
    parse_poly,
    random_chain_map,
    reynolds,
    stable_hom,
    trivial_brick,
    w_multiple_homotopy,
)
from mfcat.equivariant import _ORBIT_CACHE, _orbit_split

SUITE = suites.full_suite()

ZERO_CHAR = (0,)


def constructor_closure():
    """Suite objects together with everything the constructors make of them."""
    out = []
    for label, q in SUITE:
        out.append((label, q))
        out.append((label + "[1]", q.shift()))
        out.append(("brick " + label, trivial_brick(q)))
        out.append(("cone id " + label, cone(MfMorphism.identity(q)).factorization))
        out.append((label + " (+) brick", direct_sum(q, trivial_brick(q))))
    return out


def equivariant_suite():
    """All structures of the cyclic suites, grouped by suite."""
    groups = []
    for n in range(2, 7):
        act = suites.an_action(n)
        objs = suites.an_objects(n)
        structs = []
        for k in sorted(objs):
            structs.extend(enumerate_structures(objs[k], act))
        groups.append((f"x^{n}", act, structs))
    groups.append(
        ("fermat", suites.fermat_action(),
         list(enumerate_structures(suites.fermat_cubic(), suites.fermat_action()))))
    return groups


def test_criterion_01_factorization_axioms():
    checked = 0
    for label, m in constructor_closure():
        report = m.verify()
        assert report["ok"], (label, report)
        checked += 1
    print(f"ACCEPTANCE 1: PASS (exact verify on {checked} constructed objects)")


def test_criterion_02_shift_involution():
    checked = 0
    for label, m in constructor_closure():
        twice = m.shift().shift()
        assert twice == m, label
        assert json.dumps(twice.to_json(), sort_keys=True) == \
            json.dumps(m.to_json(), sort_keys=True), label
        checked += 1
    print(f"ACCEPTANCE 2: PASS (shift squared identical on {checked} objects)")


def test_criterion_03_triangle_composites():
    maps = 0
    nonzero = 0
    for idx, (label, q) in enumerate(SUITE):
        rng = random.Random(1000 + idx)
        for _ in range(20):
            phi = random_chain_map(q, q, 0, rng=rng)
            if not phi.is_zero():
                nonzero += 1
            c = cone(phi)
            incl_phi = c.inclusion @ phi
            # closed-form witness carried by the cone
            assert c.splitting_homotopy.boundary() == incl_phi
            # and the solver finds its own certificate
            h = find_homotopy(incl_phi)
            assert h is not None and h.boundary() == incl_phi
            proj_incl = c.projection @ c.inclusion
            h2 = find_homotopy(proj_incl)
            assert h2 is not None and h2.boundary() == proj_incl
            maps += 1
        assert nonzero > 0, label
    print(f"ACCEPTANCE 3: PASS (both composites null-homotopic for {maps} "
          f"random chain maps, {nonzero} of them nonzero)")


def test_criterion_04_w_annihilation():
    checked = 0
    for idx, (label, q) in enumerate(SUITE):
        d_w = q.weights.degree
        # explicit witness for W times the identity: (p0, 0)
        witness = Homotopy(
            source=q, target=q, t0=q.p0,
            t1=PolyMatrix.zero(q.m0.rank, q.m1.rank, q.nvars, q.field),
            degree=d_w)
        ident = MfMorphism.identity(q)
        w_id = MfMorphism(q, q, ident.f0.poly_mul(q.W),
                          ident.f1.poly_mul(q.W), degree=d_w)
        assert witness.boundary() == w_id, label
        rng = random.Random(2000 + idx)
        for phi in [MfMorphism.identity(q)] + [
                random_chain_map(q, q, 0, rng=rng) for _ in range(5)]:
            w_phi = MfMorphism(q, q, phi.f0.poly_mul(q.W),
                               phi.f1.poly_mul(q.W), degree=phi.degree + d_w)
            h = find_homotopy(w_phi)
            assert h is not None and h.boundary() == w_phi, label
            assert w_multiple_homotopy(phi).boundary() == w_phi, label
            checked += 1
    print(f"ACCEPTANCE 4: PASS (W-multiples bounded for {checked} chain maps, "
          "explicit (p0, 0) witness verified)")


def test_criterion_05_hom_table_oracle():
    for n in range(2, 7):
        objs = suites.an_objects(n)
        lo, hi = -2 * n, 2 * n
        table = {}
        for a in range(1, n):
            for b in range(1, n):
                hs = hom_space(objs[a], objs[b], window=(lo, hi))
                assert hs.certified
                dims = orc.hom_dims(orc.mf_to_data(objs[a]),
                                    orc.mf_to_data(objs[b]), lo, hi)
                # the oracle window is wide enough: nothing at the edges
                assert dims[lo]["H"] == 0 and dims[hi]["H"] == 0
                per_degree = {d.degree: d.dim for d in hs.per_degree}
                for d in range(lo, hi + 1):
                    assert per_degree.get(d, 0) == dims[d]["H"], (n, a, b, d)
                total = sum(v["H"] for v in dims.values())
                assert hs.total == total
                assert total == min(a, b, n - a, n - b), (n, a, b)
                table[(a, b)] = total
        if n == 2:
            assert table == {(1, 1): 1}
    print("ACCEPTANCE 5: PASS (graded solver matches dense oracle "
          "entry-for-entry for n = 2..6; n = 2 table is [1])")


def test_criterion_06_brick_contractible_and_stably_zero():
    for label, q in SUITE:
        b = trivial_brick(q)
        assert is_contractible(b) is True, label
        cok_b = cok(b)
        cok_q = cok(q)
        for shift in (0, 1):
            fwd = stable_hom(cok_b, cok_q, shift)
            back = stable_hom(cok_q, cok_b, shift)
            assert fwd.certified and fwd.total == 0, (label, shift)
            assert back.certified and back.total == 0, (label, shift)
    print(f"ACCEPTANCE 6: PASS (bricks contractible and stably invisible "
          f"for all {len(SUITE)} suite objects)")


def test_criterion_07_structure_counts():
    for n in range(2, 7):
        act = suites.an_action(n)
        objs = suites.an_objects(n)
        for k in range(1, n):
            structs = enumerate_structures(objs[k], act)
            assert len(structs) == n, (n, k)
            brute = orc.brute_force_structures(
                orc.mf_to_data(objs[k]), (n,), ((1,),))
            got = sorted((e.chars0, e.chars1) for e in structs)
            assert got == brute, (n, k)
    print("ACCEPTANCE 7: PASS (n structures on each (x^k | x^(n-k)), "
          "matching exhaustive search, n = 2..6)")


def test_criterion_08_reynolds_projector():
    pairs = 0
    sampled = 0
    for name, act, structs in equivariant_suite():
        by_obj = {}
        for e in structs:
            by_obj.setdefault(id(e.factorization), []).append(e)
        for e1 in structs:
            for e2 in structs:
                eq = equivariant_hom_space(e1, e2)
                iso = isotypic_decompose(e1, e2)
                assert eq.total == iso[ZERO_CHAR].total, name
                pairs += 1
        # projector identities on sample maps, first structure pair per
        # object pair
        seen = set()
        for e1 in structs:
            for e2 in structs:
                key = (id(e1.factorization), id(e2.factorization))
                if key in seen:
                    continue
                seen.add(key)
                m1, m2 = e1.factorization, e2.factorization
                rng = random.Random(3000 + pairs + sampled)
                sample = [random_chain_map(m1, m2, 0, rng=rng) for _ in range(2)]
                for dd in hom_space(m1, m2).per_degree:
                    sample.extend(dd.representatives)
                for f in sample:
                    r = reynolds(f, e1, e2)
                    assert reynolds(r, e1, e2) == r
                    assert r.is_chain_map()
                    assert is_equivariant_map(r, e1, e2)
                    assert (r == f) == is_equivariant_map(f, e1, e2)
                    sampled += 1
    assert _orbit_split.cache_info().currsize <= _ORBIT_CACHE
    print(f"ACCEPTANCE 8: PASS (invariant dimension equals character-0 "
          f"isotypic piece on {pairs} structure pairs; projector idempotent "
          f"and fixing exactly the equivariant maps on {sampled} samples)")


def test_criterion_09_twist_sums():
    pairs = 0
    for name, act, structs in equivariant_suite():
        chars = act.characters()
        for e1 in structs:
            for e2 in structs:
                twisted = sum(
                    equivariant_hom_space(e1, e2.twist(ch)).total
                    for ch in chars)
                full = hom_space(e1.factorization, e2.factorization,
                                 want_reps=False).total
                assert twisted == full, name
                pairs += 1
    assert _orbit_split.cache_info().currsize <= _ORBIT_CACHE
    print(f"ACCEPTANCE 9: PASS (equivariant dims over all target twists sum "
          f"to the plain dim on {pairs} structure pairs)")


def test_criterion_10_brick_factorization():
    count = 0
    for idx, (label, q) in enumerate(SUITE):
        rng = random.Random(4000 + idx)
        for _ in range(10):
            t = suites.random_homotopy(q, q, 0, rng)
            phi = t.boundary()
            dec = homotopy_decomposition(phi)
            assert dec.brick == trivial_brick(q), label
            assert dec.into_brick.is_chain_map(), label
            assert dec.from_brick.is_chain_map(), label
            assert dec.composite() == phi, label
            count += 1
    print(f"ACCEPTANCE 10: PASS ({count} null-homotopic maps factored "
          "through the brick with both squares exact)")


def test_criterion_11_forgetful_compatibility():
    checked = 0
    groups = equivariant_suite()
    groups.append(
        ("quadric", suites.quadric_action(),
         list(enumerate_structures(suites.quadric(), suites.quadric_action()))))
    for name, act, structs in groups:
        for e in structs:
            plain = cok(e.forget())
            graded = cok_g(e)
            assert plain.presentation == graded.presentation, name
            assert graded.generator_chars is not None
            checked += 1
    print(f"ACCEPTANCE 11: PASS (plain and equivariant cokernels share the "
          f"presentation matrix for {checked} structures)")


def test_criterion_12_cli_determinism(tmp_path):
    def run(args):
        return subprocess.run([sys.executable, "-m", "mfcat.cli"] + args,
                              capture_output=True, text=True)

    first = run(["demo", "an", "--n", "4", "--json"])
    second = run(["demo", "an", "--n", "4", "--json"])
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)

    fix = tmp_path / "fix"
    assert run(["demo", "an", "--n", "3", "--dir", str(fix)]).returncode == 0
    clean = run(["verify", str(fix / "workspace.mfw")])
    assert clean.returncode == 0
    text = (fix / "workspace.mfw").read_text()
    assert "x1^2" in text
    (fix / "workspace.mfw").write_text(text.replace("x1^2", "x1^2 + x1", 1))
    corrupt = run(["verify", str(fix / "workspace.mfw")])
    assert corrupt.returncode == 1
    assert "FAILED" in corrupt.stdout
    print("ACCEPTANCE 12: PASS (byte-identical demo JSON; exit 0 clean, "
          "exit 1 corrupted)")
