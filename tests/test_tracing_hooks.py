"""The benchmark's tracing hooks find every library target they name.

perfbench/tracing.py wraps library functions and methods by name and
skips a hook whose target is gone, so a renamed or moved target would
leave its metrics reading 0 with every traced run still correct.  Here the
tracer is installed and each target must be its wrapper, and after
``uninstall()`` the original again.
"""

import importlib.util
import os
import time

from mfcat import action, equivariant, factorization, homotopy, linalg, matrices, poly

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")

TARGETS = [
    (homotopy.HomProblem, "degree_block"),
    (homotopy, "hom_space"),
    (homotopy, "find_homotopy"),
    (equivariant, "equivariant_hom_space"),
    (equivariant, "isotypic_decompose"),
    (poly, "monomials_of_weighted_degree"),
    (linalg, "rank"),
    (linalg, "nullspace"),
    (linalg, "solve"),
    (action.GroupAction, "char_of_monomial"),
    (factorization.Homotopy, "boundary"),
    (matrices.PolyMatrix, "__matmul__"),
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_wraps_its_target_and_uninstalls():
    originals = [getattr(owner, name) for owner, name in TARGETS]
    tracer = load_tracing().Tracer(time.perf_counter)
    tracer.install()
    try:
        for (owner, name), orig in zip(TARGETS, originals):
            wrapper = getattr(owner, name)
            assert wrapper is not orig, name
            assert wrapper.__wrapped__ is orig, name
    finally:
        tracer.uninstall()
    for (owner, name), orig in zip(TARGETS, originals):
        assert getattr(owner, name) is orig, name
