"""Tests for the direct-HiGHS LP path (repro.perf.fastlp).

``solve_bounded_lp`` must be indistinguishable from
``linprog(..., bounds=(0, 1), method="highs", options={"presolve":
False})`` — same optimum, same floats — because LPRelax's downstream
rounding consumes the solution vector verbatim and the reproduction's
fixed-seed results are compared bit-for-bit.  Against ``linprog``'s
default (presolve on) only the vertex may differ: the status and the
optimal value, the paper's lower bound, must not.
"""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import repro
from repro import GoogleGroupsConfig, generate_google_groups, \
    multilevel_problem
from repro.core.slp import AggregationConfig, slp
from repro.perf.fastlp import FAST_PATH_AVAILABLE, solve_bounded_lp

fastlp = importlib.import_module("repro.perf.fastlp")


def random_lp(seed, num_vars=30, num_rows=40, density=0.3):
    """A random feasible-by-construction box-bounded LP."""
    rng = np.random.default_rng(seed)
    mask = rng.random((num_rows, num_vars)) < density
    a = np.where(mask, rng.uniform(-1.0, 2.0, mask.shape), 0.0)
    interior = rng.uniform(0.2, 0.8, num_vars)
    b = a @ interior + rng.uniform(0.0, 0.5, num_rows)
    cost = rng.uniform(-1.0, 1.0, num_vars)
    return cost, sparse.coo_matrix(a), b


def reference(cost, a_ub, b_ub, presolve=False):
    """``linprog`` on the LP ``solve_bounded_lp`` solves."""
    return linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0),
                   method="highs", options={"presolve": presolve})


class TestAgainstLinprog:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_linprog_exactly(self, seed):
        cost, a_ub, b_ub = random_lp(seed)
        fast = solve_bounded_lp(cost, a_ub, b_ub)
        ref = reference(cost, a_ub, b_ub)
        assert fast.success == ref.success
        assert fast.status == ref.status
        assert fast.fun == ref.fun
        assert np.array_equal(np.asarray(fast.x), np.asarray(ref.x))

    def test_infeasible_reported(self):
        # x_0 >= 2 is impossible inside the unit box.
        cost = np.array([1.0])
        a_ub = sparse.coo_matrix(np.array([[-1.0]]))
        b_ub = np.array([-2.0])
        fast = solve_bounded_lp(cost, a_ub, b_ub)
        ref = reference(cost, a_ub, b_ub)
        assert not fast.success
        assert fast.status == ref.status == 2

    def test_csr_input_accepted(self):
        cost, a_ub, b_ub = random_lp(3)
        via_csr = solve_bounded_lp(cost, a_ub.tocsr(), b_ub)
        via_coo = solve_bounded_lp(cost, a_ub, b_ub)
        assert via_csr.fun == via_coo.fun
        assert np.array_equal(via_csr.x, via_coo.x)


@pytest.fixture(scope="module")
def slp_lps():
    """Every LP a small aggregated multilevel SLP run solves."""
    config = GoogleGroupsConfig(num_subscribers=200, num_brokers=8,
                                interest_skew="H", broad_interests="L")
    problem = multilevel_problem(generate_google_groups(7, config),
                                 max_out_degree=4, seed=7)
    lp_relax = importlib.import_module("repro.core.slp.lp_relax")
    lps = []

    def capture(cost, a_ub, b_ub):
        matrix = sparse.csc_matrix((a_ub.data, a_ub.indices, a_ub.indptr),
                                   shape=a_ub.shape)
        lps.append((cost.copy(), matrix.copy(), b_ub.copy()))
        return solve_bounded_lp(cost, a_ub, b_ub)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_relax, "solve_bounded_lp", capture)
        slp(problem, seed=0, aggregation=AggregationConfig(
            max_group_size=4, min_subscribers=1))
    return lps


def test_matches_linprog_on_every_slp_lp(slp_lps):
    # The SLP LPs are what the fast path exists for; an Sb draw that
    # overloads a target makes some of them infeasible.
    statuses = []
    for cost, a_ub, b_ub in slp_lps:
        fast = solve_bounded_lp(cost, a_ub, b_ub)
        ref = reference(cost, a_ub, b_ub)
        assert fast.status == ref.status
        assert fast.success == ref.success
        assert fast.fun == ref.fun
        if ref.x is None:
            assert fast.x is None
        else:
            assert np.array_equal(fast.x, ref.x)
        statuses.append(fast.status)
    assert 0 in statuses
    assert 2 in statuses  # infeasible


def test_presolve_keeps_the_lower_bound(slp_lps):
    # Presolve changes how HiGHS reaches the optimum, not the LP: with it
    # on (``linprog``'s default) every SLP LP has the same status and the
    # same optimal value, the fractional lower bound SLP reports.  Only
    # the optimal vertex may differ.
    for cost, a_ub, b_ub in slp_lps:
        fast = solve_bounded_lp(cost, a_ub, b_ub)
        ref = reference(cost, a_ub, b_ub, presolve=True)
        assert fast.status == ref.status
        if ref.status == 0:
            assert fast.fun == pytest.approx(ref.fun, rel=1e-9)


def test_fast_path_available_on_this_scipy():
    # The CI image ships a scipy whose private HiGHS entry points exist;
    # if this starts failing the module silently falls back to linprog
    # (correct but slower) and this canary makes that visible.
    assert FAST_PATH_AVAILABLE


#: Run in a fresh interpreter: an SLP1 solve loads HiGHS's core alone,
#: and a later ``import scipy.optimize`` reuses that core.
SOLVE_PROBE = """
import importlib, sys
import numpy as np
from repro import GoogleGroupsConfig, generate_google_groups, \\
    one_level_problem
from repro.core.registry import get_algorithm
from repro.perf import fastlp

fastlp.load_backend()
core = sys.modules["scipy.optimize._highspy._core"]
lp_relax = importlib.import_module("repro.core.slp.lp_relax")
solved = []
solve = lp_relax.solve_bounded_lp

def capture(cost, a_ub, b_ub):
    solved.append((cost, a_ub, b_ub))
    return solve(cost, a_ub, b_ub)

lp_relax.solve_bounded_lp = capture
config = GoogleGroupsConfig(num_subscribers=80, num_brokers=4)
problem = one_level_problem(generate_google_groups(3, config))
assert (get_algorithm("SLP1")(problem, seed=0).assignment >= 0).all()
assert solved
assert "scipy.optimize" not in sys.modules
assert "scipy.sparse" not in sys.modules

from scipy.optimize import linprog
from scipy.optimize._highspy import _core
from scipy.sparse import csc_matrix
assert _core is core
cost, a_ub, b_ub = solved[-1]
matrix = csc_matrix((a_ub.data, a_ub.indices, a_ub.indptr), shape=a_ub.shape)
ref = linprog(cost, A_ub=matrix, b_ub=b_ub, bounds=(0.0, 1.0),
              method="highs", options={"presolve": False})
fast = fastlp.solve_bounded_lp(cost, a_ub, b_ub)
assert ref.status == fast.status == 0
assert ref.fun == fast.fun
assert np.array_equal(ref.x, fast.x)
"""


def test_package_import_defers_scipy():
    # The event planes and serve's publish path never solve an LP, so
    # importing the package must not pay for scipy.optimize (~45 MB).
    probe = ("import sys, repro; "
             "assert 'scipy.optimize' not in sys.modules; "
             "assert 'scipy.sparse' not in sys.modules")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": src})
    # Nor does solving: SLP's LPs need HiGHS's compiled core only.
    subprocess.run([sys.executable, "-c", SOLVE_PROBE], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_linprog_fallback_is_identical(slp_lps, monkeypatch):
    # On a scipy whose HiGHS core is not where the loader looks, every
    # solve goes through public linprog, with the same result.
    direct = [solve_bounded_lp(*lp) for lp in slp_lps]
    monkeypatch.delitem(sys.modules, fastlp._CORE)
    monkeypatch.setattr(fastlp, "EXTENSION_SUFFIXES", [])
    fastlp._highs.cache_clear()
    try:
        assert not fastlp.FAST_PATH_AVAILABLE
        fallback = [solve_bounded_lp(*lp) for lp in slp_lps]
    finally:
        fastlp._highs.cache_clear()
    for fast, slow in zip(direct, fallback, strict=True):
        assert fast.status == slow.status
        assert fast.success == slow.success
        assert fast.message == slow.message
        assert fast.nit == slow.nit
        assert fast.fun == slow.fun
        for field in ("x", "slack"):
            mine, theirs = getattr(fast, field), getattr(slow, field)
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert np.array_equal(mine, theirs)
