"""Thin fast path to HiGHS for the LPRelax relaxation.

``scipy.optimize.linprog`` spends a measurable slice of each call in
input cleaning (densify/validate/convert) and in its HiGHS wrapper
before and after the solve itself.  LPRelax calls it about a hundred
times per aggregated SLP run with inputs that are already in the exact
shape scipy would produce, and reads only ``success``, ``x`` and
``fun``.  So :func:`solve_bounded_lp` talks to scipy's bundled HiGHS
bindings directly: it fills a ``HighsLp`` from the same CSC arrays and
bounds ``_linprog_highs`` builds, passes one ``HighsOptions`` holding
the options scipy sets for ``method="highs"`` (built once, not
re-validated per call), runs the solve, and reads the primal column
and row values and the objective.  Status mapping and the post-solve
bound/residual check are scipy's own functions.

What the direct path leaves out is what LPRelax never reads: the dual
values and bound multipliers (``lambda``, ``marg_bnds``, and the
per-column Python loop and ``getBasis`` call that build them), and the
per-call option validation through ``HighsOptionsManager``.  HiGHS sees
the same model and the same option values, so the solve is
bit-identical to ``linprog(c, A_ub=a, b_ub=b, bounds=(0, 1),
method="highs")``; ``tests/test_perf_fastlp.py`` checks this on every
LP of a small aggregated SLP run, infeasible ones included.

The private scipy entry points are an implementation detail of the
installed scipy; when any of them is missing the module transparently
falls back to public ``linprog``.

scipy is imported on the first solve, not with the package: loading
``scipy.optimize`` adds about 45 MB of resident memory, and the event
planes and serve's publish path never solve an LP.  A caller that will
solve later, and must not pay the import then, calls
:func:`load_backend` up front.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from scipy.optimize import OptimizeResult

__all__ = ["solve_bounded_lp", "load_backend", "FAST_PATH_AVAILABLE"]


@functools.cache
def _highs() -> SimpleNamespace | None:
    """scipy's HiGHS bindings and the solve options, built once.

    ``None`` when the installed scipy lacks the private layout; the
    solve then goes through public ``linprog``.
    """
    try:  # scipy >= 1.15 layout; fall back to public linprog otherwise
        from scipy.optimize import _linprog_highs as _lh
        from scipy.optimize._highspy import _core
        from scipy.optimize._linprog_util import _check_result
        # The options ``_highs_wrapper`` sets from the dict
        # ``_linprog_highs`` builds for ``method="highs"`` with default
        # solver options (it skips the None values and 'sense', and
        # passes booleans for 'presolve' as "on"/"off").
        options = _core.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = \
            _lh.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = \
            _lh.s_c.SimplexStrategy.kSimplexStrategyDual
        return SimpleNamespace(
            core=_core, options=options, replace_inf=_lh._replace_inf,
            to_scipy_status=_lh._highs_to_scipy_status_message,
            check_result=_check_result)
    except (ImportError, AttributeError, TypeError):  # pragma: no cover
        # scipy drift: a moved module or attribute, or an option whose
        # type changed.
        return None


def load_backend() -> None:
    """Import everything a solve needs now instead of on the first solve."""
    import scipy.sparse  # noqa: F401  (LP assembly, see lp_relax)
    _highs()


def __getattr__(name: str) -> Any:
    # ``FAST_PATH_AVAILABLE`` stays a module attribute, computed on first
    # access so that reading it is what imports scipy.
    if name == "FAST_PATH_AVAILABLE":
        return _highs() is not None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def solve_bounded_lp(cost: np.ndarray, a_ub, b_ub: np.ndarray) -> OptimizeResult:
    """``linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")``.

    ``a_ub`` must be a scipy sparse matrix; ``cost`` and ``b_ub`` dense
    float vectors.  Returns an :class:`OptimizeResult` exposing the
    fields LPRelax reads (``success``, ``status``, ``message``, ``x``,
    ``fun``).
    """
    from scipy.optimize import OptimizeResult
    from scipy.sparse import csc_array

    highs = _highs()
    if highs is None:  # pragma: no cover - scipy drift
        from scipy.optimize import linprog
        return linprog(cost, A_ub=a_ub, b_ub=b_ub,
                       bounds=(0.0, 1.0), method="highs")

    # The arrays ``_linprog_highs`` hands its wrapper: rows are
    # ``-inf <= A x <= b_ub`` (infinities as HiGHS's large constant),
    # columns ``0 <= x <= 1``.
    c = np.ascontiguousarray(cost, dtype=np.float64)
    n = c.shape[0]
    rhs = highs.replace_inf(np.ascontiguousarray(b_ub, dtype=np.float64))
    lhs = highs.replace_inf(np.full(rhs.shape, -np.inf))
    A = csc_array(a_ub)

    core = highs.core
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.ones(n)
    lp.row_lower_ = lhs
    lp.row_upper_ = rhs
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data

    # The wrapper's control flow, minus the duals and the per-call option
    # validation (see the module docstring).
    solver = core._Highs()
    error = core.HighsStatus.kError
    x = slack = fun = None
    nit = 0
    if solver.passOptions(highs.options) == error:  # pragma: no cover
        model_status = solver.getModelStatus()
        message = solver.modelStatusToString(model_status)
    elif solver.passModel(lp) == error:  # pragma: no cover
        model_status = core.HighsModelStatus.kModelError
        message = solver.modelStatusToString(model_status)
    elif solver.run() == error:  # pragma: no cover
        model_status = solver.getModelStatus()
        message = solver.modelStatusToString(model_status)
    else:
        model_status = solver.getModelStatus()
        info = solver.getInfo()
        nit = info.simplex_iteration_count or info.ipm_iteration_count
        if model_status == core.HighsModelStatus.kOptimal:
            message = solver.modelStatusToString(model_status)
            solution = solver.getSolution()
            x = np.array(solution.col_value)
            slack = rhs - solution.row_value
            fun = info.objective_function_value
        else:
            primal = solver.solutionStatusToString(
                info.primal_solution_status)
            message = (f"model_status is "
                       f"{solver.modelStatusToString(model_status)}; "
                       f"primal_status is {primal}")
    status, message = highs.to_scipy_status(model_status, message)
    # Same post-check linprog applies (bounds here is the (n, 2) array
    # _clean_inputs derives from ``(0.0, 1.0)``; equality residuals are
    # an empty vector since the model has no A_eq rows).
    bounds = np.broadcast_to([0.0, 1.0], (n, 2))
    con = np.empty(0) if x is not None else None
    status, message = highs.check_result(x, fun, status, slack, con,
                                         bounds, 1e-9, message, None)
    return OptimizeResult({
        "x": x,
        "fun": fun,
        "slack": slack,
        "status": status,
        "message": message,
        "success": status == 0,
        "nit": nit,
    })
