"""Thin fast path to HiGHS for the LPRelax relaxation.

``scipy.optimize.linprog`` spends a measurable slice of each call in
input cleaning (densify/validate/convert) and in its HiGHS wrapper
before and after the solve itself.  LPRelax calls it about a hundred
times per aggregated SLP run with inputs that are already in the exact
shape scipy would produce, and reads only ``success``, ``x`` and
``fun``.  So :func:`solve_bounded_lp` talks to HiGHS's compiled core,
the extension module scipy bundles as ``scipy.optimize._highspy._core``,
directly: it hands ``_Highs.passModel`` the same CSC arrays and bounds
``_linprog_highs`` builds (as numpy arrays, through the pointer
overload), passes one ``HighsOptions`` holding the options scipy sets
for ``method="highs", options={"presolve": False}`` (built once, not
re-validated per call), runs the solve, and reads the primal column and
row values and the objective.
The three pieces of scipy it would otherwise borrow are ported here
verbatim: the infinity replacement, the HiGHS-to-scipy status table and
``linprog``'s post-solve bound/slack/NaN check.

What the direct path leaves out is what LPRelax never reads: the dual
values and bound multipliers (``lambda``, ``marg_bnds``, and the
per-column Python loop and ``getBasis`` call that build them), and the
per-call option validation through ``HighsOptionsManager``.  HiGHS sees
the same model and the same option values, so the solve is
bit-identical to ``linprog(c, A_ub=a, b_ub=b, bounds=(0, 1),
method="highs", options={"presolve": False})``;
``tests/test_perf_fastlp.py`` checks this on every LP of a small
aggregated SLP run, infeasible ones included.

Presolve is off because on LPRelax's LPs it costs more than it saves:
replaying the LPs of three SLP solves, HiGHS time fell 15-44% without
it (EXPERIMENTS.md).  The LP is the same, so its status and optimal
value are those of ``linprog``'s default (presolve on), which the tests
also check; only the optimal vertex HiGHS returns may differ, and with
it the rounding's random path.

The core is loaded from its file in scipy's install, not imported
through ``scipy.optimize``: that package's init loads every scipy
optimizer and ``scipy.sparse`` with them, about 49 MB of resident memory
and 0.2 s in a process that already holds numpy, against 3.5 MB and a
few milliseconds for the core alone.  The module
is registered in ``sys.modules`` under its own dotted name, so a later
``import scipy.optimize`` reuses the loaded extension (and one already
imported is reused here).  Nothing is loaded with the package: the event
planes and serve's publish path never solve an LP.  A caller that will
solve later, and must not pay the load then, calls :func:`load_backend`
up front.

The file layout is an implementation detail of the installed scipy;
when the core or any attribute read here is missing, the module
transparently falls back to public ``linprog``.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from types import ModuleType, SimpleNamespace
from typing import Any, NamedTuple

import numpy as np

__all__ = ["CSCMatrix", "LPResult", "solve_bounded_lp", "load_backend",
           "FAST_PATH_AVAILABLE"]

#: The dotted name scipy imports HiGHS's compiled core under.
_CORE = "scipy.optimize._highspy._core"

#: ``linprog``'s default ``tol``, which its post-solve check widens.
_TOL = 1e-9


class CSCMatrix(NamedTuple):
    """A sparse matrix as the compressed-column arrays HiGHS reads.

    The field names follow scipy's, so ``csc_array((m.data, m.indices,
    m.indptr), shape=m.shape)`` rebuilds it.
    """

    indptr: np.ndarray       #: int32 column starts, ``shape[1] + 1`` long
    indices: np.ndarray      #: int32 row indices, ascending per column
    data: np.ndarray         #: float64 values
    shape: tuple[int, int]


@dataclass(frozen=True)
class LPResult:
    """The fields of ``linprog``'s result that a solve here produces."""

    x: np.ndarray | None
    fun: float | None
    slack: np.ndarray | None
    status: int
    message: str
    success: bool
    nit: int


def _load_core() -> ModuleType | None:
    """HiGHS's compiled core, without importing ``scipy.optimize``.

    Reuses the module when it is already in ``sys.modules``; otherwise
    loads it from its file and registers it there.  ``None`` when the
    installed scipy has no such file.
    """
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    stem = os.path.join(scipy_spec.submodule_search_locations[0],
                        "optimize", "_highspy", "_core")
    path = next((stem + suffix for suffix in EXTENSION_SUFFIXES
                 if os.path.isfile(stem + suffix)), None)
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(_CORE, path)
    core = importlib.util.module_from_spec(spec)
    # Registered before it runs, as the import system does, so that any
    # later import of the name gets this module: pybind11 refuses to
    # register the same types twice.
    sys.modules[_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return core


@functools.cache
def _highs() -> SimpleNamespace | None:
    """HiGHS's core, the solve options and the status table, built once.

    ``None`` when the installed scipy lacks the layout; the solve then
    goes through public ``linprog``.
    """
    try:
        core = _load_core()
        if core is None:
            return None
        # The options ``_highs_wrapper`` sets from the dict
        # ``_linprog_highs`` builds for ``method="highs"`` with
        # ``presolve=False`` and otherwise default solver options (it
        # skips the None values and 'sense', and passes booleans for
        # 'presolve' as "on"/"off").
        options = core.HighsOptions()
        options.presolve = "off"
        options.highs_debug_level = \
            core.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = \
            core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        # scipy's ``_highs_to_scipy_status_message`` table.
        model = core.HighsModelStatus
        statuses = {
            model.kNotset: (4, ""),
            model.kLoadError: (4, ""),
            model.kModelError: (2, ""),
            model.kPresolveError: (4, ""),
            model.kSolveError: (4, ""),
            model.kPostsolveError: (4, ""),
            model.kModelEmpty: (4, ""),
            model.kObjectiveBound: (4, ""),
            model.kObjectiveTarget: (4, ""),
            model.kOptimal: (0, "Optimization terminated successfully. "),
            model.kTimeLimit: (1, "Time limit reached. "),
            model.kIterationLimit: (1, "Iteration limit reached. "),
            model.kInfeasible: (2, "The problem is infeasible. "),
            model.kUnbounded: (3, "The problem is unbounded. "),
            model.kUnboundedOrInfeasible: (4, "The problem is unbounded "
                                              "or infeasible. ")}
        return SimpleNamespace(
            core=core, options=options, statuses=statuses,
            colwise=int(core.MatrixFormat.kColwise),
            minimize=int(core.ObjSense.kMinimize),
            continuous=int(core.HighsVarType.kContinuous))
    except (ImportError, AttributeError, TypeError):
        # scipy drift: a moved file or attribute, or an option whose
        # type changed.
        return None


def load_backend() -> None:
    """Load everything a solve needs now instead of on the first solve."""
    _highs()


def __getattr__(name: str) -> Any:
    # ``FAST_PATH_AVAILABLE`` stays a module attribute, computed on first
    # access so that reading it is what loads HiGHS.
    if name == "FAST_PATH_AVAILABLE":
        return _highs() is not None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _replace_inf(x: np.ndarray, highs_inf: float) -> np.ndarray:
    """scipy's ``_replace_inf``: infinities as HiGHS's large constant."""
    infs = np.isinf(x)
    with np.errstate(invalid="ignore"):
        x[infs] = np.sign(x[infs]) * highs_inf
    return x


def _scipy_status(statuses: dict, model_status: Any,
                  highs_message: str) -> tuple[int, str]:
    """scipy's ``_highs_to_scipy_status_message`` (the status is never
    missing here: every branch of the solve reads one)."""
    status, message = statuses.get(
        model_status, (4, "The HiGHS status code was not recognized. "))
    return status, (f"{message}(HiGHS Status {int(model_status)}: "
                    f"{highs_message})")


def _check_result(x: np.ndarray | None, fun: Any, status: int,
                  slack: Any, message: str) -> tuple[int, str]:
    """``linprog``'s post-solve check (scipy's ``_check_result``).

    Specialised to what every solve here has: bounds ``0 <= x <= 1``, no
    equality rows (an empty residual vector, never NaN or out of
    tolerance) and no integrality.
    """
    tol = np.sqrt(_TOL) * 10
    if x is None:
        # HiGHS does not provide x if infeasible/unbounded.
        if status == 0:
            status = 4
            message = ("The solver did not provide a solution nor did it "
                       "report a failure. Please submit a bug report.")
        return status, message
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any():
        is_feasible = False
    else:
        invalid_bounds = not np.all((x >= 0.0 - tol) & (x <= 1.0 + tol))
        invalid_slack = status != 3 and (slack < -tol).any()
        is_feasible = not (invalid_bounds or invalid_slack)
    if status == 0 and not is_feasible:
        status = 4
        message = ("The solution does not satisfy the constraints within the "
                   "required tolerance of " + f"{tol:.2E}" + ", yet "
                   "no errors were raised and there is no certificate of "
                   "infeasibility or unboundedness. Check whether "
                   "the slack and constraint residuals are acceptable; "
                   "if not, consider enabling presolve, adjusting the "
                   "tolerance option(s), and/or using a different method. "
                   "Please consider submitting a bug report.")
    elif status == 2 and is_feasible:
        # The simplex method exited after phase one with a nearly basic
        # feasible solution that is not optimal.
        status = 4
        message = ("The solution is feasible, but the solver did not report "
                   "that the solution was optimal. Please try a different "
                   "method.")
    return status, message


def _solve_with_linprog(cost: np.ndarray, a_ub: CSCMatrix,
                        b_ub: np.ndarray) -> LPResult:
    """The same LP through public ``linprog`` (the fallback)."""
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    matrix = csc_array((a_ub.data, a_ub.indices, a_ub.indptr),
                       shape=a_ub.shape)
    res = linprog(cost, A_ub=matrix, b_ub=b_ub, bounds=(0.0, 1.0),
                  method="highs", options={"presolve": False})
    return LPResult(x=res.x, fun=res.fun, slack=res.slack,
                    status=res.status, message=res.message,
                    success=res.success, nit=res.nit)


def solve_bounded_lp(cost: np.ndarray, a_ub: Any,
                     b_ub: np.ndarray) -> LPResult:
    """``linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs",
    options={"presolve": False})``.

    ``a_ub`` is a :class:`CSCMatrix` or anything with a ``tocsc()``
    method returning scipy-style CSC arrays (a scipy sparse matrix);
    ``cost`` and ``b_ub`` are dense float vectors.
    """
    if not isinstance(a_ub, CSCMatrix):
        csc = a_ub.tocsc()
        a_ub = CSCMatrix(csc.indptr, csc.indices, csc.data, csc.shape)
    highs = _highs()
    if highs is None:
        return _solve_with_linprog(cost, a_ub, b_ub)

    # The arrays ``_linprog_highs`` hands its wrapper: rows are
    # ``-inf <= A x <= b_ub`` (infinities as HiGHS's large constant),
    # columns ``0 <= x <= 1``.
    core = highs.core
    c = np.ascontiguousarray(cost, dtype=np.float64)
    n = c.shape[0]
    rhs = _replace_inf(np.array(b_ub, dtype=np.float64), core.kHighsInf)
    lhs = _replace_inf(np.full(rhs.shape, -np.inf), core.kHighsInf)
    start = np.ascontiguousarray(a_ub.indptr, dtype=np.int32)
    index = np.ascontiguousarray(a_ub.indices, dtype=np.int32)
    value = np.ascontiguousarray(a_ub.data, dtype=np.float64)
    # The pointer overload rejects an empty integrality vector, so every
    # column is declared continuous; the model stays an LP.
    integrality = np.full(n, highs.continuous, dtype=np.int32)

    # The wrapper's control flow, minus the duals and the per-call option
    # validation (see the module docstring).
    solver = core._Highs()
    error = core.HighsStatus.kError
    x = slack = fun = None
    nit = 0
    if solver.passOptions(highs.options) == error:  # pragma: no cover
        model_status = solver.getModelStatus()
        message = solver.modelStatusToString(model_status)
    elif solver.passModel(
            n, rhs.size, int(start[-1]), highs.colwise, highs.minimize, 0.0,
            c, np.zeros(n), np.ones(n), lhs, rhs, start, index, value,
            integrality) == error:  # pragma: no cover
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
    status, message = _scipy_status(highs.statuses, model_status, message)
    status, message = _check_result(x, fun, status, slack, message)
    return LPResult(x=x, fun=fun, slack=slack, status=status,
                    message=message, success=status == 0, nit=nit)
