"""Thin fast path to HiGHS for the LPRelax relaxation.

``scipy.optimize.linprog`` spends a measurable slice of each call in
input cleaning (densify/validate/convert) before handing the model to
HiGHS.  LPRelax calls it dozens of times per SLP run with inputs that
are already in the exact shape scipy would produce, so
:func:`solve_bounded_lp` rebuilds only the pieces of the pipeline that
matter — the same CSC conversion, the same HiGHS options dictionary,
the same status/result checks — and invokes scipy's own
``_highs_wrapper`` directly.  Every array handed to the wrapper is
constructed the way ``_linprog_highs`` constructs it, so the solve is
bit-identical to ``linprog(c, A_ub=a, b_ub=b, bounds=(0, 1),
method="highs")``; the differential oracles in ``repro.verify``
confirm this empirically.

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
    """scipy's HiGHS entry points, imported once, on the first solve.

    ``None`` when the installed scipy lacks the private layout; the
    solve then goes through public ``linprog``.
    """
    try:  # scipy >= 1.15 layout; fall back to public linprog otherwise
        from scipy.optimize import _linprog_highs as _lh
        from scipy.optimize._linprog_util import _check_result
        # Same effective options dict ``_linprog_highs`` builds for
        # ``method="highs"`` with default solver options (None values are
        # skipped by the wrapper, as are 'sense' and 'solver'=None).
        options = {
            "presolve": True,
            "sense": _lh.ObjSense.kMinimize,
            "solver": None,
            "time_limit": None,
            "highs_debug_level": _lh.HighsDebugLevel.kHighsDebugLevelNone,
            "dual_feasibility_tolerance": None,
            "ipm_optimality_tolerance": None,
            "log_to_console": False,
            "mip_max_nodes": None,
            "output_flag": False,
            "primal_feasibility_tolerance": None,
            "simplex_dual_edge_weight_strategy": None,
            "simplex_strategy":
                _lh.s_c.SimplexStrategy.kSimplexStrategyDual,
            "ipm_iteration_limit": None,
            "simplex_iteration_limit": None,
            "mip_rel_gap": None,
        }
        return SimpleNamespace(
            wrapper=_lh._highs_wrapper, replace_inf=_lh._replace_inf,
            to_scipy_status=_lh._highs_to_scipy_status_message,
            check_result=_check_result, options=options)
    except (ImportError, AttributeError):  # pragma: no cover - scipy drift
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

    c = np.ascontiguousarray(cost, dtype=np.float64)
    n = c.shape[0]
    rhs = np.ascontiguousarray(b_ub, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        lhs = -np.ones_like(rhs) * np.inf
    lb = np.zeros(n)
    ub = np.ones(n)
    A = csc_array(a_ub)

    rhs = highs.replace_inf(rhs)
    lhs = highs.replace_inf(lhs)
    lb = highs.replace_inf(lb)
    ub = highs.replace_inf(ub)
    integrality = np.empty(0).astype(np.uint8)

    res = highs.wrapper(c, A.indptr, A.indices, A.data, lhs, rhs,
                        lb, ub, integrality, dict(highs.options))

    x = res["x"]
    fun = res.get("fun")
    slack = None
    if "slack" in res:
        slack = np.array(res["slack"])
    status, message = highs.to_scipy_status(res.get("status", None),
                                            res.get("message", None))
    # Same post-check linprog applies (bounds here is the (n, 2) array
    # _clean_inputs derives from ``(0.0, 1.0)``; equality residuals are
    # an empty vector since the model has no A_eq rows).
    bounds = np.broadcast_to([0.0, 1.0], (n, 2))
    con = np.empty(0) if x is not None else None
    status, message = highs.check_result(x, fun, status, slack, con,
                                         bounds, 1e-9, message, None)
    return OptimizeResult({
        "x": None if x is None else np.asarray(x, dtype=np.float64),
        "fun": fun,
        "slack": slack,
        "status": status,
        "message": message,
        "success": status == 0,
        "nit": res.get("simplex_nit", 0) or res.get("ipm_nit", 0),
    })

