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
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import OptimizeResult, linprog
from scipy.sparse import csc_array

__all__ = ["solve_bounded_lp", "FAST_PATH_AVAILABLE"]

try:  # scipy >= 1.15 layout; fall back to public linprog otherwise
    from scipy.optimize import _linprog_highs as _lh
    from scipy.optimize._linprog_util import _check_result

    _highs_wrapper = _lh._highs_wrapper
    _replace_inf = _lh._replace_inf
    _to_scipy_status = _lh._highs_to_scipy_status_message
    _HighsModelStatus = _lh.HighsModelStatus
    # Same effective options dict ``_linprog_highs`` builds for
    # ``method="highs"`` with default solver options (None values are
    # skipped by the wrapper, as are 'sense' and 'solver'=None).
    _OPTIONS = {
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
    FAST_PATH_AVAILABLE = True
except (ImportError, AttributeError):  # pragma: no cover - scipy drift
    FAST_PATH_AVAILABLE = False

def solve_bounded_lp(cost: np.ndarray, a_ub, b_ub: np.ndarray) -> OptimizeResult:
    """``linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")``.

    ``a_ub`` must be a scipy sparse matrix; ``cost`` and ``b_ub`` dense
    float vectors.  Returns an :class:`OptimizeResult` exposing the
    fields LPRelax reads (``success``, ``status``, ``message``, ``x``,
    ``fun``).
    """
    if not FAST_PATH_AVAILABLE:  # pragma: no cover - scipy drift
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

    rhs = _replace_inf(rhs)
    lhs = _replace_inf(lhs)
    lb = _replace_inf(lb)
    ub = _replace_inf(ub)
    integrality = np.empty(0).astype(np.uint8)

    res = _highs_wrapper(c, A.indptr, A.indices, A.data, lhs, rhs,
                         lb, ub, integrality, dict(_OPTIONS))

    x = res["x"]
    fun = res.get("fun")
    slack = None
    if "slack" in res:
        slack = np.array(res["slack"])
    status, message = _to_scipy_status(res.get("status", None),
                                       res.get("message", None))
    # Same post-check linprog applies (bounds here is the (n, 2) array
    # _clean_inputs derives from ``(0.0, 1.0)``; equality residuals are
    # an empty vector since the model has no A_eq rows).
    bounds = np.broadcast_to([0.0, 1.0], (n, 2))
    con = np.empty(0) if x is not None else None
    status, message = _check_result(x, fun, status, slack, con,
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

