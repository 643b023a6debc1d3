"""Determinism rules (DET0xx): seed discipline, clocks, iteration order.

Every oracle in this repository (runtime-vs-simulator equality, the
batch-vs-scalar event planes, the property suite's replayable case ids)
assumes that the same seed produces the same bits.  These rules flag the
source-level constructs that silently break that contract:

``DET001``  unseeded RNG construction — ``random.Random()`` or
            ``np.random.default_rng()`` with no arguments draws entropy
            from the OS.
``DET002``  module-level RNG convenience calls — ``random.random()``,
            ``np.random.rand()`` etc. mutate hidden global state shared
            across the whole process (and across threads).
``DET003``  wall-clock reads — ``time.time()`` / ``datetime.now()`` in
            result-bearing code make outputs depend on when they ran.
``DET004``  set iteration feeding ordering-sensitive sinks — ``set``
            order is salted per process; materializing or accumulating
            it unsorted bakes that salt into results.
``DET005``  float equality in invariant code — ``x == 0.3`` moves with
            rounding; invariant checks must use exact sentinels or
            explicit tolerances.
"""

from __future__ import annotations

import ast

from .model import Rule, SourceModule, Violation, dotted_name, import_aliases

__all__ = ["UnseededRngRule", "GlobalRngRule", "WallClockRule",
           "SetOrderRule", "FloatEqualityRule", "DETERMINISM_PACKAGES"]

#: Result-bearing packages held to seed-for-seed determinism.  ``perf``,
#: ``bench`` and ``serve`` are excluded on purpose: profiling and live
#: latency measurement are wall-clock by nature.
DETERMINISM_PACKAGES = frozenset({
    "core", "flow", "geometry", "workloads", "verify",
    "pubsub", "network", "dynamic", "metrics", "runtime",
})

#: Constructors that must receive an explicit seed (or spawned generator).
_RNG_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",   # Generator(BitGenerator()) seeds implicitly
}

#: Module-level convenience functions backed by hidden global RNG state.
_GLOBAL_RNG_CALLS = {
    f"random.{name}" for name in (
        "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
        "choice", "choices", "sample", "shuffle", "seed", "betavariate",
        "expovariate", "getrandbits", "triangular", "vonmisesvariate",
    )
} | {
    f"numpy.random.{name}" for name in (
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "uniform", "normal", "standard_normal", "choice",
        "shuffle", "permutation", "seed", "exponential", "poisson",
        "binomial", "beta", "gamma", "integers",
    )
}

#: Clock reads that tie results to the moment of execution.  Monotonic
#: timers (``perf_counter`` etc.) are deliberately absent: they only ever
#: feed timing telemetry, never result payloads, in this codebase.
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


class UnseededRngRule(Rule):
    rule_id = "DET001"
    title = "unseeded-rng"
    rationale = ("RNG constructed without an explicit seed draws OS entropy; "
                 "every generator must derive from a caller-provided seed")
    packages = DETERMINISM_PACKAGES

    def check(self, module: SourceModule) -> list[Violation]:
        aliases = import_aliases(module.tree)
        found = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in _RNG_CONSTRUCTORS and not node.args and not node.keywords:
                found.append(self.violation(
                    module, node,
                    f"{name}() constructed without a seed; pass an explicit "
                    f"seed (or a spawned child generator)"))
        return found


class GlobalRngRule(Rule):
    rule_id = "DET002"
    title = "global-rng"
    rationale = ("module-level random.* / np.random.* calls share hidden "
                 "process-global state; use a passed-in Generator instead")
    packages = DETERMINISM_PACKAGES

    def check(self, module: SourceModule) -> list[Violation]:
        aliases = import_aliases(module.tree)
        found = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in _GLOBAL_RNG_CALLS:
                found.append(self.violation(
                    module, node,
                    f"{name}() uses the process-global RNG; thread a seeded "
                    f"np.random.Generator through instead"))
        return found


class WallClockRule(Rule):
    rule_id = "DET003"
    title = "wall-clock"
    rationale = ("wall-clock reads in result-bearing code make outputs "
                 "depend on execution time; clocks belong in telemetry "
                 "and provenance layers only")
    packages = DETERMINISM_PACKAGES

    def check(self, module: SourceModule) -> list[Violation]:
        aliases = import_aliases(module.tree)
        found = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in _WALL_CLOCK_CALLS:
                found.append(self.violation(
                    module, node,
                    f"{name}() read in result-bearing code; results must "
                    f"not depend on when they were computed"))
        return found


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Is this expression statically known to produce a ``set``?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    return False


#: Calls that materialize their iterable in iteration order.
_ORDER_SINK_CALLS = {"list", "tuple", "enumerate"}

#: Calls that consume iteration order but produce order-free results.
_ORDER_FREE_CALLS = {"sorted", "len", "sum", "min", "max", "any", "all",
                     "set", "frozenset"}


class SetOrderRule(Rule):
    rule_id = "DET004"
    title = "set-iteration-order"
    rationale = ("set iteration order is hash-salted per process; feeding "
                 "it unsorted into ordering-sensitive sinks bakes the salt "
                 "into results — wrap in sorted() first")
    packages = DETERMINISM_PACKAGES

    def check(self, module: SourceModule) -> list[Violation]:
        found: list[Violation] = []
        for scope in self._scopes(module.tree):
            found.extend(self._check_scope(module, scope))
        return found

    @staticmethod
    def _scopes(tree: ast.Module) -> list[ast.AST]:
        scopes: list[ast.AST] = [tree]
        scopes.extend(node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)))
        return scopes

    def _check_scope(self, module: SourceModule,
                     scope: ast.AST) -> list[Violation]:
        # Names bound to set-typed expressions anywhere in this scope
        # (ignoring nested function bodies, which form their own scope).
        set_names: set[str] = set()
        for node in self._walk_shallow(scope):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and node.value is not None \
                    and _is_set_expr(node.value, set_names):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)

        found = []
        for node in self._walk_shallow(scope):
            if isinstance(node, ast.For) \
                    and _is_set_expr(node.iter, set_names) \
                    and self._body_is_order_sensitive(node):
                found.append(self.violation(
                    module, node.iter,
                    "iterating a set in an order-sensitive loop; iterate "
                    "sorted(...) for a stable order"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                fn = node.func.id
                if fn in _ORDER_SINK_CALLS and node.args \
                        and _is_set_expr(node.args[0], set_names):
                    found.append(self.violation(
                        module, node,
                        f"{fn}() materializes a set in hash order; use "
                        f"sorted(...) for a stable order"))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter, set_names) \
                            and not self._inside_order_free_call(scope, node):
                        found.append(self.violation(
                            module, gen.iter,
                            "comprehension iterates a set in hash order; "
                            "iterate sorted(...) for a stable order"))
        return found

    @staticmethod
    def _walk_shallow(scope: ast.AST) -> list[ast.AST]:
        """Walk a scope without entering nested function scopes.

        Nested ``def``s are separate scopes analyzed on their own pass;
        descending into them here would double-count their findings.
        """
        body = scope.body if hasattr(scope, "body") else []
        out: list[ast.AST] = []
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return out

    @staticmethod
    def _body_is_order_sensitive(loop: ast.For) -> bool:
        """Does the loop body accumulate into an ordered container?"""
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("append", "extend", "insert",
                                           "put_nowait", "write"):
                return True
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        return True
        return False

    @staticmethod
    def _inside_order_free_call(scope: ast.AST, comp: ast.AST) -> bool:
        """Is the comprehension the direct argument of sorted()/sum()/...?"""
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in _ORDER_FREE_CALLS \
                    and any(arg is comp for arg in node.args):
                return True
        return False


class FloatEqualityRule(Rule):
    rule_id = "DET005"
    title = "float-equality"
    rationale = ("invariant checks comparing floats with == / != move with "
                 "rounding; use explicit tolerances (exact-zero and inf "
                 "sentinels are exempt)")
    # Invariant code only: the verifier and the core validator.
    packages = frozenset({"verify", "core"})

    #: Exactly representable sentinels routinely compared by identity.
    _EXEMPT = (0.0, 1.0, -1.0, float("inf"), float("-inf"))

    def check(self, module: SourceModule) -> list[Violation]:
        found = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in (node.left, *node.comparators):
                if isinstance(operand, ast.Constant) \
                        and isinstance(operand.value, float) \
                        and operand.value not in self._EXEMPT:
                    found.append(self.violation(
                        module, node,
                        f"float equality against {operand.value!r}; compare "
                        f"with an explicit tolerance instead"))
                    break
        return found
