"""DES-specific AST lint rules.

Four rule families guard the properties the reproduction's golden-number
argument rests on (see DESIGN.md, "DES sanitizer"):

* **DET001 — nondeterminism hazards.**  The simulator must produce
  bit-identical traces run to run; anything that injects wall-clock time,
  an unseeded random stream, CPython object identity, or hash-seeded
  iteration order into model code can silently break that.
* **UNIT001 — unit safety.**  The clock is nanoseconds and bandwidths are
  bytes/ns (== GB/s); raw numeric literals fed to ``timeout``/``bandwidth``/
  ``latency``/``rate`` parameters hide which unit the author meant.  The
  :mod:`repro.units` helpers (``ns``, ``us``, ``GBps``, ``Gbps``, ...) make
  the unit part of the call site, and make bytes-vs-bits mistakes visible.
* **SIM001 — hot-path hazards.**  ``assert`` statements vanish under
  ``python -O`` so load-bearing invariants must be explicit ``raise``\\ s of
  typed errors; broad ``except Exception`` handlers can swallow structured
  failures like :class:`~repro.faults.LinkFailure` unless they re-raise.
* **RETRY001 — retry hazards.**  A retry loop that sleeps the *same*
  delay every attempt hammers whatever it is retrying against; the
  recovery layer's own loops (:mod:`repro.faults`, :mod:`repro.recovery`)
  back off exponentially, and this rule keeps it that way.

A finding is suppressed by a ``# repro: noqa`` comment on the reported
line, optionally scoped to rules: ``# repro: noqa-SIM001`` or
``# repro: noqa-DET001,UNIT001``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = ["Finding", "RULES", "collect_findings"]

#: rule id -> one-line description (the CLI's --explain output).
RULES = {
    "DET001": (
        "nondeterminism hazard: wall-clock time, unseeded module-level RNG, "
        "id()-keyed ordering, or iteration over an unordered set"
    ),
    "UNIT001": (
        "unit-safety hazard: raw numeric literal passed to a delay/bandwidth "
        "parameter; use the repro.units helpers (ns/us/GBps/Gbps/...)"
    ),
    "SIM001": (
        "hot-path hazard: load-bearing assert (stripped under python -O) or "
        "broad except that can swallow LinkFailure without re-raising"
    ),
    "RETRY001": (
        "retry hazard: retry/attempt loop sleeps a constant delay every "
        "iteration; back the delay off per attempt (e.g. base * factor ** n) "
        "so repeated failures do not hammer a congested resource"
    ),
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``path:line:col: rule message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        """The canonical single-line diagnostic format."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"


# ---------------------------------------------------------------------------
# DET001 tables
# ---------------------------------------------------------------------------

#: Dotted call targets that read the wall clock.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: numpy.random attributes that are fine to *construct* (explicitly seeded
#: generators); everything else on the module is the hidden global stream.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}

#: random-module attributes that construct an independent stream.
_PY_RANDOM_OK = {"Random"}


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a Name/Attribute chain, else ''."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_nonzero_number(node: ast.AST) -> bool:
    """True for a bare numeric literal other than 0 (0 is unit-free)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return not isinstance(node.value, bool) and node.value != 0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_nonzero_number(node.operand)
    return False


def _contains_id_call(node: ast.AST) -> bool:
    """True if the expression calls the builtin ``id``."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return True
    return False


def _is_set_expr(node: ast.AST) -> bool:
    """True for a set display or a direct set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _has_bare_raise(body: list[ast.stmt]) -> bool:
    """True if the handler body re-raises (a bare ``raise`` at any depth)."""
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Raise) and sub.exc is None:
                return True
    return False


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor producing findings for every rule family."""

    def __init__(self, path: str):
        self.path = path
        self.findings: list[Finding] = []
        # (line, col) already reported for RETRY001 — nested loops walk
        # overlapping subtrees and must not report the same delay twice.
        self._retry_seen: set[tuple[int, int]] = set()

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, node.lineno, node.col_offset, rule, message)
        )

    # -- DET001 -------------------------------------------------------------

    def _check_call_det(self, node: ast.Call) -> None:
        full = _dotted(node.func)
        if full in _WALL_CLOCK:
            self._emit(
                node,
                "DET001",
                f"{full}() reads the wall clock; simulation state must derive "
                "only from sim.now and seeded inputs",
            )
            return
        parts = full.split(".")
        if len(parts) >= 2 and parts[0] in ("np", "numpy") and parts[1] == "random":
            fn = parts[2] if len(parts) > 2 else ""
            if fn == "default_rng" and not node.args and not node.keywords:
                self._emit(
                    node,
                    "DET001",
                    "np.random.default_rng() without a seed is nondeterministic; "
                    "pass an explicit seed",
                )
            elif fn and fn not in _NP_RANDOM_OK:
                self._emit(
                    node,
                    "DET001",
                    f"{full}() uses numpy's hidden global RNG stream; build a "
                    "seeded np.random.default_rng(seed) instead",
                )
        elif len(parts) == 2 and parts[0] == "random":
            if parts[1] not in _PY_RANDOM_OK:
                self._emit(
                    node,
                    "DET001",
                    f"{full}() uses the module-level random stream; build a "
                    "seeded random.Random(seed) instead",
                )

    def _check_call_id_key(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg != "key" or kw.value is None:
                continue
            if (isinstance(kw.value, ast.Name) and kw.value.id == "id") or (
                isinstance(kw.value, ast.Lambda) and _contains_id_call(kw.value.body)
            ):
                self._emit(
                    node,
                    "DET001",
                    "ordering by id() depends on allocator addresses and varies "
                    "run to run; key on a stable field instead",
                )

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and isinstance(key, ast.Call) and _contains_id_call(key):
                self._emit(
                    key,
                    "DET001",
                    "id()-keyed mapping: key on the object itself (identity "
                    "hash, stable within a run) or a stable field",
                )
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if isinstance(node.key, ast.Call) and _contains_id_call(node.key):
            self._emit(
                node.key,
                "DET001",
                "id()-keyed mapping: key on the object itself (identity hash, "
                "stable within a run) or a stable field",
            )
        self.generic_visit(node)

    def _check_set_iteration(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self._emit(
                iter_node,
                "DET001",
                "iterating an unordered set: order varies with PYTHONHASHSEED "
                "and can feed the event heap; iterate a sorted() or list view",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self._check_retry_loop(node)
        self.generic_visit(node)

    def _visit_comprehensions(self, node) -> None:
        for comp in node.generators:
            self._check_set_iteration(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehensions
    visit_SetComp = _visit_comprehensions
    visit_GeneratorExp = _visit_comprehensions

    # -- UNIT001 ------------------------------------------------------------

    _UNIT_KWARGS = ("bandwidth", "latency", "rate")
    _PIPE_CTORS = ("Channel",)

    def _check_call_units(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg in self._UNIT_KWARGS and _is_nonzero_number(kw.value):
                self._emit(
                    kw.value,
                    "UNIT001",
                    f"raw literal for {kw.arg}=; state the unit with a "
                    "repro.units helper (GBps/Gbps/MBps for rates, ns/us for "
                    "latencies)",
                )
        func_tail = _dotted(node.func).rsplit(".", 1)[-1]
        if func_tail in self._PIPE_CTORS:
            for arg in node.args[1:]:
                if _is_nonzero_number(arg):
                    self._emit(
                        arg,
                        "UNIT001",
                        f"raw positional literal in {func_tail}(); state the "
                        "unit with a repro.units helper",
                    )
        if func_tail in ("timeout", "Timeout"):
            pos = node.args[1:] if func_tail == "Timeout" else node.args[:1]
            for arg in pos[:1]:
                if _is_nonzero_number(arg):
                    self._emit(
                        arg,
                        "UNIT001",
                        "raw literal delay; the clock is nanoseconds — write "
                        "ns(x)/us(x) so the unit is visible",
                    )

    # -- RETRY001 -----------------------------------------------------------

    _SLEEP_TAILS = ("timeout", "sleep")
    #: unit helpers whose result is as constant as their arguments.
    _UNIT_HELPERS = ("ns", "us", "ms", "s")

    def _loop_is_retryish(self, node) -> bool:
        """A loop that counts retries/attempts somewhere in header or body."""
        for sub in ast.walk(node):
            name = ""
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            lowered = name.lower()
            if "retry" in lowered or "retries" in lowered or "attempt" in lowered:
                return True
        return False

    def _delay_kind(self, arg: ast.AST) -> str:
        """'backoff' (computed per attempt), 'constant', or 'unknown'."""
        if any(isinstance(sub, ast.BinOp) for sub in ast.walk(arg)):
            return "backoff"
        if isinstance(arg, ast.Call):
            tail = _dotted(arg.func).rsplit(".", 1)[-1]
            if tail in self._UNIT_HELPERS:
                return "constant"
            return "unknown"  # some computation we cannot see through
        if _is_nonzero_number(arg) or isinstance(arg, (ast.Name, ast.Attribute)):
            return "constant"
        return "unknown"

    def _check_retry_loop(self, node) -> None:
        if not self._loop_is_retryish(node):
            return
        delays: list[tuple[ast.AST, str]] = []
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Call) and sub.args):
                continue
            if _dotted(sub.func).rsplit(".", 1)[-1] in self._SLEEP_TAILS:
                delays.append((sub.args[0], self._delay_kind(sub.args[0])))
        kinds = [kind for _a, kind in delays]
        if "backoff" in kinds:
            return  # some path backs off; give the loop the benefit of doubt
        for arg, kind in delays:
            if kind != "constant":
                continue
            where = (arg.lineno, arg.col_offset)
            if where in self._retry_seen:
                continue
            self._retry_seen.add(where)
            self._emit(
                arg,
                "RETRY001",
                "retry loop waits a constant delay every attempt; back it "
                "off per attempt (e.g. base * factor ** attempts) so "
                "repeated failures do not hammer the congested path",
            )

    def visit_While(self, node: ast.While) -> None:
        self._check_retry_loop(node)
        self.generic_visit(node)

    # -- SIM001 -------------------------------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        self._emit(
            node,
            "SIM001",
            "load-bearing assert is stripped under python -O; raise a typed "
            "error (SimulationError/DeadlockError/ExperimentError) instead",
        )
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or _dotted(node.type) in (
            "Exception",
            "BaseException",
        )
        if broad and not _has_bare_raise(node.body):
            what = "bare except" if node.type is None else f"except {_dotted(node.type)}"
            self._emit(
                node,
                "SIM001",
                f"{what} without re-raise can swallow LinkFailure/"
                "SimulationError; catch the specific types or re-raise",
            )
        self.generic_visit(node)

    # -- dispatch -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_call_det(node)
        self._check_call_id_key(node)
        self._check_call_units(node)
        self.generic_visit(node)


def collect_findings(tree: ast.AST, path: str) -> list[Finding]:
    """Run every rule over a parsed module; returns unsuppressed findings
    (suppression is applied by the caller, which owns the source text)."""
    visitor = _RuleVisitor(path)
    visitor.visit(tree)
    return visitor.findings
