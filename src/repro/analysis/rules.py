"""The determinism rule catalog (DET001–DET006).

Each rule statically enforces one clause of the byte-determinism
contract (§1's "standardized, automated, and re-producible") that this
reproduction's golden corpus rests on (docs/determinism.md has the full
catalog with fix guidance):

========  ==================  ===============================================
DET001    wall-clock          direct ``time.*``/``datetime.now`` reads —
                              route through ``repro.common.clock.perf_seconds``
DET002    salted-hash         builtin ``hash()`` outside ``__hash__`` — use
                              ``repro.common.fingerprint`` digests
DET003    unstable-iteration  set iteration, or unsorted dict views, in
                              serialization-tier modules
DET004    unseeded-rng        bare ``random.*`` / ``np.random.*`` calls —
                              derive streams via ``repro.common.rng``
DET005    repr-seed           ``repr()``/f-string of a set flowing into
                              hashlib/seed derivation (the PR-1 bug shape)
DET006    wall-leak           wall-time-ish attr keys on tracer entries
                              outside the segregated ``"wall"`` axis
========  ==================  ===============================================

Rules are visitor fragments: each declares the AST node types it wants
and inspects one node at a time against a :class:`ModuleContext` the
engine prepared (parent links, resolved imports, local set-assignment
tracking). They report through ``ctx.report`` and never mutate anything,
so a single shared walk serves every active rule.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Shared AST helpers


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` attribute chain → ``["a", "b", "c"]`` (None if not one)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Map locally bound names to the dotted origin they refer to.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from time import perf_counter`` → ``{"perf_counter": "time.perf_counter"}``.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imports[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{node.module}.{alias.name}"
    return imports


def resolve_target(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a call target through the module's import bindings."""
    parts = dotted_parts(node)
    if not parts:
        return None
    root = imports.get(parts[0], parts[0])
    return ".".join([root] + parts[1:])


_SET_ANNOTATION_NAMES = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
})


def _is_set_annotation(annotation) -> bool:
    """Does this annotation syntactically name a set type (``set``,
    ``Set[str]``, ``typing.FrozenSet[int]``, ``"frozenset"``)?"""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _SET_ANNOTATION_NAMES
    if isinstance(annotation, ast.Name):
        return annotation.id in _SET_ANNOTATION_NAMES
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split("[")[0].strip() in _SET_ANNOTATION_NAMES
    return False


def is_setish(node: ast.AST, ctx: "ModuleContext") -> bool:
    """Is ``node`` syntactically a set/frozenset value (or a local name
    assigned one in the enclosing scope)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return ctx.is_set_name(node)
    return False


class ModuleContext:
    """Everything a rule may ask about the module under analysis."""

    def __init__(self, path: str, tree: ast.Module, source: str):
        self.path = path
        self.tree = tree
        self.lines = source.splitlines()
        self.imports = collect_imports(tree)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self._set_names = self._collect_set_assignments(tree)
        self.findings: List[tuple] = []

    # -- structure -----------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    # -- local set-assignment tracking (DET005) ------------------------

    def _collect_set_assignments(self, tree: ast.Module) -> set:
        """(scope node, name) pairs known to hold a set/frozenset value.

        Tracks simple single-target assignments of set literals or
        ``set()``/``frozenset()`` calls, plus parameters and variables
        *annotated* as sets — enough to catch the realistic bug shapes
        without real type inference.
        """
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                direct = value is not None and (
                    isinstance(value, (ast.Set, ast.SetComp))
                    or (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id in ("set", "frozenset"))
                )
                annotated = (isinstance(node, ast.AnnAssign)
                             and _is_set_annotation(node.annotation))
                if not (direct or annotated):
                    continue
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Name):
                        scope = self.enclosing_function(node)
                        names.add((scope, target.id))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                    if _is_set_annotation(arg.annotation):
                        names.add((node, arg.arg))
        return names

    def is_set_name(self, node: ast.Name) -> bool:
        scope = self.enclosing_function(node)
        return (scope, node.id) in self._set_names or (None, node.id) in self._set_names

    # -- reporting -----------------------------------------------------

    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        self.findings.append((rule_id, line, col, message, snippet))


# ---------------------------------------------------------------------------
# Rule framework


class Rule:
    """Base class: subclasses register themselves in :data:`REGISTRY`."""

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    #: AST node classes this rule wants to see.
    node_types: Tuple[type, ...] = ()

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        raise NotImplementedError


REGISTRY: Dict[str, Rule] = {}


def register(cls):
    REGISTRY[cls.rule_id] = cls()
    return cls


def all_rules() -> List[Rule]:
    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


# ---------------------------------------------------------------------------
# DET001 — wall-clock


#: Wall-clock *reads*: values that differ run to run and would poison any
#: derived result. (``time.sleep`` is pacing, not a read, and is judged
#: by what its caller does with real time, not by the call itself.)
_WALL_READS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@register
class WallClockRule(Rule):
    rule_id = "DET001"
    name = "wall-clock"
    summary = ("direct wall-clock read; route through "
               "repro.common.clock.perf_seconds (or a Clock)")
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        target = resolve_target(node.func, ctx.imports)
        if target in _WALL_READS:
            ctx.report(
                self.rule_id, node,
                f"direct wall-clock read {target}(); measurement time must "
                "come from repro.common.clock.perf_seconds (swappable in "
                "tests) and simulation time from a Clock",
            )


# ---------------------------------------------------------------------------
# DET002 — salted-hash


@register
class SaltedHashRule(Rule):
    rule_id = "DET002"
    name = "salted-hash"
    summary = ("builtin hash() outside __hash__; use "
               "repro.common.fingerprint.stable_digest for anything "
               "persisted or cross-process")
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "hash"):
            return
        for ancestor in ctx.ancestors(node):
            if (isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and ancestor.name == "__hash__"):
                # In-process dict/set identity is hash()'s legitimate job;
                # the contract only breaks when the value escapes the
                # process (cache keys, seeds, persisted state).
                return
        ctx.report(
            self.rule_id, node,
            "builtin hash() is salted per process (PYTHONHASHSEED); its "
            "value must never reach seeds, cache keys or persisted state — "
            "use repro.common.fingerprint.stable_digest instead",
        )


# ---------------------------------------------------------------------------
# DET003 — unstable-iteration (serialization tier only, per policy)


#: Order-insensitive consumers: feeding an unordered view into these
#: cannot leak iteration order into output. ``sum`` is included for dict
#: views (int counters dominate); summing floats *from a set* is still
#: flagged because set order is hash-salted to begin with.
_ORDER_SAFE_CALLS = frozenset({
    "sorted", "len", "min", "max", "any", "all", "set", "frozenset", "sum",
    "dict",
})

_DICT_VIEWS = ("items", "keys", "values")


def _comprehension_for_iter(node: ast.AST, ctx: ModuleContext) -> Optional[ast.AST]:
    """If ``node`` is some comprehension's iterable, return the
    comprehension *expression* node that consumes it."""
    parent = ctx.parent(node)
    if isinstance(parent, ast.comprehension) and parent.iter is node:
        comp = ctx.parent(parent)
        return comp
    return None


@register
class UnstableIterationRule(Rule):
    rule_id = "DET003"
    name = "unstable-iteration"
    summary = ("iteration over a set, or an unsorted dict view, in a "
               "serialization-tier module; wrap in sorted(...)")
    node_types = (ast.Call, ast.Set, ast.SetComp, ast.Name)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        described = self._describe(node, ctx)
        if described is None:
            return
        # A set-typed *name* is only flagged where it is directly
        # iterated; passing it on to another function is not iteration
        # (the callee's own tier policy judges what happens there).
        name_only = isinstance(node, ast.Name)
        if self._ordered_consumption(node, ctx, iteration_only=name_only):
            return
        ctx.report(
            self.rule_id, node,
            f"iterating {described} here can leak unstable ordering into "
            "serialized bytes; wrap it in sorted(...) (or consume it "
            "order-insensitively)",
        )

    def _describe(self, node: ast.AST, ctx: ModuleContext) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Name):
            if ctx.is_set_name(node):
                return f"the set-typed name {node.id!r}"
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a {func.id}"
            if (isinstance(func, ast.Attribute) and func.attr in _DICT_VIEWS
                    and not node.args and not node.keywords):
                return f"an unsorted .{func.attr}() view"
        return None

    def _ordered_consumption(self, node: ast.AST, ctx: ModuleContext,
                             iteration_only: bool = False) -> bool:
        """True unless ``node`` is *iterated* in an order-sensitive spot."""
        parent = ctx.parent(node)
        if parent is None:
            return True
        if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
            return False
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            # A comprehension definitely iterates — and freezes the input
            # order into an ordered container — unless the comprehension
            # itself feeds straight into an order-insensitive consumer
            # (``sorted(f(x) for x in d.items())``).
            comp = _comprehension_for_iter(node, ctx)
            grandparent = ctx.parent(comp) if comp is not None else None
            if (isinstance(grandparent, ast.Call) and comp in grandparent.args):
                target = resolve_target(grandparent.func, ctx.imports)
                return target in _ORDER_SAFE_CALLS
            return False
        if isinstance(parent, ast.Starred):
            return False
        if (not iteration_only and isinstance(parent, ast.Call)
                and node in parent.args):
            target = resolve_target(parent.func, ctx.imports)
            return target in _ORDER_SAFE_CALLS
        # Membership tests, set algebra, assignments of the view object,
        # returns, subscripts, bool contexts … are not iteration; deeper
        # flow tracking is out of scope.
        return True


# ---------------------------------------------------------------------------
# DET004 — unseeded-rng


@register
class UnseededRngRule(Rule):
    rule_id = "DET004"
    name = "unseeded-rng"
    summary = ("module-level random.* / np.random.* call; derive a "
               "Generator via repro.common.rng.derive_rng")
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        target = resolve_target(node.func, ctx.imports)
        if target is None:
            return
        if target == "random" or target.startswith("random."):
            source = "the process-global random module"
        elif target.startswith(("numpy.random.", "np.random.")):
            source = "the numpy global RNG namespace"
        else:
            return
        ctx.report(
            self.rule_id, node,
            f"{target}() draws from {source}, whose state is invisible to "
            "the seed-derivation tree; use repro.common.rng.derive_rng("
            "root_seed, *purpose) so the stream is a pure function of the "
            "run configuration",
        )


# ---------------------------------------------------------------------------
# DET005 — repr-seed (the PR-1 SetPredicate bug shape)


_HASHLIB_SINKS = frozenset({
    "hashlib.md5", "hashlib.sha1", "hashlib.sha224", "hashlib.sha256",
    "hashlib.sha384", "hashlib.sha512", "hashlib.blake2b",
    "hashlib.blake2s", "hashlib.new",
})

_DERIVE_SINKS = ("derive_seed", "derive_rng", "derive_session_seed")

_STRINGIFIERS = ("repr", "str", "format", "ascii")


@register
class ReprSeedRule(Rule):
    rule_id = "DET005"
    name = "repr-seed"
    summary = ("repr()/str()/f-string of a set flowing into hashlib or "
               "seed derivation; sort the set first (PR-1 bug shape)")
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        sink = self._sink_kind(node, ctx)
        if sink is None:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for bad in self._unstable_strings(arg, ctx, direct_ok=(sink == "derive")):
                ctx.report(
                    self.rule_id, bad,
                    "a set/frozenset is stringified on its way into "
                    f"{'seed derivation' if sink == 'derive' else 'a digest'}; "
                    "its repr enumerates in hash order, so the derived value "
                    "changes with PYTHONHASHSEED — the exact bug that "
                    "corrupted engine-rotation seeds in PR 1. Stringify "
                    "sorted(values) instead",
                )

    def _sink_kind(self, node: ast.Call, ctx: ModuleContext) -> Optional[str]:
        target = resolve_target(node.func, ctx.imports)
        if target in _HASHLIB_SINKS:
            return "hashlib"
        if target is not None and target.split(".")[-1] in _DERIVE_SINKS:
            return "derive"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "update":
            # hasher.update(...) — only meaningful when an unstable string
            # actually appears inside, so the noise floor stays at zero.
            return "hashlib"
        return None

    def _unstable_strings(self, arg: ast.AST, ctx: ModuleContext,
                          direct_ok: bool) -> Iterable[ast.AST]:
        """Yield nodes inside ``arg`` that stringify a set-ish value."""
        if direct_ok and is_setish(arg, ctx):
            # derive_* stringifies its purpose parts itself, so passing
            # the set directly is the same bug without the f-string.
            yield arg
        for sub in ast.walk(arg):
            if isinstance(sub, ast.FormattedValue) and is_setish(sub.value, ctx):
                yield sub.value
            elif (isinstance(sub, ast.Call)
                  and isinstance(sub.func, ast.Name)
                  and sub.func.id in _STRINGIFIERS
                  and sub.args and is_setish(sub.args[0], ctx)):
                yield sub


# ---------------------------------------------------------------------------
# DET006 — wall-leak


#: Attribute keys that smell like wall-clock measurements. Virtual-time
#: names (vt, think_time, deadline…) deliberately do not match.
_WALLISH_KEY = re.compile(
    r"wall|elapsed|perf|monotonic|epoch|timestamp|clock|(^|_)ts($|_)",
    re.IGNORECASE,
)

_TRACE_METHODS = ("event", "span")


@register
class WallLeakRule(Rule):
    rule_id = "DET006"
    name = "wall-leak"
    summary = ("wall-time-ish attr key on a tracer entry; wall "
               "measurements belong under the segregated 'wall' axis")
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr in _TRACE_METHODS:
            for kw in node.keywords:
                if kw.arg and kw.arg != "session" and _WALLISH_KEY.search(kw.arg):
                    ctx.report(
                        self.rule_id, kw.value,
                        f"trace attr {kw.arg!r} looks like a wall-clock "
                        "measurement; attrs are golden-pinned virtual-axis "
                        "data — wall readings must nest under the reserved "
                        "'wall' key (docs/observability.md two-axis "
                        "contract)",
                    )
        elif node.func.attr == "set" and node.args:
            key = node.args[0]
            if (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and _WALLISH_KEY.search(key.value)):
                ctx.report(
                    self.rule_id, node,
                    f"span attr {key.value!r} looks like a wall-clock "
                    "measurement; SpanHandle.set() lands in the virtual "
                    "axis — wall readings belong under the 'wall' key",
                )
