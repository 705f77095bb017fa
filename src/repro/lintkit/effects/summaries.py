"""Pass 1 of the effect analysis: per-function effect summaries.

Each function (or method) in the analyzed tree is reduced to a
:class:`FunctionSummary`: the primitive *effects* its body performs
directly (environment/file/network/clock/process I/O, module-global
reads and writes, RNG-stream creation and aliasing, unordered numeric
accumulation) plus the *calls* it makes, split into statically resolved
dotted targets and bare method names for class-hierarchy resolution.

The summaries are purely local — no propagation happens here.  Pass 2
(:mod:`repro.lintkit.effects.propagate`) stitches them into a call graph
and walks reachability from the analysis roots.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..modgraph import (
    ModuleInfo,
    dotted,
    follow_exports,
    module_aliases,
    module_identity,
)

__all__ = [
    "Effect",
    "EffectProgram",
    "FunctionSummary",
    "summarize",
]

# -- primitive-effect tables -------------------------------------------------

#: Resolved dotted call target -> effect kind.  ``os.environ`` is handled
#: separately (it is an attribute *read*, not only a call).
_CALL_EFFECTS: dict[str, tuple[str, str]] = {
    "os.getenv": ("env-read", "os.getenv()"),
    "os.environ.get": ("env-read", "os.environ.get()"),
    "time.time": ("clock", "time.time()"),
    "time.time_ns": ("clock", "time.time_ns()"),
    "time.monotonic": ("clock", "time.monotonic()"),
    "time.monotonic_ns": ("clock", "time.monotonic_ns()"),
    "time.perf_counter": ("clock", "time.perf_counter()"),
    "time.perf_counter_ns": ("clock", "time.perf_counter_ns()"),
    "time.sleep": ("clock", "time.sleep()"),
    "datetime.datetime.now": ("clock", "datetime.now()"),
    "datetime.datetime.utcnow": ("clock", "datetime.utcnow()"),
    "datetime.datetime.today": ("clock", "datetime.today()"),
    "datetime.date.today": ("clock", "date.today()"),
    "numpy.load": ("file-read", "np.load()"),
    "numpy.loadtxt": ("file-read", "np.loadtxt()"),
    "numpy.genfromtxt": ("file-read", "np.genfromtxt()"),
    "numpy.fromfile": ("file-read", "np.fromfile()"),
    "numpy.save": ("file-write", "np.save()"),
    "numpy.savez": ("file-write", "np.savez()"),
    "numpy.savez_compressed": ("file-write", "np.savez_compressed()"),
    "numpy.savetxt": ("file-write", "np.savetxt()"),
    "os.remove": ("file-write", "os.remove()"),
    "os.unlink": ("file-write", "os.unlink()"),
    "os.rename": ("file-write", "os.rename()"),
    "os.replace": ("file-write", "os.replace()"),
    "os.makedirs": ("file-write", "os.makedirs()"),
    "os.mkdir": ("file-write", "os.mkdir()"),
    "os.rmdir": ("file-write", "os.rmdir()"),
    "os.system": ("process", "os.system()"),
    "os.popen": ("process", "os.popen()"),
    "print": ("stdout", "print()"),
    "input": ("stdout", "input()"),
    "sys.stdout.write": ("stdout", "sys.stdout.write()"),
    "sys.stderr.write": ("stdout", "sys.stderr.write()"),
}

#: Dotted-prefix matches (module families where any entry point is I/O).
_CALL_PREFIX_EFFECTS: tuple[tuple[str, str, str], ...] = (
    ("subprocess.", "process", "subprocess call"),
    ("shutil.", "file-write", "shutil call"),
    ("socket.", "network", "socket call"),
    ("urllib.", "network", "urllib call"),
    ("http.", "network", "http call"),
    ("requests.", "network", "requests call"),
)

#: Method names (unknown receiver) that are filesystem operations: the
#: pathlib.Path surface.  Ambiguous names (``replace`` is also a str
#: method) are deliberately excluded.
_FS_METHOD_EFFECTS: dict[str, str] = {
    "read_text": "file-read",
    "read_bytes": "file-read",
    "write_text": "file-write",
    "write_bytes": "file-write",
    "unlink": "file-write",
    "rmdir": "file-write",
    "touch": "file-write",
    "symlink_to": "file-write",
    "hardlink_to": "file-write",
}

#: Call targets whose return value is a fresh ``numpy.random.Generator``
#: (or a collection of them).
_RNG_CREATORS = frozenset(
    {
        "repro.rng.derive",
        "repro.rng.split",
        "numpy.random.default_rng",
    }
)

#: Method names that mint generators (``SeedSequenceFactory.generator``).
_RNG_CREATOR_METHODS = frozenset({"generator"})

#: Container-mutating method names: calling one on a module-level binding
#: is a write to shared module state.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "appendleft",
        "popleft",
        "sort",
        "reverse",
    }
)

#: Set-algebra method names whose result is unordered.
_UNORDERED_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)


@dataclass(frozen=True)
class Effect:
    """One primitive effect observed at one source location.

    ``kind`` is one of: ``env-read``, ``file-read``, ``file-write``,
    ``network``, ``clock``, ``process``, ``stdout``, ``global-read``,
    ``global-write``, ``rng-aliased``, ``unordered-acc``.  ``symbol``
    carries the fully-qualified global name for the global kinds.
    """

    kind: str
    detail: str
    line: int
    col: int
    symbol: str = ""


@dataclass
class FunctionSummary:
    """Local effects and outgoing calls of one function or method."""

    fq: str
    name: str
    path: str
    line: int
    #: Statically resolved dotted callee names (module functions, classes).
    calls_named: set[str] = field(default_factory=set)
    #: Unresolved ``obj.m(...)`` method names, for CHA resolution.
    calls_methods: set[str] = field(default_factory=set)
    effects: list[Effect] = field(default_factory=list)


@dataclass
class EffectProgram:
    """Whole-program tables produced by the summary pass."""

    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: method name -> fq of every in-tree method with that name.
    methods_by_name: dict[str, set[str]] = field(default_factory=dict)
    #: class fq -> method names (for constructor-call resolution).
    classes: dict[str, set[str]] = field(default_factory=dict)
    #: ``module.local`` -> canonical dotted target (import re-exports).
    exports: dict[str, str] = field(default_factory=dict)
    #: Module-level *data* bindings (assignments, not defs/classes).
    data_globals: set[str] = field(default_factory=set)

    def resolve(self, fq: str) -> str:
        """Follow import/re-export chains to a canonical defining name."""
        return follow_exports(fq, self.exports, self.functions, self.classes)


def summarize(modules: Sequence[ModuleInfo]) -> EffectProgram:
    """Run the summary pass over every module."""
    program = EffectProgram()
    for module in modules:
        _summarize_module(program, module)
    return program


def _summarize_module(program: EffectProgram, module: ModuleInfo) -> None:
    modname, is_package = module_identity(module.path)
    aliases = module_aliases(module.tree, modname, is_package)
    for local, target in aliases.items():
        program.exports[f"{modname}.{local}"] = target
    # Every name the module itself defines at top level: a bare call to
    # anything *not* in this set (and not imported) is a builtin.
    module_names: set[str] = set(aliases)
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for name in _assigned_names(stmt):
                program.data_globals.add(f"{modname}.{name}")
                module_names.add(name)
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            module_names.add(stmt.name)
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _summarize_function(
                program,
                module,
                stmt,
                f"{modname}.{stmt.name}",
                aliases,
                module_names,
            )
        elif isinstance(stmt, ast.ClassDef):
            class_fq = f"{modname}.{stmt.name}"
            methods = set()
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(sub.name)
                    fq = f"{class_fq}.{sub.name}"
                    _summarize_function(
                        program, module, sub, fq, aliases, module_names
                    )
                    program.methods_by_name.setdefault(sub.name, set()).add(fq)
            program.classes[class_fq] = methods


def _assigned_names(stmt: ast.stmt) -> list[str]:
    names: list[str] = []
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(el.id for el in target.elts if isinstance(el, ast.Name))
    return names


def _local_bindings(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every name bound inside the function (params, assignments, loops,
    ``with``/``except`` targets, comprehension variables, nested defs)."""
    bound: set[str] = set()
    args = node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)

    def collect_target(target: ast.AST) -> None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                bound.add(sub.id)

    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if isinstance(target, (ast.Name, ast.Tuple, ast.List, ast.Starred)):
                    collect_target(target)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            collect_target(sub.target)
        elif isinstance(sub, ast.comprehension):
            collect_target(sub.target)
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if item.optional_vars is not None:
                    collect_target(item.optional_vars)
        elif isinstance(sub, ast.ExceptHandler):
            if sub.name:
                bound.add(sub.name)
        elif isinstance(sub, ast.NamedExpr):
            collect_target(sub.target)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if sub is not node:
                bound.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(sub, ast.Global):
            # ``global X`` makes X a *module* binding, never a local.
            bound.difference_update(sub.names)
    return bound


class _FunctionVisitor(ast.NodeVisitor):
    """Collect one function's primitive effects and outgoing calls."""

    def __init__(
        self,
        program: EffectProgram,
        summary: FunctionSummary,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        modname: str,
        aliases: Mapping[str, str],
        module_names: set[str],
    ) -> None:
        self.program = program
        self.summary = summary
        self.modname = modname
        self.aliases = aliases
        self.module_names = module_names
        self.locals = _local_bindings(node)
        self.global_names: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                self.global_names.update(sub.names)
        self.loop_depth = 0
        #: rng local name -> loop depth at creation.
        self.rng_created: dict[str, int] = {}
        #: rng local name -> consumption weight accumulated so far.
        self.rng_consumed: dict[str, int] = {}
        #: rng locals the enclosing scope itself has drawn from.
        self.rng_drawn: set[str] = set()
        #: rng local names already reported (one finding per stream).
        self.rng_reported: set[str] = set()
        #: local name -> True when bound to an unordered (set-like) value.
        self.unordered_locals: set[str] = set()
        self._mark_generator_params(node)

    # -- helpers ------------------------------------------------------------

    def _mark_generator_params(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            ann = arg.annotation
            if ann is None:
                continue
            parts = dotted(ann)
            if parts and parts[-1] == "Generator":
                self.rng_created[arg.arg] = 0
                self.rng_consumed.setdefault(arg.arg, 0)

    def _effect(
        self, node: ast.AST, kind: str, detail: str, symbol: str = ""
    ) -> None:
        self.summary.effects.append(
            Effect(
                kind=kind,
                detail=detail,
                line=getattr(node, "lineno", self.summary.line),
                col=getattr(node, "col_offset", 0),
                symbol=symbol,
            )
        )

    def _resolve_dotted(self, node: ast.AST) -> str | None:
        """Canonical dotted name for an expression rooted at a non-local
        name, or None (rooted at a local variable / not a name chain)."""
        parts = dotted(node)
        if parts is None:
            return None
        if parts[0] in self.locals:
            return None
        head = self.aliases.get(parts[0])
        if head is None:
            head = f"{self.modname}.{parts[0]}"
        return ".".join([head] + parts[1:])

    def _is_module_global(self, fq: str | None) -> bool:
        if fq is None:
            return False
        return self.program.resolve(fq) in self.program.data_globals or (
            fq in self.program.data_globals
        )

    def _consume_rng(
        self, name: str, node: ast.AST, what: str, retained: bool = False
    ) -> None:
        """Record one consumer of the generator bound to ``name``.

        Weight 2 means "definitely a second consumer": the consumption
        happens in a wider loop than the stream was created in, or the
        stream is *retained* (closure capture / aliasing) by a scope
        that has already drawn from it.  A single plain hand-off stays
        at weight 1 — giving a stream away permanently is fine.
        """
        created_depth = self.rng_created.get(name)
        if created_depth is None:
            return
        weight = 1
        if self.loop_depth > created_depth:
            weight = 2
        elif retained and name in self.rng_drawn:
            weight = 2
        self.rng_consumed[name] = self.rng_consumed.get(name, 0) + weight
        if self.rng_consumed[name] >= 2 and name not in self.rng_reported:
            self.rng_reported.add(name)
            self._effect(
                node,
                "rng-aliased",
                f"generator {name!r} is consumed by more than one party "
                f"({what} makes a second consumer advance the same stream); "
                f"split the stream with repro.rng.split, or derive a fresh "
                f"role stream per consumer",
            )

    def _is_rng_create(self, call: ast.Call) -> bool:
        fq = self._resolve_dotted(call.func)
        if fq is not None and fq in _RNG_CREATORS:
            return True
        if fq is not None and fq.rsplit(".", 1)[-1] in ("derive", "split"):
            # ``from repro.rng import derive`` resolves fully; a re-export
            # chain ending elsewhere is not a creator.
            return fq.rsplit(".", 1)[0].endswith("rng")
        if isinstance(call.func, ast.Attribute):
            return call.func.attr in _RNG_CREATOR_METHODS
        return False

    def _is_unordered_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.Call):
            parts = dotted(node.func)
            if parts and parts[0] not in self.locals and parts[-1] in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _UNORDERED_METHODS
            ):
                return True
        if isinstance(node, ast.Name) and node.id in self.unordered_locals:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            # set algebra via operators: both sides set-like.
            return self._is_unordered_expr(node.left) or self._is_unordered_expr(
                node.right
            )
        return False

    # -- statements ---------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested_def(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_closure_body(node, node.body)

    def _visit_nested_def(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._visit_closure_body(node, *node.body)

    def _visit_closure_body(self, closure: ast.AST, *body: ast.AST) -> None:
        """A nested function capturing an RNG local is a consumer of it."""
        captured: set[str] = set()
        for part in body:
            for sub in ast.walk(part):
                if isinstance(sub, ast.Name) and sub.id in self.rng_created:
                    captured.add(sub.id)
        for name in sorted(captured):
            self._consume_rng(
                name, closure, "the closure defined here", retained=True
            )
        # Do not descend: the closure body runs in its own scope; its
        # effects surface when (if) it is a named function of its own.

    def visit_For(self, node: ast.For) -> None:
        self._handle_for(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._handle_for(node)

    def _handle_for(self, node: ast.For | ast.AsyncFor) -> None:
        if self._is_unordered_expr(node.iter) and any(
            isinstance(sub, ast.AugAssign)
            for stmt in node.body
            for sub in ast.walk(stmt)
        ):
            self._effect(
                node,
                "unordered-acc",
                "accumulation over an unordered set iteration: float "
                "addition is not associative, so the result depends on "
                "hash order; iterate over sorted(...) instead",
            )
        self.visit(node.iter)
        self.loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self.loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._handle_assign(node.targets, node.value)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_assign([node.target], node.value)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_global_store(node.target, node)
        self.visit(node.value)

    def _handle_assign(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        is_rng = isinstance(value, ast.Call) and self._is_rng_create(value)
        is_unordered = self._is_unordered_expr(value)
        for target in targets:
            self._check_global_store(target, target)
            if isinstance(target, ast.Name):
                if is_rng:
                    self.rng_created[target.id] = self.loop_depth
                    self.rng_consumed.setdefault(target.id, 0)
                    self.rng_reported.discard(target.id)
                elif target.id in self.rng_created and isinstance(
                    value, ast.Name
                ) and value.id in self.rng_created:
                    self._consume_rng(value.id, target, "this aliasing assignment")
                else:
                    self.rng_created.pop(target.id, None)
                if is_unordered:
                    self.unordered_locals.add(target.id)
                else:
                    self.unordered_locals.discard(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)) and is_rng:
                # ``a, b, c = split(rng, 3)`` — every element is a stream.
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.rng_created[elt.id] = self.loop_depth
                        self.rng_consumed.setdefault(elt.id, 0)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                if isinstance(value, ast.Name) and value.id in self.rng_created:
                    self._consume_rng(
                        value.id, target, "storing it on an object"
                    )

    def _check_global_store(self, target: ast.AST, node: ast.AST) -> None:
        """Flag writes that land in module-level (shared) state."""
        if isinstance(target, ast.Name):
            if target.id in self.global_names:
                self._effect(
                    node,
                    "global-write",
                    f"assignment to module global {target.id!r}",
                    symbol=f"{self.modname}.{target.id}",
                )
            return
        if isinstance(target, ast.Starred):
            self._check_global_store(target.value, node)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_global_store(elt, node)
            return
        if isinstance(target, ast.Attribute):
            base_fq = self._resolve_dotted(target.value)
            if base_fq is not None:
                self._effect(
                    node,
                    "global-write",
                    f"assignment to attribute {target.attr!r} of module-level "
                    f"object {base_fq}",
                    symbol=f"{base_fq}.{target.attr}",
                )
            return
        if isinstance(target, ast.Subscript):
            base_fq = self._resolve_dotted(target.value)
            if base_fq is not None and self._is_module_global(base_fq):
                self._effect(
                    node,
                    "global-write",
                    f"item assignment into module-level container {base_fq}",
                    symbol=base_fq,
                )

    # -- expressions --------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        fq = self._resolve_dotted(node.func)
        if fq is not None:
            self._record_named_call(node, fq)
        elif isinstance(node.func, ast.Attribute):
            self._record_method_call(node, node.func)
        # A draw on the stream itself (``rng.normal()``) is the owning
        # scope's consumption, not a second consumer — but remember it.
        if isinstance(node.func, ast.Attribute) and isinstance(
            node.func.value, ast.Name
        ):
            receiver = node.func.value.id
            if receiver in self.rng_created:
                self.rng_drawn.add(receiver)
        # Arguments: generator locals passed onward are consumers —
        # except into split/derive, the sanctioned fork operations.
        func_parts = dotted(node.func)
        sanctioned_fork = bool(
            func_parts and func_parts[-1] in ("split", "derive", "spawn")
        )
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name) and arg.id in self.rng_created:
                receiver_node = (
                    node.func.value
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                if sanctioned_fork or (
                    isinstance(receiver_node, ast.Name)
                    and receiver_node.id == arg.id
                ):
                    continue
                self._consume_rng(arg.id, arg, "passing it to this call")
        if any(
            self._is_unordered_expr(arg)
            for arg in node.args
        ):
            parts = dotted(node.func)
            if parts and parts[-1] in ("sum", "fsum"):
                self._effect(
                    node,
                    "unordered-acc",
                    "summing an unordered set: float addition is not "
                    "associative, so the result depends on hash order; "
                    "sum over sorted(...) instead",
                )
        self.generic_visit(node)

    def _record_named_call(self, node: ast.Call, fq: str) -> None:
        resolved = self.program.resolve(fq)
        effect = _CALL_EFFECTS.get(resolved) or _CALL_EFFECTS.get(fq)
        tail = fq.rsplit(".", 1)[-1]
        if (
            effect is None
            and isinstance(node.func, ast.Name)
            and node.func.id not in self.module_names
        ):
            # A bare name the module neither defines nor imports is a
            # builtin (``print``, ``input``); look it up unqualified.
            effect = _CALL_EFFECTS.get(node.func.id)
        if effect is None and tail == "open":
            effect = self._open_effect(node)
        if effect is None:
            for prefix, kind, detail in _CALL_PREFIX_EFFECTS:
                if resolved.startswith(prefix) or fq.startswith(prefix):
                    effect = (kind, detail)
                    break
        if effect is not None:
            self._effect(node, effect[0], effect[1])
            return
        # A call on a known mutable module global (``CACHE.append(...)``).
        if isinstance(node.func, ast.Attribute):
            base_fq = self._resolve_dotted(node.func.value)
            if (
                base_fq is not None
                and node.func.attr in _MUTATOR_METHODS
                and self._is_module_global(base_fq)
            ):
                self._effect(
                    node,
                    "global-write",
                    f"mutating call .{node.func.attr}() on module-level "
                    f"container {base_fq}",
                    symbol=base_fq,
                )
                return
        if tail == "setattr" and node.args:
            target_fq = self._resolve_dotted(node.args[0])
            if target_fq is not None:
                self._effect(
                    node,
                    "global-write",
                    f"setattr() on module-level object {target_fq}",
                    symbol=target_fq,
                )
        self.summary.calls_named.add(fq)

    def _record_method_call(self, node: ast.Call, func: ast.Attribute) -> None:
        name = func.attr
        fs_kind = _FS_METHOD_EFFECTS.get(name)
        if fs_kind is not None:
            self._effect(node, fs_kind, f".{name}() (pathlib-style file I/O)")
            return
        if name == "open":
            effect = self._open_effect(node)
            if effect is not None:
                self._effect(node, effect[0], effect[1])
                return
        if name == "mkdir":
            self._effect(node, "file-write", ".mkdir()")
            return
        self.summary.calls_methods.add(name)

    def _open_effect(self, node: ast.Call) -> tuple[str, str] | None:
        """Classify an ``open(...)`` call by its mode argument."""
        mode = "r"
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            if isinstance(node.args[1].value, str):
                mode = node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, str):
                    mode = kw.value.value
        if any(ch in mode for ch in "wax+"):
            return ("file-write", f"open(..., {mode!r})")
        return ("file-read", f"open(..., {mode!r})")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        fq = self._resolve_dotted(node)
        if fq is not None:
            if fq == "os.environ" or fq.startswith("os.environ."):
                self._effect(node, "env-read", "os.environ")
                return
            if self._is_module_global(fq):
                self._effect(
                    node,
                    "global-read",
                    f"read of module-level binding {fq}",
                    symbol=self.program.resolve(fq),
                )
                return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in self.locals:
            fq = f"{self.modname}.{node.id}"
            if fq in self.program.data_globals:
                self._effect(
                    node,
                    "global-read",
                    f"read of module-level binding {fq}",
                    symbol=fq,
                )


def _summarize_function(
    program: EffectProgram,
    module: ModuleInfo,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    fq: str,
    aliases: Mapping[str, str],
    module_names: set[str],
) -> None:
    modname, _ = module_identity(module.path)
    summary = FunctionSummary(
        fq=fq, name=node.name, path=module.path, line=node.lineno
    )
    visitor = _FunctionVisitor(
        program, summary, node, modname, aliases, module_names
    )
    for stmt in node.body:
        visitor.visit(stmt)
    program.functions[fq] = summary
