"""Interprocedural dimensional analysis (rules DIM001–DIM005).

A two-pass, whole-program static analysis over the unit vocabulary of
:mod:`repro.unit_types`:

1. **Harvest** — every module is scanned for unit annotations
   (``Watts``, ``Seconds``, ``PowerFraction``, ...) on function
   parameters, return types, dataclass fields, properties and
   module-level constants.  Import aliases are resolved to canonical
   dotted names so signatures compose across modules, including through
   package ``__init__`` re-exports.

2. **Check** — every function body (and module top level) is abstractly
   interpreted: each expression evaluates to a *dimension* (or unknown),
   dimensions propagate through assignments, attribute access,
   subscripts and arithmetic, and five rule families fire on
   contradictions:

   ========  ==========================================================
   DIM001    incompatible units combined in ``+``/``-``/comparisons
             (watts plus gigahertz, seconds compared to milliseconds)
   DIM002    same quantity at a different scale crossing a call,
             return or assignment boundary (seconds into a
             milliseconds parameter)
   DIM003    absolute power (W) where a fraction-of-max-chip-power is
             expected, or vice versa
   DIM004    wrong physical quantity crossing a boundary (volts into a
             frequency parameter)
   DIM005    manual scale conversion (``t * 1000`` or
             ``t * units.NS_PER_S``) on a unit-carrying value instead
             of a :mod:`repro.units` helper
   ========  ==========================================================

The analysis is deliberately conservative: a finding requires *both*
sides of a boundary to carry known units, so unannotated code stays
silent rather than noisy.  ``units.py`` and ``unit_types.py`` — the
modules that define the conventions — are exempt from checking (their
whole purpose is to cross scales).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .findings import Finding
from .modgraph import (
    Definition,
    FunctionNode,
    ModuleInfo,
    ProgramIndex,
    qualified_name,
)
from .modgraph import dotted as _dotted

__all__ = [
    "DIM_RULES",
    "Dim",
    "DimensionAnalysis",
]

#: Rule catalogue for ``--list-rules`` and the documentation table.
DIM_RULES: tuple[tuple[str, str, str], ...] = (
    (
        "DIM001",
        "incompatible units in arithmetic",
        "Adding, subtracting or comparing values of different physical "
        "quantities (or scales) is meaningless; the result silently "
        "corrupts whatever consumes it.",
    ),
    (
        "DIM002",
        "unit scale mismatch at a boundary",
        "Passing seconds where milliseconds are expected (or vice versa) "
        "is off by 10^3 with no runtime symptom; convert via repro.units "
        "helpers at the boundary.",
    ),
    (
        "DIM003",
        "absolute power confused with a power fraction",
        "Budgets and set-points are fractions of max chip power; absolute "
        "watts flowing into a fraction-typed parameter (or back) breaks "
        "every controller gain derived from them.",
    ),
    (
        "DIM004",
        "wrong physical quantity at a boundary",
        "A value annotated with one quantity (volts, GHz, Celsius, ...) "
        "reaching a parameter annotated with another is a type error the "
        "runtime cannot see.",
    ),
    (
        "DIM005",
        "manual unit conversion bypasses repro.units",
        "Scaling a unit-carrying value by a raw factor hides the "
        "conversion from review and from this analysis; use the named "
        "repro.units helpers instead.",
    ),
)

#: Unit symbol -> (physical quantity, scale label).  The scale label only
#: needs to *differ* between scales of one quantity; no arithmetic is
#: ever performed on it.
_UNIT_TABLE: dict[str, tuple[str, str]] = {
    "s": ("time", "s"),
    "ms": ("time", "ms"),
    "us": ("time", "us"),
    "ns": ("time", "ns"),
    "GHz": ("frequency", "GHz"),
    "Hz": ("frequency", "Hz"),
    "V": ("voltage", "V"),
    "W": ("power", "W"),
    "frac": ("power fraction", "frac"),
    "degC": ("temperature", "degC"),
    "J": ("energy", "J"),
    "nJ": ("energy", "nJ"),
    "BIPS": ("throughput", "BIPS"),
}

#: Annotation alias name -> unit symbol.  Scalar, ``*Like`` and
#: ``*Array`` spellings all carry the same symbol.
_VOCABULARY: dict[str, str] = {
    "Seconds": "s",
    "SecondsLike": "s",
    "SecondsArray": "s",
    "Milliseconds": "ms",
    "Microseconds": "us",
    "Nanoseconds": "ns",
    "GigaHz": "GHz",
    "GigaHzLike": "GHz",
    "GigaHzArray": "GHz",
    "Hertz": "Hz",
    "Volts": "V",
    "VoltsLike": "V",
    "VoltsArray": "V",
    "Watts": "W",
    "WattsLike": "W",
    "WattsArray": "W",
    "PowerFraction": "frac",
    "PowerFractionLike": "frac",
    "PowerFractionArray": "frac",
    "Celsius": "degC",
    "CelsiusLike": "degC",
    "CelsiusArray": "degC",
    "Joules": "J",
    "JoulesLike": "J",
    "JoulesArray": "J",
    "Nanojoules": "nJ",
    "Bips": "BIPS",
    "BipsLike": "BIPS",
    "BipsArray": "BIPS",
}

#: Literal factors whose multiplication/division against a unit-carrying
#: value is (almost) always an inline scale conversion (DIM005).  Spelled
#: in decimal notation deliberately: scientific spellings of these values
#: are already UNIT001 violations.
_SCALE_LITERALS = frozenset(
    {1000.0, 0.001, 1000000.0, 0.000001, 1000000000.0, 0.000000001}
)

#: Named conversion constants from ``repro.units``; multiplying an
#: already-unit-typed value by one of these bypasses the helper functions.
_SCALE_CONSTANTS = frozenset(
    {
        "MILLISECONDS",
        "MICROSECONDS",
        "NANOSECONDS",
        "GHZ_TO_HZ",
        "NS_PER_S",
        "NJ_PER_J",
        "MILLI",
        "MICRO",
    }
)

#: Modules that define the unit conventions and are allowed to cross
#: scales freely.
_EXEMPT_BASENAMES = frozenset({"units.py", "unit_types.py"})


@dataclass(frozen=True)
class Dim:
    """A physical dimension: quantity plus scale label."""

    quantity: str
    scale: str

    @classmethod
    def from_symbol(cls, symbol: str) -> "Dim | None":
        entry = _UNIT_TABLE.get(symbol)
        if entry is None:
            return None
        return cls(quantity=entry[0], scale=entry[1])

    def describe(self) -> str:
        return f"{self.quantity} [{self.scale}]"


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DimValue:
    """An expression known to carry a physical unit."""

    dim: Dim


@dataclass(frozen=True)
class _Number:
    """A literal numeric constant (dimensionless until proven otherwise)."""

    value: float


@dataclass(frozen=True)
class _Instance:
    """A value known to be an instance of a harvested class."""

    class_fq: str


@dataclass(frozen=True)
class _SymbolRef:
    """A dotted reference to a module / class / function, not yet called."""

    fq: str


@dataclass(frozen=True)
class _MethodRef:
    """A method looked up on an :class:`_Instance`."""

    class_fq: str
    name: str


_Value = _DimValue | _Number | _Instance | _SymbolRef | _MethodRef | None


# ---------------------------------------------------------------------------
# Harvested signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Param:
    name: str
    dim: Dim | None
    class_fq: str | None


@dataclass(frozen=True)
class _FuncSig:
    fq: str
    params: tuple[_Param, ...]
    returns_dim: Dim | None
    returns_class: str | None


@dataclass
class _ClassSig:
    fq: str
    fields: dict[str, Dim] = field(default_factory=dict)
    field_classes: dict[str, str] = field(default_factory=dict)
    field_order: list[str] = field(default_factory=list)
    methods: dict[str, _FuncSig] = field(default_factory=dict)
    is_dataclass: bool = False


@dataclass
class _Program:
    """Whole-program signature tables built by the harvest pass, next to
    the shared :class:`~repro.lintkit.modgraph.ProgramIndex`."""

    index: ProgramIndex
    functions: dict[str, _FuncSig] = field(default_factory=dict)
    classes: dict[str, _ClassSig] = field(default_factory=dict)
    #: Unit-annotated module-level constants.
    attrs: dict[str, Dim] = field(default_factory=dict)

    def callable_at(self, fq: str) -> "_FuncSig | _ClassSig | None":
        fq = self.index.resolve(fq)
        return self.functions.get(fq) or self.classes.get(fq)

    def class_at(self, fq: str) -> _ClassSig | None:
        return self.classes.get(self.index.resolve(fq))

    def attr_dim(self, fq: str) -> Dim | None:
        return self.attrs.get(self.index.resolve(fq))


# ---------------------------------------------------------------------------
# Annotation reading
# ---------------------------------------------------------------------------


def _annotation_info(
    node: ast.AST | None, aliases: Mapping[str, str]
) -> tuple[Dim | None, str | None]:
    """(dimension, class fq) described by an annotation expression."""
    if node is None:
        return None, None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``X | None`` unions: the unit (or class) of the non-None side.
        left = _annotation_info(node.left, aliases)
        right = _annotation_info(node.right, aliases)
        if _is_none_ann(node.right):
            return left
        if _is_none_ann(node.left):
            return right
        return None, None
    if isinstance(node, ast.Subscript):
        head = _dotted(node.value)
        if head and head[-1] == "Annotated":
            return _annotated_info(node, aliases)
        if head and head[-1] in ("Optional", "Final", "ClassVar"):
            return _annotation_info(node.slice, aliases)
        return None, None
    parts = _dotted(node)
    if parts is None:
        return None, None
    tail = parts[-1]
    symbol = _VOCABULARY.get(tail)
    if symbol is not None:
        return Dim.from_symbol(symbol), None
    return None, qualified_name(node, aliases)


def _is_none_ann(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _qualify(class_fq: str | None, modname: str) -> str | None:
    """Anchor a bare class name from an annotation to its module.

    ``_annotation_info`` resolves imported names through the alias table,
    so a name still bare afterwards is either defined in the module being
    read or a builtin; prefixing the module makes the former resolvable
    from any other module (builtins simply never resolve, which keeps the
    analysis conservative).
    """
    if class_fq is not None and "." not in class_fq:
        return f"{modname}.{class_fq}"
    return class_fq


def _annotated_info(
    node: ast.Subscript, aliases: Mapping[str, str]
) -> tuple[Dim | None, str | None]:
    """Read ``Annotated[T, Unit("...")]`` written inline."""
    inner = node.slice
    if not isinstance(inner, ast.Tuple) or len(inner.elts) < 2:
        return None, None
    for meta in inner.elts[1:]:
        if not isinstance(meta, ast.Call):
            continue
        func = _dotted(meta.func)
        if not func or func[-1] != "Unit" or not meta.args:
            continue
        first = meta.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return Dim.from_symbol(first.value), None
    return _annotation_info(inner.elts[0], aliases)


# ---------------------------------------------------------------------------
# Pass 1 — harvest
# ---------------------------------------------------------------------------


def _harvest(index: ProgramIndex) -> _Program:
    program = _Program(index)
    for fq, function in index.functions.items():
        program.functions[fq] = _harvest_function(function, fq)
    for fq, cls in index.classes.items():
        program.classes[fq] = _harvest_class(cls, index.methods[fq])
    for module in index.modules:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                dim, _cls = _annotation_info(stmt.annotation, module.aliases)
                if dim is not None:
                    program.attrs[f"{module.name}.{stmt.target.id}"] = dim
    return program


def _harvest_function(function: Definition[FunctionNode], fq: str) -> _FuncSig:
    node, modname = function.node, function.module.name
    aliases = function.module.aliases
    params: list[_Param] = []
    args = node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        dim, class_fq = _annotation_info(arg.annotation, aliases)
        params.append(
            _Param(name=arg.arg, dim=dim, class_fq=_qualify(class_fq, modname))
        )
    ret_dim, ret_class = _annotation_info(node.returns, aliases)
    return _FuncSig(
        fq=fq,
        params=tuple(params),
        returns_dim=ret_dim,
        returns_class=_qualify(ret_class, modname),
    )


def _decorator_names(node: ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        parts = _dotted(target)
        if parts:
            names.append(parts[-1])
    return names


def _harvest_class(
    cls: Definition[ast.ClassDef], methods: Sequence[Definition[FunctionNode]]
) -> _ClassSig:
    node, modname, aliases = cls.node, cls.module.name, cls.module.aliases
    fq = f"{modname}.{node.name}"
    sig = _ClassSig(fq=fq, is_dataclass="dataclass" in _decorator_names(node))
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            dim, class_fq = _annotation_info(stmt.annotation, aliases)
            sig.field_order.append(name)
            if dim is not None:
                sig.fields[name] = dim
            elif class_fq is not None:
                sig.field_classes[name] = _qualify(class_fq, modname)
    for definition in methods:
        func = definition.node
        method = _harvest_function(definition, f"{fq}.{func.name}")
        sig.methods[func.name] = method
        if "property" in _decorator_names(func):
            if method.returns_dim is not None:
                sig.fields[func.name] = method.returns_dim
            elif method.returns_class is not None:
                sig.field_classes[func.name] = method.returns_class
        if func.name == "__init__":
            _harvest_init_attrs(sig, func, method, modname, aliases)
    return sig


def _harvest_init_attrs(
    sig: _ClassSig,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    init: _FuncSig,
    modname: str,
    aliases: Mapping[str, str],
) -> None:
    """Self-attribute units/classes assigned inside ``__init__``."""
    param_by_name = {p.name: p for p in init.params}
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.AnnAssign) and _is_self_attr(stmt.target):
            name = stmt.target.attr  # type: ignore[union-attr]
            dim, class_fq = _annotation_info(stmt.annotation, aliases)
            if dim is not None:
                sig.fields.setdefault(name, dim)
            elif class_fq is not None:
                class_fq = _qualify(class_fq, modname)
                sig.field_classes.setdefault(name, class_fq)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if not _is_self_attr(target):
                continue
            name = target.attr  # type: ignore[union-attr]
            value = stmt.value
            if isinstance(value, ast.Name) and value.id in param_by_name:
                param = param_by_name[value.id]
                if param.dim is not None:
                    sig.fields.setdefault(name, param.dim)
                elif param.class_fq is not None:
                    sig.field_classes.setdefault(name, param.class_fq)
            elif isinstance(value, ast.Call):
                fq = qualified_name(value.func, aliases)
                if fq is not None:
                    sig.field_classes.setdefault(name, _qualify(fq, modname))


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


# ---------------------------------------------------------------------------
# Pass 2 — check
# ---------------------------------------------------------------------------


class _ModuleChecker:
    """Abstract interpreter for one module against the program tables."""

    def __init__(self, program: _Program, module: ModuleInfo) -> None:
        self.program = program
        self.module = module
        self.modname = module.name
        self.aliases = module.aliases
        self.findings: list[Finding] = []

    # -- reporting ----------------------------------------------------------

    def _report(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=rule_id,
                message=message,
            )
        )

    def _check_boundary(
        self, node: ast.AST, expected: Dim, actual: Dim, where: str
    ) -> None:
        if expected == actual:
            return
        if expected.quantity == actual.quantity:
            self._report(
                node,
                "DIM002",
                f"{where} receives {actual.describe()} but expects "
                f"{expected.describe()}; convert with the repro.units "
                f"helpers at the boundary",
            )
        elif {expected.quantity, actual.quantity} == {"power", "power fraction"}:
            direction = (
                "absolute power [W] flows into a fraction-of-max-chip-power slot"
                if actual.quantity == "power"
                else "a power fraction flows into an absolute-watts slot"
            )
            self._report(
                node,
                "DIM003",
                f"{where}: {direction}; normalize via the chip's max-power "
                f"constant before crossing this boundary",
            )
        else:
            self._report(
                node,
                "DIM004",
                f"{where} receives {actual.describe()} but expects "
                f"{expected.describe()}",
            )

    # -- entry point --------------------------------------------------------

    def check(self) -> list[Finding]:
        env: dict[str, _Value] = {}
        self._exec_block(self.module.tree.body, env, return_dim=None)
        return self.findings

    # -- statements ---------------------------------------------------------

    def _exec_block(
        self,
        stmts: Sequence[ast.stmt],
        env: dict[str, _Value],
        return_dim: Dim | None,
    ) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env, return_dim)

    def _exec_stmt(
        self, stmt: ast.stmt, env: dict[str, _Value], return_dim: Dim | None
    ) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind_target(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            declared_dim, declared_class = _annotation_info(
                stmt.annotation, self.aliases
            )
            value = self._eval(stmt.value, env) if stmt.value else None
            if (
                declared_dim is not None
                and isinstance(value, _DimValue)
                and stmt.value is not None
            ):
                self._check_boundary(
                    stmt.value, declared_dim, value.dim, "the annotated assignment"
                )
            if isinstance(stmt.target, ast.Name):
                if declared_dim is not None:
                    env[stmt.target.id] = _DimValue(declared_dim)
                elif declared_class is not None:
                    env[stmt.target.id] = _Instance(
                        self.program.index.resolve(
                            _qualify(declared_class, self.modname)
                        )
                    )
                else:
                    env[stmt.target.id] = value
        elif isinstance(stmt, ast.AugAssign):
            target_val = self._eval(stmt.target, env)
            value = self._eval(stmt.value, env)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                self._combine_additive(stmt, target_val, value)
            elif isinstance(stmt.op, (ast.Mult, ast.Div)):
                self._check_manual_scale(stmt, target_val, value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value, env)
                if return_dim is not None and isinstance(value, _DimValue):
                    self._check_boundary(
                        stmt.value, return_dim, value.dim, "the return value"
                    )
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            self._exec_block(stmt.body, env, return_dim)
            self._exec_block(stmt.orelse, env, return_dim)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_value = self._eval(stmt.iter, env)
            element = iter_value if isinstance(iter_value, _DimValue) else None
            self._bind_target(stmt.target, element, env)
            self._exec_block(stmt.body, env, return_dim)
            self._exec_block(stmt.orelse, env, return_dim)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            self._exec_block(stmt.body, env, return_dim)
            self._exec_block(stmt.orelse, env, return_dim)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, None, env)
            self._exec_block(stmt.body, env, return_dim)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env, return_dim)
            for handler in stmt.handlers:
                self._exec_block(handler.body, env, return_dim)
            self._exec_block(stmt.orelse, env, return_dim)
            self._exec_block(stmt.finalbody, env, return_dim)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env)
            if stmt.msg is not None:
                self._eval(stmt.msg, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_function(stmt, enclosing_class=None)
        elif isinstance(stmt, ast.ClassDef):
            self._check_class(stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, ast.Match):
            self._eval(stmt.subject, env)
            for case in stmt.cases:
                self._exec_block(case.body, env, return_dim)

    def _bind_target(
        self, target: ast.AST, value: _Value, env: dict[str, _Value]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, None, env)
        elif isinstance(target, ast.Attribute):
            # ``obj.field = value`` is a boundary when the field has a unit.
            owner = self._eval(target.value, env)
            if isinstance(owner, _Instance) and isinstance(value, _DimValue):
                cls = self.program.class_at(owner.class_fq)
                if cls is not None:
                    expected = cls.fields.get(target.attr)
                    if expected is not None:
                        self._check_boundary(
                            target,
                            expected,
                            value.dim,
                            f"attribute {target.attr!r}",
                        )

    # -- classes and functions ---------------------------------------------

    def _check_class(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(stmt, enclosing_class=f"{self.modname}.{node.name}")
            elif isinstance(stmt, ast.ClassDef):
                self._check_class(stmt)

    def _check_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        enclosing_class: str | None,
    ) -> None:
        env: dict[str, _Value] = {}
        args = node.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for index, arg in enumerate(all_args):
            if index == 0 and enclosing_class is not None and arg.arg in ("self", "cls"):
                env[arg.arg] = _Instance(enclosing_class)
                continue
            dim, class_fq = _annotation_info(arg.annotation, self.aliases)
            if dim is not None:
                env[arg.arg] = _DimValue(dim)
            elif class_fq is not None:
                resolved = self.program.index.resolve(
                    _qualify(class_fq, self.modname)
                )
                if resolved in self.program.classes:
                    env[arg.arg] = _Instance(resolved)
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            self._eval(default, env)
        return_dim, _ = _annotation_info(node.returns, self.aliases)
        self._exec_block(node.body, env, return_dim)

    # -- expressions --------------------------------------------------------

    def _eval(self, node: ast.AST | None, env: dict[str, _Value]) -> _Value:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return None
            return _Number(float(node.value))
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            target = self.aliases.get(node.id)
            if target is not None:
                return self._symbol_value(target)
            return self._symbol_value(f"{self.modname}.{node.id}", weak=True)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.Compare):
            self._eval_compare(node, env)
            return None
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub) and isinstance(operand, _Number):
                return _Number(-operand.value)
            return operand
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            body = self._eval(node.body, env)
            orelse = self._eval(node.orelse, env)
            return body if body == orelse else None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value, env)
            return None
        if isinstance(node, ast.Subscript):
            value = self._eval(node.value, env)
            self._eval(node.slice, env)
            # Indexing/slicing an annotated array keeps the unit.
            return value if isinstance(value, _DimValue) else None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._eval(elt, env)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                self._eval(key, env)
            for value in node.values:
                self._eval(value, env)
            return None
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    self._eval(part.value, env)
            return None
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            self._bind_target(node.target, value, env)
            return value
        if isinstance(node, ast.Starred):
            self._eval(node.value, env)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._eval_comprehension(node.generators, env)
            self._eval(node.elt, env)
            return None
        if isinstance(node, ast.DictComp):
            self._eval_comprehension(node.generators, env)
            self._eval(node.key, env)
            self._eval(node.value, env)
            return None
        if isinstance(node, ast.Slice):
            self._eval(node.lower, env)
            self._eval(node.upper, env)
            self._eval(node.step, env)
            return None
        return None

    def _eval_comprehension(
        self, generators: Sequence[ast.comprehension], env: dict[str, _Value]
    ) -> None:
        for gen in generators:
            iter_value = self._eval(gen.iter, env)
            element = iter_value if isinstance(iter_value, _DimValue) else None
            self._bind_target(gen.target, element, env)
            for cond in gen.ifs:
                self._eval(cond, env)

    def _symbol_value(self, fq: str, weak: bool = False) -> _Value:
        dim = self.program.attr_dim(fq)
        if dim is not None:
            return _DimValue(dim)
        if weak:
            # Unresolved bare name: only names the harvest pass actually
            # saw count (module constants, same-module functions/classes);
            # anything else — builtins, loop temporaries — stays unknown.
            if self.program.callable_at(fq) is not None:
                return _SymbolRef(fq)
            return None
        return _SymbolRef(fq)

    def _eval_attribute(self, node: ast.Attribute, env: dict[str, _Value]) -> _Value:
        base = self._eval(node.value, env)
        if isinstance(base, _Instance):
            cls = self.program.class_at(base.class_fq)
            if cls is None:
                return None
            if node.attr in cls.fields:
                return _DimValue(cls.fields[node.attr])
            if node.attr in cls.field_classes:
                resolved = self.program.index.resolve(cls.field_classes[node.attr])
                if resolved in self.program.classes:
                    return _Instance(resolved)
                return None
            if node.attr in cls.methods:
                return _MethodRef(base.class_fq, node.attr)
            return None
        if isinstance(base, _SymbolRef):
            return self._symbol_value(f"{base.fq}.{node.attr}")
        return None

    # -- calls --------------------------------------------------------------

    def _eval_call(self, node: ast.Call, env: dict[str, _Value]) -> _Value:
        callee = self._eval(node.func, env)
        sig: _FuncSig | None = None
        cls: _ClassSig | None = None
        skip_self = False
        if isinstance(callee, _MethodRef):
            owner = self.program.class_at(callee.class_fq)
            if owner is not None:
                sig = owner.methods.get(callee.name)
                skip_self = True
        elif isinstance(callee, _SymbolRef):
            resolved = self.program.callable_at(callee.fq)
            if isinstance(resolved, _FuncSig):
                sig = resolved
            elif isinstance(resolved, _ClassSig):
                cls = resolved

        if cls is not None:
            self._check_constructor(node, cls, env)
            return _Instance(cls.fq)
        if sig is None:
            for arg in node.args:
                self._eval(arg, env)
            for keyword in node.keywords:
                self._eval(keyword.value, env)
            return None

        params = list(sig.params)
        if skip_self and params and params[0].name in ("self", "cls"):
            params = params[1:]
        self._check_arguments(node, params, env, sig.fq)
        if sig.returns_dim is not None:
            return _DimValue(sig.returns_dim)
        if sig.returns_class is not None:
            resolved_class = self.program.index.resolve(sig.returns_class)
            if resolved_class in self.program.classes:
                return _Instance(resolved_class)
        return None

    def _check_constructor(
        self, node: ast.Call, cls: _ClassSig, env: dict[str, _Value]
    ) -> None:
        init = cls.methods.get("__init__")
        if init is not None:
            params = list(init.params)
            if params and params[0].name in ("self", "cls"):
                params = params[1:]
        elif cls.is_dataclass:
            params = [
                _Param(
                    name=name,
                    dim=cls.fields.get(name),
                    class_fq=cls.field_classes.get(name),
                )
                for name in cls.field_order
            ]
        else:
            params = []
        self._check_arguments(node, params, env, cls.fq)

    def _check_arguments(
        self,
        node: ast.Call,
        params: Sequence[_Param],
        env: dict[str, _Value],
        callee_fq: str,
    ) -> None:
        callee_name = callee_fq.rsplit(".", 1)[-1]
        by_name = {p.name: p for p in params}
        for index, arg in enumerate(node.args):
            value = self._eval(arg, env)
            if isinstance(arg, ast.Starred):
                continue
            if index < len(params) and isinstance(value, _DimValue):
                param = params[index]
                if param.dim is not None:
                    self._check_boundary(
                        arg,
                        param.dim,
                        value.dim,
                        f"parameter {param.name!r} of {callee_name}()",
                    )
        for keyword in node.keywords:
            value = self._eval(keyword.value, env)
            if keyword.arg is None:
                continue
            param = by_name.get(keyword.arg)
            if (
                param is not None
                and param.dim is not None
                and isinstance(value, _DimValue)
            ):
                self._check_boundary(
                    keyword.value,
                    param.dim,
                    value.dim,
                    f"parameter {param.name!r} of {callee_name}()",
                )

    # -- arithmetic ---------------------------------------------------------

    def _eval_binop(self, node: ast.BinOp, env: dict[str, _Value]) -> _Value:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return self._combine_additive(node, left, right)
        if isinstance(node.op, (ast.Mult, ast.Div)):
            flagged = self._check_manual_scale(node, left, right)
            if flagged:
                return None
            if isinstance(left, _DimValue) and isinstance(
                right, (_Number, type(None))
            ):
                return left
            if (
                isinstance(node.op, ast.Mult)
                and isinstance(right, _DimValue)
                and isinstance(left, (_Number, type(None)))
            ):
                return right
            return None
        return None

    def _combine_additive(
        self, node: ast.AST, left: _Value, right: _Value
    ) -> _Value:
        if isinstance(left, _DimValue) and isinstance(right, _DimValue):
            if left.dim != right.dim:
                if left.dim.quantity == right.dim.quantity:
                    detail = (
                        f"same quantity at different scales "
                        f"({left.dim.scale} vs {right.dim.scale}); convert "
                        f"one side with the repro.units helpers"
                    )
                else:
                    detail = "these quantities cannot be combined"
                self._report(
                    node,
                    "DIM001",
                    f"arithmetic mixes {left.dim.describe()} with "
                    f"{right.dim.describe()}: {detail}",
                )
                return None
            return left
        if isinstance(left, _DimValue):
            return left
        if isinstance(right, _DimValue):
            return right
        return None

    def _eval_compare(self, node: ast.Compare, env: dict[str, _Value]) -> None:
        values = [self._eval(node.left, env)]
        for comparator in node.comparators:
            values.append(self._eval(comparator, env))
        dims = [
            (i, v.dim) for i, v in enumerate(values) if isinstance(v, _DimValue)
        ]
        for (_, a), (_, b) in zip(dims, dims[1:]):
            if a.quantity != b.quantity or a.scale != b.scale:
                self._report(
                    node,
                    "DIM001",
                    f"comparison mixes {a.describe()} with {b.describe()}",
                )

    def _check_manual_scale(
        self, node: ast.AST, left: _Value, right: _Value
    ) -> bool:
        """DIM005: unit-carrying value scaled by a raw conversion factor."""
        for dimmed, other in ((left, right), (right, left)):
            if not isinstance(dimmed, _DimValue):
                continue
            if isinstance(other, _Number) and other.value in _SCALE_LITERALS:
                self._report(
                    node,
                    "DIM005",
                    f"manual scale conversion of a {dimmed.dim.describe()} "
                    f"value by {other.value!r}; use the repro.units helpers "
                    f"(ms/us/ns/to_ns/to_nj) instead",
                )
                return True
            if isinstance(other, _SymbolRef):
                tail = other.fq.rsplit(".", 1)[-1]
                if tail in _SCALE_CONSTANTS and "units" in other.fq:
                    self._report(
                        node,
                        "DIM005",
                        f"manual scale conversion of a "
                        f"{dimmed.dim.describe()} value by units.{tail}; "
                        f"use the repro.units helpers instead",
                    )
                    return True
        return False


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


class DimensionAnalysis:
    """The whole-program dimensions pass (CLI name: ``dimensions``)."""

    name = "dimensions"

    def run(self, index: ProgramIndex) -> list[Finding]:
        """Harvest every module, then check each non-exempt one."""
        program = _harvest(index)
        findings: list[Finding] = []
        for module in index.modules:
            if module.basename in _EXEMPT_BASENAMES:
                continue
            findings.extend(_ModuleChecker(program, module).check())
        return sorted(set(findings))

