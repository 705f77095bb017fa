"""Units rule: magic conversion literals live only in ``repro/units.py``.

The library keeps one internal unit system (seconds, GHz, watts or
fraction-of-max, Celsius, joules).  Conversion factors written inline —
``* 1e9`` to get Hz or nanoseconds, ``1e-9`` as an ad-hoc tolerance —
are exactly how silent unit bugs enter controller gains (a 10^3 slip in a
gain is invisible in code review and catastrophic in closed loop).  Every
such factor must be a *named* constant or helper from ``repro.units``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from ... import units
from ..findings import Finding
from .base import LintRule, ModuleInfo

__all__ = ["MagicUnitLiteralRule"]

#: The module that is allowed to spell conversion factors as literals.
_UNITS_MODULE = "units.py"

#: Literal values that are (almost) always a unit conversion or an ad-hoc
#: epsilon, mapped to the named replacement.  Values are imported from
#: repro.units itself so rule and convention cannot drift apart.
_MAGIC: dict[float, str] = {
    units.GHZ_TO_HZ: (
        "use units.GHZ_TO_HZ (frequency), units.NS_PER_S (durations), "
        "units.NJ_PER_J (energy) or units.bips(...)"
    ),
    units.MILLI: "use units.MILLI, or units.ms(...) for millisecond durations",
    units.MICRO: "use units.MICRO, or units.us(...) for microsecond durations",
    units.EPS: (
        "use units.EPS / units.approx_eq(...) for tolerances, or "
        "units.NANOSECONDS / units.ns(...) for durations"
    ),
}

#: Only literals *written* in scientific notation are flagged: `1e-3` is a
#: conversion-factor idiom, `0.001` is an ordinary number.
_SCIENTIFIC = re.compile(r"^\d+(?:\.\d*)?[eE][+-]?\d+$")


class MagicUnitLiteralRule(LintRule):
    """UNIT001 — scientific-notation conversion literals outside units.py."""

    rule_id = "UNIT001"
    title = "magic unit-conversion literal"
    rationale = (
        "Inline 1e9/1e-3/1e-6/1e-9 factors are unlabelled unit conversions; "
        "a wrong exponent silently corrupts controller gains and power "
        "accounting. Name the factor via repro.units."
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.basename != _UNITS_MODULE

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            suggestion = _MAGIC.get(float(value))
            if suggestion is None:
                continue
            segment = module.segment(node).strip()
            if not _SCIENTIFIC.match(segment):
                continue
            yield self.finding(
                module, node, f"magic conversion literal {segment}: {suggestion}"
            )
