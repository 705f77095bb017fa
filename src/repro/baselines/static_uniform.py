"""Static-uniform provisioning: CPM's controllers without its GPM brain.

An ablation baseline (not in the paper): the budget is split equally and
never reprovisioned, while the PIC tier still caps each island at its
static share.  Comparing this against full CPM isolates the value of the
performance-aware GPM tier.
"""

from __future__ import annotations

from ..core.cpm import CPMScheme
from ..gpm.policy import UniformPolicy

__all__ = ["StaticUniformScheme"]


class StaticUniformScheme(CPMScheme):
    """CPM with the uniform policy — equal shares, closed-loop capping."""

    name = "static-uniform"

    def __init__(self) -> None:
        super().__init__(policy=UniformPolicy())
