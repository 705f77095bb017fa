"""Seeded effect-violation fixture for the effects-analysis tests.

A two-module mirror of the real runner/simulator shape: ``runner.py``
defines the worker entry points (``_execute``/``_worker_loop``)
and ``simulator.py`` a ``Simulation`` class, so the effect analysis'
suffix-matched roots bind to this package exactly as they bind to the
real tree.  ``late_global.py`` is a module the parser accepts but the
compiler's symbol table rejects, which must come out as a syntax-error
finding (``E000``).  Every planted violation carries an ``# expect:``
marker naming its rules; ``tests/test_lintkit_effects.py`` asserts the
findings match the markers exactly — no more, no fewer.

Not part of the library (CI's lint run does not cover ``tests/``), so
the seeded bugs never appear in the repository's own lint report.
"""

__all__: list[str] = []
