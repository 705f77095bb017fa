"""Golden experiment output: ``repro experiment all --quick``, byte for byte.

``tests/golden/experiments_quick.txt`` is the command's stdout.  It is
the "same output" oracle for changes to how the experiments run: a
change that only reorganises the run path must leave every rendered
table and series unchanged.  The result cache is switched off here, so
the comparison always exercises the simulations themselves.

The rendered numbers depend on numpy's ``exp``/``pow`` rounding, so the
file records the numpy version it was made with, and on any other
version the comparison is skipped rather than failed.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_experiments.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main

__all__ = ["GOLDEN_OUTPUT", "GOLDEN_VERSION", "render_all_quick"]

GOLDEN_OUTPUT = Path(__file__).parent / "golden" / "experiments_quick.txt"
GOLDEN_VERSION = Path(__file__).parent / "golden" / "experiments_quick.json"
COMMAND = ["experiment", "all", "--quick"]

pytestmark = pytest.mark.slow


def render_all_quick() -> str:
    """The stdout of ``repro experiment all --quick``, cache off."""
    previous = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "0"
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(COMMAND)
    finally:
        if previous is None:
            del os.environ["REPRO_CACHE"]
        else:
            os.environ["REPRO_CACHE"] = previous
    assert code == 0
    return out.getvalue()


def test_experiment_all_quick_matches_golden_output():
    stored = json.loads(GOLDEN_VERSION.read_text())
    if stored["numpy_version"] != np.__version__:
        pytest.skip(
            f"golden output was made with numpy {stored['numpy_version']}; "
            f"this is numpy {np.__version__}, whose exp/pow bits may differ"
        )
    assert render_all_quick() == GOLDEN_OUTPUT.read_text()


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    text = render_all_quick()
    GOLDEN_OUTPUT.write_text(text)
    GOLDEN_VERSION.write_text(
        json.dumps(
            {"command": "repro " + " ".join(COMMAND), "numpy_version": np.__version__},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {text.count(chr(10))} lines to {GOLDEN_OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
