"""The package names that the benchmark harness in ``perfbench/`` uses.

perfbench imports the package as ``rx`` and calls ``rx.<name>``, plus
``from rexiprop.solvers import <name>``.  A rename or deletion of one of
those names would otherwise surface only as a failed benchmark run.
"""

import re
from pathlib import Path

import rexiprop
from rexiprop import solvers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _names(pattern):
    return {name for path in sorted(PERFBENCH.glob("*.py"))
            for name in re.findall(pattern, path.read_text())}


def test_perfbench_names_exist():
    package = _names(r"\brx\.(\w+)")
    from_solvers = _names(r"from rexiprop\.solvers import (\w+)")
    assert len(package) >= 17 and "rexi_run" in package
    assert "factorize" in from_solvers
    assert sorted(n for n in package if not hasattr(rexiprop, n)) == []
    assert sorted(n for n in from_solvers if not hasattr(solvers, n)) == []
