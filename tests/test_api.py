"""What the benchmark harness in ``perfbench/`` uses of the package.

perfbench imports the package as ``rx`` and calls ``rx.<name>``, plus
``from rexiprop.solvers import <name>``, and reads attributes of what those
return (``stepper.timers``, ``.admissible``, ``.workers``, ``sr.iterations``,
``fac.bandwidth`` and more).  A rename or deletion of one of them would
otherwise surface only as a failed benchmark run.
"""

import json
import re
import subprocess
import sys
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


def test_perfbench_traced_repetitions_run():
    # A traced repetition reads every stepper, spectral-bound and solver
    # attribute the benchmark reports, and checks its own results.
    layers = []
    for workload in ("desk-flagship", "full-chebyshev"):
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "rep.py"), "--workload",
             workload, "--seed", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["checks"] and all(result["checks"].values()), (
            workload, result["checks"])
        layers.append(set(result["layers"]))
    assert layers[0] == layers[1]
