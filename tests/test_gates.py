"""Internal consistency gates must survive python -O.

The library raises through errors.check instead of using assert
statements, which -O strips; these tests keep it that way.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import flagmaps

SOURCE = Path(flagmaps.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_descend_rejects_a_split_orbit_under_optimize():
    # orbits {0, 1} and {2, 3}; the transposition (1 2) splits both
    script = (
        "import sys\n"
        "from flagmaps.permtools import descend\n"
        "orbits, orbit_of = ((0, 1), (2, 3)), (0, 0, 1, 1)\n"
        "print(sys.flags.optimize, descend((2, 3, 0, 1), orbits, orbit_of))\n"
        "descend((0, 2, 1, 3), orbits, orbit_of)\n")
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "1 (1, 0)\n"
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith(
        "AssertionError: permutation does not descend to orbits")
