"""Importing the CLI loads no root finder or symbolic package.

Every ``entdisc`` command pays for what ``entdisc.cli`` imports, in start-up
time and resident memory, so the closed forms stay on ``math`` and the
oracle on plain numpy.  The import runs in a fresh interpreter, because
this test session may already hold any of these modules.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("numpy.polynomial", "scipy", "sympy", "mpmath")


def test_cli_import_loads_no_heavy_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    code = (
        "import sys, entdisc.cli\n"
        f"heavy = {HEAVY!r}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == h or m.startswith(h + '.') for h in heavy)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
