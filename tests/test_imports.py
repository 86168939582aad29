"""What each entry point loads.

Every ``entdisc`` command pays for what it imports, in start-up time and
resident memory.  The CLI loads no root finder or symbolic package; the
closed-form commands (``params``, ``classify``, ``sweep``) load no numpy,
because ``entdisc`` loads its submodules on first use and ``channels``
imports numpy only inside its matrix pictures.  Each check runs in a fresh
interpreter, because this test session may already hold any of these
modules.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("numpy.polynomial", "scipy", "sympy", "mpmath")


def run_fresh(code: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_heavy_package():
    code = (
        "import sys, entdisc.cli\n"
        f"heavy = {HEAVY!r}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == h or m.startswith(h + '.') for h in heavy)))\n"
    )
    assert run_fresh(code) == "[]"


def test_closed_form_commands_load_no_numpy(tmp_path):
    code = (
        "import contextlib, io, sys\n"
        "from entdisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [\n"
        "        cli.main(['params', 'ad(0.5)', 'extremal(1,2)']),\n"
        "        cli.main(['classify', 'mix(0.3;1.2,0.4;0.3,2.0)', 'pauli(0.5,0.6,1.1)']),\n"
        "        cli.main(['sweep', 'phi2=1.0', '--grid', 'phi1=0:3:3',\n"
        "                  '--grid', 'theta1=0:3:3', '--out', sys.argv[1]]),\n"
        "    ]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert run_fresh(code, str(tmp_path / "s.csv")) == "[0, 0, 0] []"
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 10


def test_submodules_resolve_on_first_use():
    code = (
        "import sys, entdisc\n"
        "before = 'entdisc.oracle' in sys.modules\n"
        "from entdisc import channels, discrim, oracle\n"
        "assert entdisc.oracle is oracle is sys.modules['entdisc.oracle']\n"
        "assert oracle.SearchConfig and channels.parse_channel and discrim.classify_pair\n"
        "print(before, hasattr(entdisc, 'no_such_module'))\n"
    )
    assert run_fresh(code) == "False False"


def test_benchmark_layers_resolve():
    # the traced benchmark wraps the public functions of entdisc.<layer>
    # for each of its layers, and splits the named functions into rows
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer in tracing.LAYERS:
        importlib.import_module(f"entdisc.{layer}")
    for name in tracing.LABELS:
        layer, attr = name.split(".")
        assert layer in tracing.LAYERS
        assert callable(getattr(importlib.import_module(f"entdisc.{layer}"), attr))


def test_benchmark_cross_check_runs_on_clean_outcomes(monkeypatch):
    # the benchmark's correctness check re-derives outputs with the oracle,
    # through the SearchConfig fields and the brute_max_entangled mode it
    # passes; a change that breaks that call shows here
    import importlib.util

    from entdisc import channels, discrim, oracle

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    lit1, lit2 = "ad(0.7)", "mix(0.3;1.2,0.4;0.3,2.0)"
    c1, c2 = channels.parse_channel(lit1), channels.parse_channel(lit2)
    params = discrim.compute_params(c1, c2)
    probe, _ = oracle.optimal_entangled_probe(c1, c2)
    distance, _ = oracle.simulate(c1, c2, probe, 100, 1)
    outcomes = [
        workloads.Outcome(
            workloads.Op("classify", ["classify", lit1, lit2]), 0.001, 0, "",
            evidence=[("maxima", lit1, lit2, params.single.value, params.entangled.value)],
        ),
        workloads.Outcome(
            workloads.Op("simulate", ["simulate", lit1, lit2, "--optimal"]), 0.001, 0, "",
            evidence=[("probe", lit1, lit2, "entangled", distance)],
        ),
    ]
    assert workloads.cross_check(outcomes, "verify-tree", 3) == 2
    assert [o.problems for o in outcomes] == [[], []]
