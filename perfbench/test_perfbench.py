"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke runs start ``run.py`` as a separate process, as the benchmark is
run for real, with a fraction of a second of measuring.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(name, trace):
    result = result_of(
        bench("--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", trace)
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Whether the library's outputs pass is what the benchmark reports, not
    # what this test checks; the verdict must agree with the failure count.
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exact_counts_repeat_for_a_seed():
    def counts():
        metrics = result_of(
            bench("--workload", "sweep-map", "--seed", "3", "--seconds", "0.2",
                  "--trace", "1")
        )["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] in ("calls/op", "bytes/op", "ratio")}

    first = counts()
    assert first["discrim.profile_evals"] > 0
    assert first == counts()


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-map", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    def first(seed, n=40):
        stream = workloads.WORKLOADS[name].requests(seed, "work")
        return [op.argv for op in itertools.islice(stream, n)]

    assert first(11) == first(11)
    assert first(11) != first(12)


def test_cli_requests_cover_every_channel_kind():
    stream = workloads.cli_requests(5, "work")
    ops = list(itertools.islice(stream, 400))
    literals = " ".join(" ".join(op.argv[1:3]) for op in ops)
    for kind in ("identity", "ad(", "extremal(", "pauli(", "mix("):
        assert kind in literals
    assert [op.kind for op in ops[:8]] == ["classify"] * 3 + ["simulate"] + [
        "classify"
    ] * 3 + ["simulate"]
    probes = {op.argv[3].split("(")[0] for op in ops if op.kind == "simulate"}
    assert probes == {"qubit", "pair"}


def test_quasi_extreme_pairs_take_one_map_per_family_away_from_half_pi():
    rng = random.Random(0)
    for _ in range(200):
        literals = workloads._quasi_extreme_pair(rng)
        angles = [[float(x) for x in lit[len("extremal("):-1].split(",")]
                  for lit in literals]
        (t, t_again), (pi_minus_s, s) = sorted(angles, key=lambda a: a[0] != a[1])
        assert t == t_again and pi_minus_s == math.pi - s
        for angle in (t, s):
            assert abs(angle - 0.5 * math.pi) >= workloads.QUASI_EXTREME_MARGIN


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(100, 0, -1))
    assert run.tail(values) == (90, 90.0, 100)
    value, pct, n = run.tail(range(21))
    assert value == 10 and sum(v > value for v in range(21)) == 10
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0, 4)


def test_self_time_subtracts_merged_child_coverage():
    S = tracing.Span
    spans = [
        S("root", 0, -1, 0, 100),
        S("a", 0, 0, 10, 40),
        S("b", 0, 0, 30, 60),  # overlaps a
        S("a.leaf", 0, 1, 15, 20),
        S("c", 0, 0, 90, 120),  # runs past the end of root
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 25, 30, 5, 30]


def test_tracer_restores_functions_and_nests_spans():
    from entdisc import discrim

    original = discrim.max_distance_entangled
    tracer = tracing.Tracer()
    tracer.install({"discrim": discrim})
    try:
        tracer.begin_op(0)
        discrim.classify_pair(
            discrim.channels.QubitChannel.extremal(0.3, 1.2),
            discrim.channels.QubitChannel.extremal(2.0, 0.4),
        )
    finally:
        tracer.uninstall()
    assert discrim.max_distance_entangled is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "discrim.classify_pair"
    assert all(s.parent >= 0 for s in tracer.spans[1:])
    assert tracer.profile_evals[0] > 10_000


def outcome(kind, argv, stdout, code=0, csv=""):
    o = workloads.Outcome(workloads.Op(kind, argv), 0.01, code, stdout, csv)
    workloads.check(o)
    return o


def test_checks_fail_bad_outputs():
    assert outcome("classify", ["classify", "a", "b"], "", code=1).problems
    bad_order = {"single": {"value": 1.0}, "entangled": {"value": 0.5}}
    assert outcome("classify", ["classify", "a", "b"], json.dumps(bad_order)).problems
    for report in ({"passed": False, "retained": 3}, {"passed": True, "retained": 0}):
        assert outcome("verify", ["verify"], json.dumps({"report": report})).problems
    one_ulp_above_2 = {"single": {"value": 1.0}, "entangled": {"value": 2.0000000000000004}}
    assert not outcome("classify", ["classify", "a", "b"],
                       json.dumps(one_ulp_above_2)).problems
    above_2 = {"single": {"value": 1.0}, "entangled": {"value": 2.0 + 1e-9}}
    assert outcome("classify", ["classify", "a", "b"], json.dumps(above_2)).problems
    short = "header\n" + "row\n" * 3
    assert outcome("sweep", ["sweep", "phi2=1", "theta2=0.2"],
                   json.dumps({"rows": 3}), csv=short).problems


def test_each_op_is_scaled_by_the_probe_samples_around_it():
    class Probe:
        samples = iter([1.0, 3.0, 5.0, 7.0])

        def sample(self):
            return next(self.samples)

    class Cli:
        @staticmethod
        def main(argv):
            print("{}")
            return 0

    stream = workloads.Workload(
        "fake", lambda seed, workdir: itertools.repeat(workloads.Op("classify", [])), 1, 1
    )
    loop = run.run_ops(Cli, Probe(), stream, 0, 0.0, min_ops=3)
    assert list(loop.speeds) == [2.0, 4.0, 6.0]
    assert list(loop.seconds) == [o.wall / o.speed for o in loop.kept]
    assert all(o.stdout == "{}\n" for o in loop.kept)


def test_a_loop_keeps_only_a_fixed_few_outputs():
    class Probe:
        def sample(self):
            return 1.0

    class Cli:
        @staticmethod
        def main(argv):
            print(json.dumps({"single": {"value": 0.5}, "entangled": {"value": 0.5}}))
            return 1 if argv[1] == "bad" else 0

    ops = itertools.cycle([workloads.Op("classify", ["classify", "a", "b"]),
                           workloads.Op("classify", ["classify", "bad", "b"])])
    stream = workloads.Workload("fake", lambda seed, workdir: ops, 1, 1)
    loop = run.run_ops(Cli, Probe(), stream, 0, 0.0, min_ops=40, keep=3)
    assert len(loop) == len(loop.kinds) == 40
    assert len(loop.kept) == 3
    # Every op is checked as it returns; only the first few failures are kept.
    assert loop.failed == 20
    assert len(loop.failures) == run.SHOWN_FAILURES


# Quasi-extreme pairs from one cos-sign family, or with an angle near pi/2,
# on which the library's single-qubit closed form reports more than the
# entangled maximum.  cli-requests leaves such pairs out (see
# workloads._quasi_extreme_pair).
DEGENERATE_QUASI_EXTREME = [
    ("extremal(2.08018903245475,1.061403621135043)",
     "extremal(0.4271619053718463,2.714430748217947)"),
    ("extremal(1.3116731288928696,1.8299195246969235)",
     "extremal(2.409854764542708,0.7317378890470853)"),
    ("extremal(2.13056136699564,2.13056136699564)",
     "extremal(2.3878926471187882,2.3878926471187882)"),
    ("extremal(1.5694388879891892,1.5694388879891892)",
     "extremal(2.858656384456965,0.2829362691328284)"),
]


@pytest.mark.xfail(
    strict=True,
    reason="discrim.max_distance_single divides a rounding residue by another "
    "when alpha = beta and |alpha + beta| = |gamma1| + |gamma2| (nearly)",
)
@pytest.mark.parametrize("pair", DEGENERATE_QUASI_EXTREME)
def test_degenerate_quasi_extreme_pairs_pass_the_checks(pair):
    import contextlib
    import io

    from entdisc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["classify", *pair])
    o = outcome("classify", ["classify", *pair], out.getvalue(), code=code)
    assert not o.problems
