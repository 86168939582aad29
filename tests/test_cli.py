import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from entdisc import channels, checks, cli, discrim, oracle

ROOT = Path(__file__).resolve().parent.parent

PI = math.pi


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_digest(capsys, *argvs):
    """sha256 of the stdout of each request in turn; each must exit 0."""
    h = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        h.update(out.encode())
    return h.hexdigest()


class TestParams:
    def test_full_damping_vs_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "params", f"extremal({PI/2},0)", "extremal(0,0)"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["schema_version"] == 3
        p = rec["params"]
        assert p["alpha"] == 0
        assert p["beta"] == -1
        assert p["gamma1"] == pytest.approx(-1, abs=1e-15)
        assert p["gamma2"] == 0
        assert p["P"] == -1

    def test_identical_channels_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "params", "ad(0.9)", "ad(0.9)")
        assert code == 0
        p = json.loads(out)["params"]
        assert all(p[k] == 0 for k in ("alpha", "beta", "gamma1", "gamma2"))

    def test_angle_out_of_range_fails(self, capsys):
        code, out, err = run_cli(capsys, "params", "extremal(4.0,0)", "identity")
        assert code == 1
        assert "extremal(4.0,0)" in err

    def test_bad_token_named_in_error(self, capsys):
        code, _, err = run_cli(capsys, "params", "extremal(oops,0)", "identity")
        assert code == 1
        assert "oops" in err


class TestClassify:
    def test_damping_pair(self, capsys):
        code, out, _ = run_cli(capsys, "classify", f"ad({PI/3})", f"ad({PI/6})")
        assert code == 0
        rec = json.loads(out)
        assert rec["classification"]["useful"] is False
        assert rec["single"]["value"] == pytest.approx(1.0)
        assert rec["entangled"]["value"] == pytest.approx(1.0)
        assert rec["success_single"] == pytest.approx(0.75)
        assert rec["success_entangled"] == pytest.approx(0.75)

    def test_quasi_extreme_pair_reports_t1(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "extremal(0.7,0.7)", "extremal(1.1,1.1)"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["classification"]["useful"] is False
        assert "T1" in rec["classification"]["node"]

    def test_useful_pair(self, capsys):
        # swapped-role extremal pair with an interior optimum
        code, out, _ = run_cli(
            capsys, "classify", "extremal(0,0.6)", f"extremal(0,{PI/2 + 0.1})"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["classification"]["useful"] is True
        assert rec["gap"] > 0.05

    @pytest.mark.parametrize(
        "c1, c2, node",
        [
            (
                "identity",
                "pauli(0.6928971045702548,0.9237189036974383,0.4328441767851246)",
                "T3/A.1",
            ),
            (
                "pauli(0.18609777298012653,0.9492751172317063,1.6256168377945202)",
                "pauli(0.5668663243924247,0.9782738599927818,2.3230764734565414)",
                "T3/A.3",
            ),
        ],
    )
    def test_rounding_tie_is_not_useful(self, capsys, c1, c2, node):
        # |alpha| vs |gamma_m| (B.1) and |gamma_M| vs |P| (B.4) are equal in
        # exact arithmetic for these Pauli pairs; a rounding-size slack must
        # not make the pair useful
        code, out, _ = run_cli(capsys, "classify", c1, c2)
        assert code == 0
        rec = json.loads(out)
        assert rec["classification"]["node"] == node
        assert rec["classification"]["useful"] is False
        assert rec["classification"]["boundary"] is True
        assert abs(rec["gap"]) <= 1e-9

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "classify", "ad(0.8)", "ad(0.3)")
        _, out2, _ = run_cli(capsys, "classify", "ad(0.8)", "ad(0.3)")
        assert out1 == out2


class TestSweep:
    def test_two_by_two_grid(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "phi2=0.4",
            "theta2=0.1",
            "--grid", "phi1=0:3.1:2",
            "--grid", "theta1=0:3.1:2",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 5
        assert json.loads(out)["rows"] == 4

    def test_quasi_extreme_diagonal_is_never_useful(self, tmp_path, capsys):
        out_path = tmp_path / "quasi.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "phi2=0.7", "theta2=0.7",
            "--grid", "phi1=0.1:3.0:8",
            "--grid", "theta1=0.1:3.0:8",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")[1:]
        diag = 0
        for line in lines:
            cells = line.split(",")
            if cells[0] == cells[1]:  # phi1 == theta1: quasi-extreme channel 1
                diag += 1
                assert cells[6] == "false"
        assert diag == 8

    def test_gap_never_negative(self, tmp_path, capsys):
        out_path = tmp_path / "gap.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "phi2=1.0", "theta2=0.2", "lambda1=0.6", "phi1p=2.0", "theta1p=1.5",
            "--grid", "phi1=0:3.14:9",
            "--grid", "theta1=0:3.14:9",
            "--out", str(out_path),
        )
        assert code == 0
        for line in out_path.read_text().strip().split("\n")[1:]:
            assert float(line.split(",")[-1]) >= -1e-9

    def test_single_axis_leaves_axis2_empty(self, tmp_path, capsys):
        out_path = tmp_path / "one.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--grid", "phi1=0:3:4", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[1].split(",")[1] == ""

    def test_duplicate_axes_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "sweep",
            "--grid", "phi1=0:1:2", "--grid", "phi1=0:2:3",
            "--out", str(tmp_path / "dup.csv"),
        )
        assert code == 1
        assert "phi1" in err

    def test_fixed_parameter_on_an_axis_rejected(self, tmp_path, capsys):
        # the axis would silently override the fixed value
        out_path = tmp_path / "s.csv"
        code, out, err = run_cli(
            capsys, "sweep", "phi1=0.5", "--grid", "phi1=0:1:2", "--out", str(out_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "phi1" in err
        assert not out_path.exists()

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--grid", "bogus=0:1:2", "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert "bogus" in err

    def test_unwritable_path_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--grid", "phi1=0:1:2",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "fix, named",
        [
            (["phi2=1", "phi2=2"], "'phi2' given twice"),
            (["phi2"], "'phi2'"),  # no '=' at all
            (["theta2=abc"], "'theta2=abc'"),
        ],
    )
    def test_bad_fixed_item_named(self, tmp_path, capsys, fix, named):
        out_path = tmp_path / "s.csv"
        code, out, err = run_cli(
            capsys, "sweep", *fix, "--grid", "phi1=0:1:2", "--out", str(out_path)
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and named in err
        assert "could not convert" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "spec", ["theta1=0:inf:2", "theta1=-inf:1:3", "theta1=nan:1:2", "theta1=0:1e999:2"]
    )
    def test_non_finite_axis_bound_rejected(self, tmp_path, capsys, spec):
        # unchecked, 0:inf:2 fails at its first cell on inf * 0 = nan, a
        # value nobody typed
        out_path = tmp_path / "s.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--grid", spec, "--out", str(out_path)
        )
        assert code == 1 and out == ""
        assert err == f"error: axis bounds must be finite, got {spec!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_axis_span_rejected(self, tmp_path, capsys):
        # both bounds are finite, but stop - start overflows to inf; unchecked,
        # the cells became nan and the run failed with "phi must lie in
        # [0, pi], got nan", naming no axis
        out_path = tmp_path / "s.csv"
        code, out, err = run_cli(
            capsys, "sweep", "phi2=1", "theta2=0.2",
            "--grid", "phi1=-1e308:1e308:3", "--grid", "theta1=0:1:2",
            "--out", str(out_path),
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "phi1" in err and "nan" not in err
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def reference_rows(fix, grid):
        """The CSV rows of a sweep, built cell by cell from channel objects,
        ``classify_pair`` and the JSON scalar emitter."""
        values = {name: 0.0 for name in cli.SWEEP_PARAMS}
        values.update(lambda1=1.0, lambda2=1.0)
        values.update((k, float(v)) for k, v in (f.split("=") for f in fix))
        axes = []
        for spec in grid:
            name, _, bounds = spec.partition("=")
            start, stop, steps = bounds.split(":")
            start, stop, steps = float(start), float(stop), int(steps)
            axes.append(
                (name, [start + (stop - start) * i / (steps - 1) for i in range(steps)])
            )
        if len(axes) == 1:
            axes.append((None, [None]))
        rows = []
        for v1 in axes[0][1]:
            for v2 in axes[1][1]:
                cell = values | {axes[0][0]: v1, axes[1][0]: v2}
                c1, c2 = (
                    channels.QubitChannel(
                        cell[f"lambda{i}"],
                        channels.ExtremalChannel(cell[f"phi{i}"], cell[f"theta{i}"]),
                        channels.ExtremalChannel(cell[f"phi{i}p"], cell[f"theta{i}p"]),
                    )
                    for i in (1, 2)
                )
                cls = discrim.classify_pair(c1, c2)
                p = cls.params
                single, ent = p.single.value, p.entangled.value
                row = (
                    v1, "" if v2 is None else v2, p.alpha, p.beta, p.gamma1,
                    p.gamma2, cls.useful, cls.node, cls.boundary,
                    single, ent, ent - single,
                )
                rows.append(
                    ",".join(x if isinstance(x, str) else cli._emit_scalar(x) for x in row)
                )
        return rows

    ROW_CASES = [
        # each parameter alone on an axis, every other parameter fixed so
        # that both channels are proper mixtures (or, for a lambda axis,
        # reach lam = 0 and lam = 1)
        *(
            (
                [f"{k}={v}" for k, v in (
                    ("lambda1", 0.3), ("lambda2", 0.6), ("phi1", 0.4), ("theta1", 2.2),
                    ("phi2", 1.0), ("theta2", 0.2), ("phi1p", 2.0), ("theta1p", 0.4),
                    ("phi2p", 0.9), ("theta2p", 2.6),
                ) if k != name],
                [f"{name}=0:1:5" if name.startswith("lambda") else f"{name}=0:{PI!r}:7"],
            )
            for name in cli.SWEEP_PARAMS
        ),
        # two axes, every parameter on one of them at least once
        (["phi2=1.0", "theta2=0.2"], ["phi1=0:3.14159:6", "theta1=0:3.14159:6"]),
        (["phi1=0.5", "theta1=1.7", "lambda2=0.4", "phi2p=2.2"],
         ["phi2=0.1:3:5", "theta2=0.1:3:5"]),
        (["phi1=0.4", "theta1=2.2", "phi1p=2.0", "theta1p=0.4", "phi2=1.0",
          "theta2=0.2", "phi2p=0.9", "theta2p=2.6"],
         ["lambda1=0:1:5", "lambda2=0:1:5"]),
        (["lambda1=0.3", "phi1=0.4", "theta1=2.2", "lambda2=0.5", "phi2=1.0"],
         ["phi1p=0:3:4", "theta1p=0:3:4"]),
        (["lambda2=0.7", "phi2=1.0", "theta2=0.2"], ["phi2p=0:3:4", "theta2p=0:3:4"]),
        (["phi1=0.7", "theta1=2.1", "phi2=1.3", "theta2=0.5", "phi2p=2.5"],
         ["lambda1=0:1:5", "theta2p=0:3.14159:6"]),
        # primed components equal to the unprimed ones: channel 1 is
        # extremal whatever lambda1 is, and at phi1p = 0.7 (the middle
        # point of 0:1.4:3) it is again
        (["phi1=0.7", "theta1=1.1", "phi1p=0.7", "theta1p=1.1", "phi2=0.3",
          "theta2=2.0"], ["lambda1=0:1:5"]),
        (["phi1=0.7", "theta1=1.1", "theta1p=1.1", "lambda1=0.4", "phi2=0.3"],
         ["phi1p=0:1.4:3", "lambda2=0:1:3"]),
        # quasi-extreme diagonal against a quasi-extreme channel 2: T1
        # there; a mixture of two equal quasi-extreme components, a point
        # map at every lambda1; and quasi-extreme components reached at
        # lambda = 0 or 1
        (["phi2=0.7", "theta2=0.7"], ["phi1=0.1:3.0:8", "theta1=0.1:3.0:8"]),
        (["phi1=0.8", "theta1=0.8", "phi1p=0.8", "theta1p=0.8", "phi2=1.3",
          "theta2=1.3"], ["lambda1=0:1:5"]),
        (["phi1=0.4", "theta1=0.4", "phi1p=0.9", "theta1p=0.9", "phi2=1.2",
          "theta2=1.2", "phi2p=0.3", "theta2p=2.2"],
         ["lambda1=0:1:3", "lambda2=0:1:3"]),
    ]

    @pytest.mark.parametrize("fix, grid", ROW_CASES)
    def test_rows_match_classify_pair(self, tmp_path, capsys, fix, grid):
        out_path = tmp_path / "s.csv"
        argv = [a for spec in grid for a in ("--grid", spec)]
        code, _, _ = run_cli(capsys, "sweep", *fix, *argv, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().split("\n")
        assert lines[0] == cli.CSV_HEADER and lines[-1] == ""
        assert lines[1:-1] == self.reference_rows(fix, grid)

    def test_row_cases_reach_every_path(self):
        axes = [spec.split("=")[0] for _, grid in self.ROW_CASES for spec in grid]
        two_axes = {name for _, grid in self.ROW_CASES if len(grid) == 2
                    for name in (spec.split("=")[0] for spec in grid)}
        assert set(axes) == set(two_axes) == set(cli.SWEEP_PARAMS)
        nodes = {
            row.split(",")[7]
            for fix, grid in self.ROW_CASES
            for row in self.reference_rows(fix, grid)
        }
        assert "T1" in nodes and len(nodes) >= 6

    # Digests of the README region map and of a mixture map on its grid,
    # taken from a sweep that built channel objects per cell.  They hold
    # on a platform whose libm rounds cos and sin as x86-64 glibc does.
    # The README map was re-pinned when discrim's squares became products
    # x * x: one of its 1681 rows moved, by 2.2e-16, with no verdict, node
    # or boundary flag moving.
    @pytest.mark.parametrize(
        "fix, digest",
        [
            pytest.param(
                ["phi2=1.0", "theta2=0.2"],
                "473b93684bc34bfbf3918b81ad5f583627ab08024473571198708c382977c48a",
                id="readme",
            ),
            pytest.param(
                ["phi2=1.0", "theta2=0.2", "lambda1=0.3", "phi1p=2.0", "theta1p=0.4"],
                "bc7b7b59e70474f8bdfc18d84587619867605e7fbf1373d988698ed84ef8d1da",
                id="mixture",
            ),
        ],
    )
    def test_readme_grid_golden(self, tmp_path, capsys, fix, digest):
        out_path = tmp_path / "region.csv"
        code, _, _ = run_cli(
            capsys, "sweep", *fix,
            "--grid", "phi1=0:3.14159:41", "--grid", "theta1=0:3.14159:41",
            "--out", str(out_path),
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_cell_builds_no_channel(self, tmp_path, capsys, monkeypatch):
        built = {"extremal": 0, "mixture": 0}
        angles = []

        def counting(kind, cls):
            post_init = cls.__post_init__

            def wrapper(self):
                built[kind] += 1
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", wrapper)

        counting("extremal", channels.ExtremalChannel)
        counting("mixture", channels.QubitChannel)
        cos_sin = discrim.cos_sin

        def recording(x):
            angles.append(x)
            return cos_sin(x)

        monkeypatch.setattr(discrim, "cos_sin", recording)
        code, _, _ = run_cli(
            capsys, "sweep", "phi2=1.0", "theta2=0.2", "lambda1=0.3",
            "phi1p=2.0", "theta1p=0.4",
            "--grid", "phi1=0.2:3.0:9", "--grid", "theta1=0.1:2.9:9",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        # validation reads each parameter's range from channels, and builds
        # no channel either
        assert built == {"extremal": 0, "mixture": 0}
        # one trig pass per distinct angle: the axis values and the fixed
        # phi2, theta2, phi1p, theta1p and phi2p = theta2p = 0
        phi1 = [0.2 + (3.0 - 0.2) * i / 8 for i in range(9)]
        theta1 = [0.1 + (2.9 - 0.1) * i / 8 for i in range(9)]
        assert len(angles) == len(set(angles))
        assert set(angles) == {*phi1, *theta1, 1.0, 0.2, 2.0, 0.4, 0.0}



class TestSweepOutFile:
    """``--out`` is written in place and cut at the end of the new rows."""

    GRID = ("phi2=1.0", "theta2=0.2",
            "--grid", "phi1=0.3:2.8:5", "--grid", "theta1=0.3:2.8:5")

    def sweep(self, capsys, out):
        return run_cli(capsys, "sweep", *self.GRID, "--out", str(out))

    def fresh_bytes(self, capsys, tmp_path):
        fresh = tmp_path / "fresh.csv"
        code, _, _ = self.sweep(capsys, fresh)
        assert code == 0
        return fresh.read_bytes()

    @pytest.mark.parametrize(
        "old", [b"X" * 20_000 + b"\n", b"short\n", b""], ids=["longer", "shorter", "empty"]
    )
    def test_old_contents_leave_no_trace(self, tmp_path, capsys, old):
        expected = self.fresh_bytes(capsys, tmp_path)
        out = tmp_path / "old.csv"
        out.write_bytes(old)
        code, stdout, _ = self.sweep(capsys, out)
        assert code == 0
        assert json.loads(stdout)["rows"] == 25
        assert out.read_bytes() == expected

    def test_dev_null(self, capsys):
        code, stdout, err = self.sweep(capsys, os.devnull)
        assert (code, err) == (0, "")
        assert json.loads(stdout)["out"] == os.devnull

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_huge_grid_streams_into_a_full_device(self):
        # the axes were lists of every value, and under this 1 GiB
        # address-space limit the sweep ended in a MemoryError traceback
        resource = pytest.importorskip("resource")
        limit = 1 << 30

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        steps = 10**11
        proc = subprocess.run(
            [sys.executable, "-m", "entdisc.cli", "sweep",
             "--grid", f"phi1=0:1:{steps}", "--grid", f"theta1=0:1:{steps}",
             "--out", "/dev/full"],
            env=env, capture_output=True, text=True, timeout=30,
            preexec_fn=limit_memory,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: cannot write '/dev/full': ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_reader_gets_the_same_bytes(self, tmp_path, capsys):
        expected = self.fresh_bytes(capsys, tmp_path)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        try:
            code, _, err = self.sweep(capsys, fifo)
        finally:
            reader.join(timeout=10)
            if reader.is_alive():  # the sweep never opened the pipe
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                reader.join()
        assert (code, err) == (0, "")
        assert got == [expected]

    def test_symlink_is_written_through(self, tmp_path, capsys):
        expected = self.fresh_bytes(capsys, tmp_path)
        target = tmp_path / "target.csv"
        target.write_bytes(b"X" * 20_000)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _, _ = self.sweep(capsys, link)
        assert code == 0
        assert link.is_symlink()
        assert target.read_bytes() == expected

    def test_existing_file_keeps_its_mode(self, tmp_path, capsys):
        out = tmp_path / "old.csv"
        out.write_bytes(b"X" * 20_000)
        out.chmod(0o640)
        code, _, _ = self.sweep(capsys, out)
        assert code == 0
        assert out.stat().st_mode & 0o7777 == 0o640

    @pytest.mark.parametrize("k", [1, 7, 25])
    def test_cell_that_raises_leaves_only_the_rows_written(
        self, tmp_path, capsys, monkeypatch, k
    ):
        rows = self.fresh_bytes(capsys, tmp_path).splitlines(keepends=True)
        classify_moments = discrim.classify_moments
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == k:
                raise ValueError("cell failed")
            return classify_moments(*args)

        monkeypatch.setattr(discrim, "classify_moments", failing)
        out = tmp_path / "old.csv"
        out.write_bytes(b"X" * 20_000)
        code, _, err = self.sweep(capsys, out)
        assert code == 1
        assert "cell failed" in err
        assert out.read_bytes() == b"".join(rows[:k])  # header + k - 1 rows

    @pytest.mark.parametrize(
        "where, reason",
        [(".", "Is a directory"), ("missing/x.csv", "No such file or directory")],
    )
    def test_unwritable_out_keeps_its_message(self, tmp_path, capsys, where, reason):
        out = tmp_path / where
        code, stdout, err = self.sweep(capsys, out)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {str(out)!r}: ")
        assert reason in err
        assert not (tmp_path / "missing").exists()

class TestVerify:
    def test_lemma1_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "lemma1", "--samples", "20", "--seed", "7"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["report"]["passed"] is True
        assert rec["report"]["max_deviation"] <= 1e-6

    def test_tree_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "tree", "--samples", "20", "--seed", "5"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["report"]["passed"] is True
        assert rec["report"]["retained"] + rec["report"]["discarded"] == 20

    def test_montecarlo_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "montecarlo", "--seed", "3",
            "--trials", "20000",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["report"]["passed"] is True
        assert len(rec["report"]["cases"]) == 3

    def test_montecarlo_golden(self, capsys):
        # re-pinned for schema_version 3 and the zoomed restricted search,
        # which moved the useful pair's distance by 5.6e-17; every empirical
        # frequency is unchanged
        digest = stdout_digest(
            capsys, ["verify", "--mode", "montecarlo", "--trials", "20000", "--seed", "3"]
        )
        assert digest == "9b36f96d4d154eaa9056911c6d2b2432532c59943200667d1145f1bb2f35d01b"

    def test_samples_outside_sampled_modes_rejected(self, capsys, monkeypatch):
        # the option used to be ignored in montecarlo mode, and the run exited 0
        def no_work(*args):
            raise AssertionError("verify ran a check")

        monkeypatch.setattr(checks, "check_montecarlo", no_work)
        code, out, err = run_cli(
            capsys, "verify", "--mode", "montecarlo", "--samples", "0",
            "--trials", "2000", "--seed", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--samples" in err and "montecarlo" in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_rejected(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "verify", "--mode", "tree", "--samples", samples
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "samples" in err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_rejected(self, capsys, monkeypatch, trials):
        # 0 used to mean "unset" and ran 10^6 trials
        def no_work(*args):
            raise AssertionError("verify ran a check")

        monkeypatch.setattr(checks, "check_montecarlo", no_work)
        code, out, err = run_cli(
            capsys, "verify", "--mode", "montecarlo", "--trials", trials
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "trials" in err

    def test_trials_outside_montecarlo_rejected(self, capsys, monkeypatch):
        # the option used to be ignored, and the run exited 0
        def no_work(*args):
            raise AssertionError("verify ran a check")

        monkeypatch.setattr(checks, "check_tree", no_work)
        code, out, err = run_cli(
            capsys, "verify", "--mode", "tree", "--samples", "2", "--trials", "5"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--trials" in err and "montecarlo" in err

    def test_negative_seed_rejected(self, capsys, monkeypatch):
        # numpy's PCG64 used to reject it with a message naming nothing
        def no_work(*args):
            raise AssertionError("verify ran a check")

        monkeypatch.setattr(checks, "check_tree", no_work)
        code, out, err = run_cli(
            capsys, "verify", "--mode", "tree", "--seed", "-1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("mode", ["tree", "lemma1", "lemma2", "montecarlo"])
    def test_negative_seed_names_the_option(self, capsys, monkeypatch, mode):
        # the message used to name the search config's field, rng_seed
        def no_work(*args):
            raise AssertionError("verify ran a check")

        monkeypatch.setattr(checks, f"check_{mode}", no_work)
        code, out, err = run_cli(capsys, "verify", "--mode", mode, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: --seed must be >= 0, got -1\n"

    def test_tree_run_retaining_nothing_fails(self, capsys):
        # the single sample of seed 4 lies within the slack of a tree split
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "tree", "--samples", "1", "--seed", "4"
        )
        assert code == 2
        report = json.loads(out)["report"]
        assert report["retained"] == 0 and report["discarded"] == 1
        assert report["passed"] is False


class TestExitCodes:
    def test_verification_failure_exits_2(self, capsys, monkeypatch):
        from entdisc import checks

        def failing(samples, seed, cfg):
            return {
                "mode": "lemma1",
                "samples": samples,
                "seed": seed,
                "tolerance": 1e-6,
                "max_deviation": 1.0,
                "failures": [{"dev": 1.0}],
                "passed": False,
            }

        monkeypatch.setattr(checks, "check_lemma1", failing)
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "lemma1", "--samples", "1", "--seed", "1"
        )
        assert code == 2
        assert json.loads(out)["report"]["passed"] is False


class TestTrialsTooLarge:
    # the draws of 10^13 trials need 72.8 TiB; numpy's MemoryError used to
    # end the run in a traceback.  10^22 trials exceed any array length, and
    # numpy refused them naming no option.  No allocation is attempted here.
    @pytest.mark.parametrize("argv", [
        ["simulate", "identity", "ad(1)", "--optimal", "--trials", str(10**13)],
        ["verify", "--mode", "montecarlo", "--trials", str(10**13)],
        ["simulate", "identity", "ad(1)", "qubit(1,0)", "--trials", str(10**22)],
        ["verify", "--mode", "montecarlo", "--trials", str(10**22)],
    ])
    def test_exits_1_naming_trials(self, capsys, monkeypatch, argv):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 72.8 TiB")

        def no_work(*args):
            raise AssertionError("the run started before refusing --trials")

        trials = int(argv[-1])
        if trials > sys.maxsize:
            # refused before any work
            monkeypatch.setattr(checks, "check_montecarlo", no_work)
            monkeypatch.setattr(oracle, "simulate", no_work)
        else:
            monkeypatch.setattr(oracle, "simulate", no_memory)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"--trials {trials} is too large" in err


# Every ordered pair of the five channel kinds with a qubit and a pair
# probe, --optimal once per kind, and a pair of equal channels.
KINDS = ["identity", "ad(1.1)", "pauli(0.3,0.4,1.2)", "extremal(0.7,2.1)",
         "mix(0.6;0.2,1.4;2.5,0.3)"]
PROBES = ["qubit(0.6,0.8j)", "pair(0.5,0.1j,-0.3,0.8)"]
SIMULATE_GOLDEN = [
    ["simulate", a, b, probe, "--trials", "2000", "--seed", str(10 * i + j + 100 * k)]
    for i, a in enumerate(KINDS)
    for j, b in enumerate(KINDS)
    if i != j
    for k, probe in enumerate(PROBES)
] + [
    ["simulate", a, KINDS[(i + 2) % 5], "--optimal", "--trials", "2000", "--seed", str(i)]
    for i, a in enumerate(KINDS)
] + [["simulate", "ad(0.9)", "ad(0.9)", "qubit(1,0)", "--trials", "2000", "--seed", "1"]]


class TestSimulate:
    def test_orthogonal_pair_probe(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "identity", f"ad({PI/2})", "qubit(0,1)",
            "--trials", "10000", "--seed", "3",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["empirical_success"] == 1.0
        assert rec["distance"] == pytest.approx(2.0, abs=1e-12)

    def test_identical_channels(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "ad(0.5)", "ad(0.5)", "qubit(1,0)",
            "--trials", "40000", "--seed", "5",
        )
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["empirical_success"] - 0.5) <= 4 * 0.5 / math.sqrt(40000)

    def test_optimal_probe(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "extremal(0,0.6)", f"extremal(0,{PI/2+0.1})", "--optimal",
            "--trials", "50000", "--seed", "11",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["inputs"]["optimal"] is True
        assert abs(rec["z"]) <= 4.0

    def test_missing_probe_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "identity", "ad(0.5)")
        assert code == 1
        assert "probe" in err

    def test_probe_with_optimal_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "identity", "ad(1)", "qubit(1,0)", "--optimal"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--optimal" in err

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "identity", "ad(1)", "qubit(1,0)", "--seed", "-1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("probe", ["qubit(1,0)", "--optimal"])
    def test_negative_seed_names_the_option(self, capsys, monkeypatch, probe):
        # the message used to name the search config's field, rng_seed
        def no_work(*args):
            raise AssertionError("simulate ran a search or an experiment")

        monkeypatch.setattr(oracle, "optimal_entangled_probe", no_work)
        monkeypatch.setattr(oracle, "simulate", no_work)
        code, out, err = run_cli(
            capsys, "simulate", "identity", "ad(1)", probe, "--seed", "-1"
        )
        assert code == 1
        assert out == ""
        assert err == "error: --seed must be >= 0, got -1\n"

    def test_complex_probe_amplitudes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "identity", "ad(1.0)", "pair(0.7071067811865476,0,0,0.7071067811865476j)",
            "--trials", "10000", "--seed", "13",
        )
        assert code == 0
        assert json.loads(out)["inputs"]["probe"] == "pair"

    def test_huge_amplitudes_normalize_without_overflow(self, capsys):
        _, expected, _ = run_cli(
            capsys, "simulate", "identity", "ad(1)", "qubit(1,1)",
            "--trials", "1000",
        )
        code, out, err = run_cli(
            capsys, "simulate", "identity", "ad(1)", "qubit(1e308,1e308)",
            "--trials", "1000",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["distance"] == json.loads(expected)["distance"]

    def test_golden_bytes(self, capsys):
        # re-pinned for the outputs read off the Choi matrices, which moved
        # 16 of the 46 distances by at most 8.9e-16; every empirical_success
        # is unchanged
        assert len(SIMULATE_GOLDEN) == 46
        assert stdout_digest(capsys, *SIMULATE_GOLDEN) == (
            "3adffbdca5396dad3df79ebcd5f38a48c3ed0386f9f947aa350979239657da50"
        )

    @pytest.mark.parametrize("probe", PROBES)
    def test_builds_each_superoperator_once(self, capsys, monkeypatch, probe):
        built = []
        choi_matrix = channels.choi_matrix

        def counted(*args, **kwargs):
            built.append(args)
            return choi_matrix(*args, **kwargs)

        monkeypatch.setattr(channels, "choi_matrix", counted)
        code, _, _ = run_cli(capsys, "simulate", "ad(1.1)", "extremal(0.7,2.1)", probe)
        assert code == 0
        assert len(built) == 2

    @pytest.mark.parametrize("probe", ["qubit(nan,1)", "qubit(1,inf)", "pair(1,0,0,nanj)"])
    def test_non_finite_amplitude_rejected(self, capsys, probe):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "simulate", "identity", "ad(1)", probe)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "non-finite" in err
        assert not caught


class TestClosedStdout:
    def test_exits_1_without_traceback(self):
        # the write used to end in a BrokenPipeError traceback
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child starts
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "entdisc.cli", "params", "identity", "ad(1)"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


class TestOneAnalysisPerPair:
    """Each closed-form maximum is computed at most once per pair, and
    only when something reads it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"single": 0, "entangled": 0}

        def counting(name, fn):
            def wrapper(p):
                counts[name] += 1
                return fn(p)

            return wrapper

        monkeypatch.setattr(
            discrim, "max_distance_single",
            counting("single", discrim.max_distance_single),
        )
        monkeypatch.setattr(
            discrim, "max_distance_entangled",
            counting("entangled", discrim.max_distance_entangled),
        )
        return counts

    def test_classify_useful_pair_scans_once(self, capsys, calls):
        code, out, _ = run_cli(
            capsys, "classify", "extremal(0,0.6)", f"extremal(0,{PI/2 + 0.1})"
        )
        assert code == 0
        assert json.loads(out)["classification"]["useful"] is True
        assert calls == {"single": 1, "entangled": 1}

    def test_sweep_scans_once_per_cell(self, tmp_path, capsys, calls):
        code, out, _ = run_cli(
            capsys, "sweep", "phi2=1.0", "theta2=0.2",
            "--grid", "phi1=0.3:2.8:3", "--grid", "theta1=0.3:2.8:3",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert json.loads(out)["rows"] == 9
        assert calls == {"single": 9, "entangled": 9}

    def test_check_tree_scans_only_useful_samples(self, monkeypatch, calls):
        verdicts = []
        classify_pair = discrim.classify_pair

        def recording(c1, c2):
            cls = classify_pair(c1, c2)
            verdicts.append(cls.useful)
            return cls

        monkeypatch.setattr(discrim, "classify_pair", recording)
        cfg = oracle.SearchConfig(grid_points=64)
        rep = checks.check_tree(12, 3, cfg)
        assert rep["retained"] + rep["discarded"] == len(verdicts) == 12
        assert 0 < sum(verdicts) < 12
        assert calls["entangled"] == sum(verdicts)

    @pytest.mark.parametrize(
        "grid, out",
        [
            ("phi1=0.3:2.8:3", "missing-dir/s.csv"),  # unwritable --out
            ("phi1=0:4:5", "s.csv"),  # last cell outside [0, pi]
        ],
    )
    def test_sweep_rejects_before_writing(self, tmp_path, capsys, calls, grid, out):
        code, stdout, err = run_cli(
            capsys, "sweep", "--grid", grid, "--grid", "theta1=0:1:3",
            "--out", str(tmp_path / out),
        )
        assert code == 1 and stdout == "" and err.startswith("error:")
        assert calls == {"single": 0, "entangled": 0}
        assert list(tmp_path.iterdir()) == []

    def test_sweep_rejects_out_of_range_fixed_value(self, tmp_path, capsys, calls):
        code, _, err = run_cli(
            capsys, "sweep", "lambda2=1.5", "--grid", "phi1=0:1:3",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert err == "error: lambda2 must lie in [0, 1], got 1.5\n"
        assert calls == {"single": 0, "entangled": 0}
        assert list(tmp_path.iterdir()) == []


class TestJsonOutput:
    """The emitter's exact bytes: every record and CSV cell goes through it."""

    def test_golden_bytes(self):
        record = {
            "nested": {"list": [1, [2.5, []], {}], "tuple": (True, None)},
            "empty": [{}, [], ()],
            "scalars": [True, False, None, 0, -7, 2**70],
            "floats": [0.1, -0.0, 1e-300, -2.5e17, 1.0 / 3.0, np.float64(-0.0)],
            "text": 'say "hi"\\ back\nslash',
        }
        expected = "\n".join([
            "{",
            '  "nested": {',
            '    "list": [',
            "      1,",
            "      [",
            "        2.5,",
            "        []",
            "      ],",
            "      {}",
            "    ],",
            '    "tuple": [',
            "      true,",
            "      null",
            "    ]",
            "  },",
            '  "empty": [',
            "    {},",
            "    [],",
            "    []",
            "  ],",
            '  "scalars": [',
            "    true,",
            "    false,",
            "    null,",
            "    0,",
            "    -7,",
            "    1180591620717411303424",
            "  ],",
            '  "floats": [',
            "    0.10000000000000001,",
            "    0,",
            "    1e-300,",
            "    -2.5e+17,",
            "    0.33333333333333331,",
            "    0",
            "  ],",
            '  "text": "say \\"hi\\"\\\\ back\\nslash"',
            "}",
        ])
        assert cli._emit_json(record) == expected
        assert cli._emit_json({}) == "{}" and cli._emit_json([]) == "[]"

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, [1.0, {"x": np.float64(math.nan)}]]
    )
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            cli._emit_json(value)

    @pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), b"x"])
    def test_unknown_type_rejected(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            cli._emit_json({"k": [value]})


class TestParserReuse:
    """One parser serves every ``main`` call in a process."""

    def test_second_call_builds_nothing(self, capsys, monkeypatch):
        run_cli(capsys, "params", "ad(0.5)", "identity")
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        code, _, _ = run_cli(capsys, "classify", "ad(0.8)", "ad(0.3)")
        assert code == 0
        assert added == []

    def test_calls_in_sequence_match_calls_alone(self, tmp_path, capsys):
        # A failing call between two good ones leaves nothing behind in the
        # shared parser: each output equals that of a fresh interpreter.
        csv = tmp_path / "s.csv"
        calls = [
            ["classify", "ad(0.8)", "extremal(1,2)"],
            ["classify", "extremal(oops,0)", "identity"],
            ["sweep", "--grid", "phi1=0:3:3", "--bogus"],
            ["sweep", "phi2=1.0", "--grid", "phi1=0:3:3", "--grid",
             "theta1=0:3:3", "--out", str(csv)],
            ["simulate", "identity", "ad(1)", "qubit(1,1)", "--trials", "500"],
        ]

        def written():
            data = csv.read_bytes() if csv.exists() else None
            csv.unlink(missing_ok=True)
            return data

        in_sequence = [(*run_cli(capsys, *argv), written()) for argv in calls]
        assert [r[0] for r in in_sequence] == [0, 1, 1, 0, 0]

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        code = "import sys\nfrom entdisc import cli\nsys.exit(cli.main(sys.argv[1:]))"
        for argv, expected in zip(calls, in_sequence):
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv], env=env, capture_output=True,
                text=True, timeout=60,
            )
            alone = (proc.returncode, proc.stdout, proc.stderr, written())
            assert alone == expected, argv

    def test_handler_replaced_after_first_call_runs(self, capsys, monkeypatch):
        run_cli(capsys, "classify", "ad(0.8)", "ad(0.3)")
        seen = []

        def replaced(args):
            seen.append((args.channel1, args.channel2))
            return 0

        monkeypatch.setattr(cli, "cmd_classify", replaced)
        code, out, _ = run_cli(capsys, "classify", "ad(0.1)", "identity")
        assert code == 0 and out == ""
        assert seen == [("ad(0.1)", "identity")]
