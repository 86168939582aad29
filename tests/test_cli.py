import json
import math
import warnings

import pytest

from entdisc import checks, cli, discrim, oracle

PI = math.pi


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_full_damping_vs_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "params", f"extremal({PI/2},0)", "extremal(0,0)"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["schema_version"] == 1
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

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_rejected(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "verify", "--mode", "tree", "--samples", samples
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "samples" in err

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
        cfg = oracle.SearchConfig(grid_points=64, multistarts=16, rng_seed=3)
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
        code, _, _ = run_cli(
            capsys, "sweep", "lambda2=1.5", "--grid", "phi1=0:1:3",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert calls == {"single": 0, "entangled": 0}
        assert list(tmp_path.iterdir()) == []
