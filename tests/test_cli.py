"""End-to-end tests of the command-line driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfse import cli, dynamics, verify

SRC = Path(__file__).resolve().parents[1] / "src"


def read_csv(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


class TestMl:
    def test_unit_order_has_zero_decay(self, tmp_path):
        code = cli.main(["ml", "--nu", "1", "--sigma", "1", "--sign",
                         "minus", "--t-grid", "0:6.28:5",
                         "--outdir", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "ml.csv")
        assert header[:3] == ["t", "re_total", "im_total"]
        assert np.abs(rows[:, 5:]).max() == 0.0

    def test_zero_sigma_is_identity(self, tmp_path):
        code = cli.main(["ml", "--nu", "0.5", "--sigma", "0", "--t-grid",
                         "0:4:6", "--outdir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "ml.csv")
        assert np.allclose(rows[:, 1], 1.0)
        assert np.abs(rows[:, 2]).max() == 0.0

    def test_decay_value_at_time_zero(self, tmp_path):
        code = cli.main(["ml", "--nu", "0.5", "--sigma", "1", "--sign",
                         "minus", "--t-grid", "0:0:1",
                         "--outdir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "ml.csv")
        assert rows[0, 5] == pytest.approx(1.0, abs=1e-10)

    def test_json_mirror_matches_csv(self, tmp_path):
        args = ["ml", "--nu", "0.6", "--sigma", "1.5", "--t-grid", "0:2:5"]
        csv_dir, json_dir = tmp_path / "c", tmp_path / "j"
        assert cli.main(args + ["--outdir", str(csv_dir)]) == 0
        assert cli.main(args + ["--format", "json",
                                "--outdir", str(json_dir)]) == 0
        _, rows = read_csv(csv_dir / "ml.csv")
        payload = json.loads((json_dir / "ml.json").read_text())
        assert np.array_equal(np.array(payload["rows"]), rows)

    def test_manifest_written_with_checksums(self, tmp_path):
        cli.main(["ml", "--nu", "0.5", "--sigma", "1", "--t-grid", "0:1:3",
                  "--outdir", str(tmp_path)])
        manifest = json.loads((tmp_path / "ml_manifest.json").read_text())
        assert manifest["command"] == "ml"
        assert manifest["parameters"]["nu"] == 0.5
        assert "ml.csv" in manifest["outputs"]
        assert len(manifest["outputs"]["ml.csv"]) == 64

    def test_rerun_is_reproducible(self, tmp_path):
        args = ["ml", "--nu", "0.7", "--sigma", "2", "--t-grid", "0:3:7"]
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(args + ["--outdir", str(a)])
        cli.main(args + ["--outdir", str(b)])
        ma = json.loads((a / "ml_manifest.json").read_text())
        mb = json.loads((b / "ml_manifest.json").read_text())
        assert ma["outputs"] == mb["outputs"]

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ml", "--nu", "0.5", "--t-grid", "oops"])
        assert exc.value.code == 2


class TestWell:
    def test_probability_constant_at_unit_order(self, tmp_path):
        code = cli.main(["well", "--nu", "1", "--emit", "probability",
                         "--t-grid", "0:10:11", "--outdir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "well_probability.csv")
        assert np.allclose(rows[:, 1], 1.0, atol=1e-10)

    def test_energy_header_carries_limit(self, tmp_path):
        code = cli.main(["well", "--nu", "0.5", "--emit", "energy",
                         "--t-grid", "1:10:4", "--outdir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "well_energy.csv").read_text()
        assert "# limit=4" in text

    def test_energy_at_zero_is_numerical_failure(self, tmp_path, capsys):
        code = cli.main(["well", "--nu", "0.5", "--emit", "energy",
                         "--t-grid", "0:10:4", "--outdir", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_continuity_emission(self, tmp_path):
        code = cli.main(["well", "--nu", "0.5", "--emit", "continuity",
                         "--t-grid", "0.5:2:4", "--outdir", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "well_continuity.csv")
        assert header == ["t", "dpdt", "integrated_source"]
        scale = np.abs(rows[:, 1]).max()
        assert np.abs(rows[:, 1] - rows[:, 2]).max() < 0.02 * scale

    def test_continuity_balances_fast_mode(self, tmp_path):
        # nu 0.3, n 3: omega**(1/nu) is about 1500, too fast for an L1
        # memory field sampled at step 2.5e-3 to keep the balance.  nu 0.9,
        # n 2, a 1: dP/dt is small against the source terms, where a
        # 201-point grid source missed by 7.8e-2 of max|dP/dt|.
        for nu, n, a in (("0.3", "3", "3.141592653589793"),
                         ("0.9", "2", "1")):
            out = tmp_path / f"{nu}-{n}"
            code = cli.main(["well", "--nu", nu, "--n", n, "--a", a,
                             "--emit", "continuity", "--t-grid", "0.5:3:8",
                             "--outdir", str(out)])
            assert code == 0
            _, rows = read_csv(out / "well_continuity.csv")
            scale = np.abs(rows[:, 1]).max()
            assert np.abs(rows[:, 1] - rows[:, 2]).max() <= 1e-10 * scale

    def test_continuity_honours_tol(self, tmp_path, monkeypatch):
        seen = {}
        real = dynamics.well_continuity_series

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, "well_continuity_series", spy)
        code = cli.main(["well", "--nu", "0.5", "--emit", "continuity",
                         "--t-grid", "0.5:1:3", "--tol", "1e-3",
                         "--outdir", str(tmp_path)])
        assert code == 0
        assert seen["tol"] == 1e-3

    def test_potential_count_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["well", "--nu", "0.5", "--nv", "3", "--emit",
                      "probability", "--t-grid", "1:2:2",
                      "--outdir", str(tmp_path)])
        assert exc.value.code == 2


class TestFree:
    def test_unit_order_probability_constant(self, tmp_path):
        code = cli.main(["free", "--nu", "1", "--t-grid", "0.5:2:3",
                         "--lambda-grid=-6:6:41",
                         "--outdir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "free_probability.csv")
        assert np.allclose(rows[:, 1], 1.0, atol=1e-6)

    def test_split_files_sum_to_snapshot(self, tmp_path):
        code = cli.main(["free", "--nu", "0.5", "--t-grid", "1:1:1",
                         "--lambda-grid=-6:6:41",
                         "--outdir", str(tmp_path)])
        assert code == 0
        _, snap = read_csv(tmp_path / "free_snapshot_t000.csv")
        _, split = read_csv(tmp_path / "free_split_t000.csv")
        assert np.allclose(split[:, 1] + split[:, 3], snap[:, 1], atol=1e-12)
        assert np.allclose(split[:, 2] + split[:, 4], snap[:, 2], atol=1e-12)

    def test_high_order_at_zero_reproduces_packet(self, tmp_path):
        code = cli.main(["free", "--nu", "1.5", "--high-order",
                         "--t-grid", "0:0:1", "--lambda-grid=-6:6:41",
                         "--outdir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "free_probability.csv")
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-7)

    def test_probability_limits_of_the_grid(self, tmp_path):
        # The node at lambda = 0 never evolves, so the grid's sum tends to
        # its own weight plus 1/nu**2 times the rest, not to 1/nu**2.
        code = cli.main(["free", "--nu", "0.8", "--t-grid", "1:2:2",
                         "--outdir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "free_probability.csv").read_text().splitlines()
        lam = np.linspace(-8.0, 8.0, 161)
        dens = np.abs(dynamics.gaussian_packet(lam).amplitudes) ** 2
        gain = np.where(lam == 0.0, 1.0, 1.0 / 0.8 ** 2)
        grid = np.trapezoid(dens * gain, lam) / (2.0 * np.pi)
        assert grid == pytest.approx(1.530764, abs=1e-6)
        assert lines[1] == f"# limit={grid:.12g}"
        assert lines[2] == "# continuum_limit=1.5625"

    def test_high_order_writes_no_limit(self, tmp_path):
        code = cli.main(["free", "--nu", "1.5", "--high-order",
                         "--packet1", "gaussian:0:1", "--t-grid", "0:1:2",
                         "--lambda-grid=-4:4:21", "--outdir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "free_probability.csv").read_text()
        assert "limit=" not in text

    def test_x_grid_checked_before_evolution(self, tmp_path, monkeypatch,
                                             capsys):
        calls = []
        monkeypatch.setattr(dynamics, "free_spectrum_evolve",
                            lambda *a, **k: calls.append(a))
        code = cli.main(["free", "--nu", "0.5", "--x-grid", "0:1:1",
                         "--t-grid", "1:2:3", "--outdir", str(tmp_path)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    def test_near_critical_order_is_numerical_failure(self, tmp_path,
                                                      capsys):
        code = cli.main(["free", "--nu", "1.3334", "--high-order",
                         "--t-grid", "1:1:1", "--lambda-grid=-4:4:21",
                         "--outdir", str(tmp_path)])
        assert code == 3
        assert "4/3" in capsys.readouterr().err


def test_small_order_hint_names_its_window(tmp_path, capsys):
    # Below asin(0.05)/(pi/2) every ray root is within the guard's margin.
    code = cli.main(["ml", "--nu", "0.03", "--sigma", "1", "--t-grid",
                     "0.5:2:4", "--outdir", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "0.0318" in err and "4/3" not in err


class TestConfigAndVerify:
    def test_config_seeds_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = 0.5\nsigma = 1\nt-grid = 0:1:3\n")
        code = cli.main(["ml", "--config", str(cfg),
                         "--outdir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "ml_manifest.json").read_text())
        assert manifest["parameters"]["nu"] == 0.5

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu=0.5\nsigma=2\nt-grid=0:1:3\n")
        code = cli.main(["ml", "--config", str(cfg), "--sigma", "1",
                         "--outdir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "ml_manifest.json").read_text())
        assert manifest["parameters"]["sigma"] == 1.0

    def test_verify_fraccalc_suite(self, capsys):
        code = cli.main(["verify", "--suite", "fraccalc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seconds=" in out and "FAIL" not in out
        assert "all checks passed (4/4)" in out

    @pytest.mark.parametrize("flag", [["--quick"], ["--tol", "1e-3"],
                                      ["--outdir", "x"]],
                             ids=["quick", "tol", "outdir"])
    def test_verify_takes_only_suite(self, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "fraccalc", *flag])
        assert exc.value.code == 2

    def test_verify_rejects_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(name in err for name in verify.SUITES)


@pytest.mark.parametrize("argv", [
    ["ml", "--nu", "0.5", "--sigma", "-1", "--t-grid", "0:1:3"],
    ["ml", "--nu", "0.5", "--sigma", "1", "--t-grid", "0:1:3",
     "--tol", "0"],
    ["well", "--nu", "0.5", "--nm", "0", "--emit", "probability",
     "--t-grid", "1:2:3"],
    ["well", "--nu", "0.5", "--a", "-1", "--emit", "probability",
     "--t-grid", "1:2:3"],
    ["well", "--nu", "0.5", "--n", "0", "--emit", "probability",
     "--t-grid", "1:2:3"],
    ["free", "--nu", "0.5", "--x-grid", "0:1:1", "--t-grid", "1:1:1"],
    ["free", "--nu", "0.5", "--lambda-grid=-1:1:2", "--t-grid", "1:1:1"],
], ids=["negative-sigma", "zero-tol", "zero-nm", "negative-a", "zero-n",
        "one-point-x-grid", "two-node-lambda-grid"])
def test_invalid_value_is_usage_error(argv, tmp_path, capsys):
    code = cli.main(argv + ["--outdir", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_commands_do_not_load_the_checks():
    # The commands need specfun and dynamics only; verify, fraccalc and
    # oracles (with mpmath and scipy.signal) load with `tfse verify`.
    probe = ("import sys, tfse.cli; print(' '.join(m for m in ("
             "'tfse.verify', 'tfse.fraccalc', 'tfse.oracles', 'mpmath', "
             "'scipy.signal') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_csv_matches_per_value_format(tmp_path):
    columns = [[-0.0, 5e-324, 1e300, 3.0],
               np.array([np.float64(0.1), -2.0, 1e-17, 7.0]),
               [np.float64(-1.5e-300), 1 / 3, 2.0 ** 60, -0.0]]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["a", "b", "c"], columns, comments=["note"])
    rows = "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                   for row in zip(*columns))
    assert path.read_text() == "# note\na,b,c\n" + rows
