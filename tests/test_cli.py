"""Command-line interface: configs, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from mstwell import PotentialSpec, probabilities
from mstwell.cli import ConfigError, main, merge_config, parse_config_text

# cheap oracle scenario shared by the comparison tests
CHEAP = [
    "--set", "packet.sigma_tilde=0.3",
    "--set", "packet.x_i_tilde=-6",
    "--set", "potential.delta_tilde=40",
    "--set", "oracle.times=0.1,0.2",
    "--set", "oracle.max_compare_points=201",
]


class TestConfigParsing:
    def test_values_comments_and_blanks(self):
        text = """
        # a comment
        potential.u_tilde = -100   # trailing comment

        packet.sigma_tilde = 0.25
        """
        cfg = parse_config_text(text)
        assert cfg == {"potential.u_tilde": "-100", "packet.sigma_tilde": "0.25"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("potential.height = 3")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("just some words")

    def test_precedence_preset_file_set(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("potential.u_tilde = 33\n")
        cfg = merge_config("figure3", str(path), ["potential.u_tilde=44"])
        assert cfg["potential.u_tilde"] == "44"
        cfg = merge_config("figure3", str(path), [])
        assert cfg["potential.u_tilde"] == "33"
        cfg = merge_config("figure3", None, [])
        assert cfg["potential.u_tilde"] == "-100"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            merge_config("figure99", None, [])


class TestExitCodes:
    def test_config_error_is_1(self, capsys):
        assert main(["amplitudes", "--set", "bogus.key=1"]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value_is_1(self, capsys):
        assert main(["amplitudes", "--set", "potential.u_tilde=tall"]) == 1

    def test_invalid_physical_parameter_is_1(self, capsys):
        # delta_tilde < 0 violates the model contract, reported as config error
        assert main(["amplitudes", "--set", "potential.delta_tilde=-5"]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_console_script_installed(self):
        out = subprocess.run(
            [sys.executable, "-m", "mstwell.cli", "--version"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0


class TestAmplitudes:
    def test_csv_schema_and_metadata(self, tmp_path, capsys):
        path = tmp_path / "amps.csv"
        code = main([
            "amplitudes", "-o", str(path),
            "--set", "amplitudes.e_min=1", "--set", "amplitudes.e_max=200",
            "--set", "amplitudes.e_count=8",
        ])
        assert code == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert any("config_sha256" in ln for ln in meta)
        assert any("mstwell" in ln for ln in meta)
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header.split(",")[:2] == ["E_tilde", "t_re"]
        assert "unitarity_residual" in header
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 8
        # all-propagating energies conserve flux at machine level
        for row in rows:
            assert float(row.split(",")[-1]) < 1e-12

    def test_probabilities_match_amplitudes(self, tmp_path):
        # T_prob and R_prob are |t|^2 and |r|^2 of the printed amplitudes,
        # with the closed exit channel (E <= Delta) pinned to 0 and 1
        path = tmp_path / "amps.csv"
        assert main([
            "amplitudes", "-o", str(path), "--set", "potential.delta_tilde=40",
            "--set", "amplitudes.e_min=15", "--set", "amplitudes.e_max=75",
            "--set", "amplitudes.e_count=7",
        ]) == 0
        rows = [
            [float(v) for v in ln.split(",")]
            for ln in path.read_text(encoding="utf-8").splitlines()[4:]
        ]
        for e, t_re, t_im, *_, r_re, r_im, t_prob, r_prob, _ in rows:
            p = probabilities(e, PotentialSpec(10.0, 40.0))
            assert t_prob == pytest.approx(p["T_prob"], rel=0.0, abs=1e-15)
            assert r_prob == pytest.approx(p["R_prob"], rel=0.0, abs=1e-15)
            if e > 40.0:
                assert t_prob == pytest.approx(abs(complex(t_re, t_im)) ** 2, rel=1e-15)
                assert r_prob == pytest.approx(abs(complex(r_re, r_im)) ** 2, rel=1e-15)
            else:
                assert (t_prob, r_prob) == (0.0, 1.0)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["amplitudes", "--set", "amplitudes.e_count=16"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_nonpositive_energy(self):
        assert main(["amplitudes", "--set", "amplitudes.e_min=-3"]) == 1


class TestDensity:
    ARGS = [
        "density",
        "--set", "grid.x_min=-0.5", "--set", "grid.x_max=1.5",
        "--set", "grid.x_count=5",
        "--set", "grid.t_min=0.2", "--set", "grid.t_max=0.4",
        "--set", "grid.t_count=2",
    ]

    def test_schema_and_ordering(self, tmp_path):
        path = tmp_path / "dens.csv"
        assert main(self.ARGS + ["-o", str(path)]) == 0
        lines = [
            ln for ln in path.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == "x_tilde,t_tilde,density,fwd,bwd,interference,error"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 10
        # t outer, x inner
        assert [float(r[1]) for r in rows[:5]] == [0.2] * 5
        assert [float(r[0]) for r in rows[:5]] == [-0.5, 0.0, 0.5, 1.0, 1.5]
        for r in rows:
            total, fwd, bwd, intf = map(float, r[2:6])
            assert total == pytest.approx(fwd + bwd + intf, rel=1e-12, abs=1e-300)

    def test_sweep_writes_per_value_files(self, tmp_path):
        path = tmp_path / "sweep.csv"
        args = self.ARGS + [
            "--set", "sweep.key=potential.delta_tilde",
            "--set", "sweep.values=0,40",
            "-o", str(path),
        ]
        assert main(args) == 0
        assert (tmp_path / "sweep_delta_tilde0.csv").exists()
        assert (tmp_path / "sweep_delta_tilde40.csv").exists()

    def test_sweep_requires_output_path(self, capsys):
        args = self.ARGS + [
            "--set", "sweep.key=potential.delta_tilde",
            "--set", "sweep.values=0,40",
        ]
        assert main(args) == 1


class TestDwell:
    def test_table(self, tmp_path):
        path = tmp_path / "dwell.csv"
        code = main([
            "dwell", "-o", str(path),
            "--set", "dwell.u_min=-50", "--set", "dwell.u_max=40",
            "--set", "dwell.u_count=3",
        ])
        assert code == 0
        lines = [
            ln for ln in path.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0].startswith("U_tilde,relative_dwell_asymptotic")
        assert len(lines) == 4
        for ln in lines[1:]:
            vals = [float(v) for v in ln.split(",")]
            # total equals the sum of its parts
            assert vals[5] == pytest.approx(vals[2] + vals[3] + vals[4], rel=1e-10)

    def test_free_profile_level_is_2(self, tmp_path):
        # U = Delta = 0 is free flight: t(E) = 1/(2 sqrt(E)) and the spectral
        # density ~ 1/sqrt(E) make the packet dwell integral diverge
        # logarithmically at E -> 0, so no quadrature target can be met
        path = tmp_path / "dwell.csv"
        code = main([
            "dwell", "-o", str(path),
            "--set", "dwell.u_min=0", "--set", "dwell.u_max=0",
        ])
        assert code == 2

    def test_nonconverged_is_2(self, tmp_path):
        # a five-panel budget cannot meet the default target: the rows are
        # still written, but the run reports a numerical failure
        path = tmp_path / "dwell.csv"
        code = main([
            "dwell", "-o", str(path),
            "--set", "quad.max_panels=5", "--set", "dwell.u_count=3",
        ])
        assert code == 2
        assert len(path.read_text(encoding="utf-8").splitlines()) == 4 + 3


class TestOracleCompare:
    def test_pass_report(self, tmp_path):
        path = tmp_path / "report.json"
        code = main(
            ["oracle-compare", "-o", str(path)]
            + CHEAP
            + ["--set", "oracle.dx_refine=1.5", "--set", "oracle.dt_refine=1.5"]
        )
        assert code == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        assert set(report) >= {
            "scenario", "grid", "distances", "norm_drift", "time_steps", "passed",
            "threshold",
        }
        assert report["passed"] is True
        for entry in report["distances"]:
            assert set(entry) == {"t", "l2", "linf"}
            assert entry["l2"] <= report["threshold"]
        assert report["norm_drift"] < 1e-8
        # every gap between samples takes at least one step
        assert isinstance(report["time_steps"], int)
        assert report["time_steps"] >= len(report["distances"])

    def test_coarsened_grid_fails_with_distance(self, tmp_path):
        # shrinking the spectral window coarsens dx well past its cap for
        # the true spectral content; the comparison must report and fail
        path = tmp_path / "report.json"
        code = main(
            ["oracle-compare", "-o", str(path)]
            + CHEAP
            + ["--set", "oracle.window_w=1.2"]
        )
        assert code == 3
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["passed"] is False
        assert max(e["l2"] for e in report["distances"]) > report["threshold"]

    def test_byte_identical_reruns(self, tmp_path):
        args = (
            ["oracle-compare"]
            + CHEAP
            + ["--set", "oracle.dx_refine=1.5", "--set", "oracle.dt_refine=1.5"]
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_times_rejected(self):
        assert main(["oracle-compare", "--set", "oracle.times=0.5,0.2"]) == 1

    @pytest.mark.parametrize(
        "setting",
        [
            "oracle.dx_refine=0",
            "oracle.dt_refine=0",
            "oracle.window_w=0",
            "oracle.window_w=-2",
            "oracle.max_compare_points=0",
        ],
    )
    def test_bad_oracle_value_rejected_before_solve(self, setting, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the grid solve started")

        monkeypatch.setattr("mstwell.cli.evolve_grid", no_solve)
        assert main(["oracle-compare"] + CHEAP + ["--set", setting]) == 1
