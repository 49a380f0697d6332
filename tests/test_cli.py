import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gup_spectra
from gup_spectra.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# Swanson's cos(theta)^(-4 eps) metric with eps ~ 1e3 overflows on Pi3
OVERFLOWING_METRIC = ("metric", "--model", "swanson", "--alpha", "9.36", "--beta",
                      "0.0265", "--rep", "pi3", "--tau", "1.55e-4")


class TestSpectrumCommand:
    def test_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "ho",
                               "--tau", "0.2", "--nmax", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "energy_re", "energy_im"]
        assert float(rows[0][1]) == pytest.approx(0.5524937810560445, abs=1e-12)

    def test_commutative_ladder(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "ho",
                               "--tau", "0", "--nmax", "4")
        _, rows = parse_csv(out)
        for n, row in enumerate(rows):
            assert float(row[1]) == pytest.approx(n + 0.5, abs=1e-12)

    def test_swanson_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "swanson",
                               "--alpha", "15", "--beta", "0.1", "--tau", "0.5",
                               "--nmax", "0")
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(2.9, abs=1e-10)

    def test_oracle_and_check(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "ho", "--tau", "0.5",
                               "--nmax", "3", "--oracle", "--check", "--tol", "1e-5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["energy_oracle", "rel_err"]
        assert all(float(r[-1]) < 1e-5 for r in rows)

    def test_byte_identical_reruns(self, capsys):
        args = ("spectrum", "--model", "swanson", "--alpha", "0.1", "--beta", "0.2",
                "--tau", "0.25", "--nmax", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1.encode() == out2.encode()
        assert "\r" not in out1
        assert all(line == line.rstrip() for line in out1.split("\n"))

    def test_numerical_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--model", "pt", "--tau", "0")
        assert code == 3
        assert "numerical failure" in err

    def test_swanson_outside_solved_regime_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--model", "swanson", "--alpha", "-3",
                                 "--beta", "0", "--tau", "0.1", "--nmax", "3")
        assert code == 3 and out == ""
        assert "alpha + beta + hbar*omega > 0" in err

    @pytest.mark.parametrize("rep", [(), ("--rep", "pi1")])
    def test_negative_position_power_exit_code(self, capsys, rep):
        code, out, err = run_cli(capsys, "expectation", "--model", "ho", "--tau", "0.2",
                                 "--nmax", "0", *rep, "X-1")
        assert code == 3 and out == ""
        assert "X has no inverse" in err

    def test_sign_without_power_is_one_message_line(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(gup_spectra.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "gup_spectra.cli", "expectation",
                               "--tau", "0.2", "--nmax", "0", "P-"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("numerical failure:")
        assert len(done.stderr.splitlines()) == 1

    @pytest.mark.parametrize("argv", [OVERFLOWING_METRIC,
                                      OVERFLOWING_METRIC + ("--format", "json")])
    def test_nonfinite_output_exit_code(self, capsys, argv):
        # inf/NaN cells are a numerical failure, not a printed result
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert "numerical failure" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [OVERFLOWING_METRIC,
                                      OVERFLOWING_METRIC + ("--format", "json")])
    def test_warnings_summarized_on_stderr(self, capsys, argv):
        # numpy RuntimeWarnings become one count line, no raw lines
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "encountered in" not in err
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("numerical failure:")
        assert lines[1].startswith("warnings: ")
        assert lines[1].endswith(" RuntimeWarning")
        assert int(lines[1].split()[1]) >= 1

    def test_nonfinite_metric_typed_line(self, capsys):
        code, out, err = run_cli(capsys, *OVERFLOWING_METRIC)
        assert code == 3
        assert out == ""
        assert err.splitlines()[0] == "numerical failure: metric produced inf or NaN values"

    @pytest.mark.parametrize("argv", [
        ("wavefunction", "--model", "ho", "--tau", "0.01"),
        ("wavefunction", "--model", "ho", "--tau", "0.01", "--format", "json"),
        ("expectation", "--tau", "0.001", "H"),
    ])
    def test_low_tau_output_is_finite(self, capsys, argv):
        # the Ferrers constant k_n leaves the double range here; the states
        # do without it
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        if "json" in argv:
            rows = json.loads(out)["rows"]
            values = [v for row in rows for v in row.values() if not isinstance(v, str)]
        else:
            _, rows = parse_csv(out)
            values = [float(v) for row in rows for v in row if v != "H"]
        assert values and np.all(np.isfinite(values))

    @pytest.mark.parametrize("argv", [
        ("expectation", "--nmax", "0", "--tau", "1e-160", "H"),
        ("verify", "orthonormality", "--tau", "1e-200"),
        ("wavefunction", "--model", "pt", "--tau", "1e-200", "--alpha", "1",
         "--beta", "0.5"),
    ])
    def test_tau_below_the_double_range_is_one_typed_line(self, capsys, argv):
        # the Jacobi chain's denominators overflow, or tau^2 underflows
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["wavefunction", "metric"])
    def test_broken_swanson_states_exit_code(self, capsys, command):
        # a complex order has no normalizable real states
        code, out, err = run_cli(capsys, command, "--model", "swanson", "--alpha", "2",
                                 "--beta", "0.1", "--tau", "0.5")
        assert code == 3 and out == ""
        assert err.startswith("numerical failure:")


class TestJsonEnvelope:
    def test_schema_fields(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "ho", "--tau", "0.2",
                               "--nmax", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["schema"] == "gup-spectra/1"
        assert payload["command"] == "spectrum"
        assert payload["config"]["tau"] == 0.2
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["energy_re"] == pytest.approx(0.5524937810560445)

    def test_every_command_supports_json(self, capsys):
        cases = [
            ("wavefunction", "--model", "ho", "--tau", "0.2", "--n", "1",
             "--grid", "64"),
            ("metric", "--model", "ho", "--tau", "0.2", "--grid", "64"),
            ("expectation", "--model", "ho", "--tau", "0.2", "--nmax", "0", "H"),
            ("phase", "--taus", "0", "--alpha-lo", "1", "--alpha-hi", "2",
             "--alpha-steps", "3"),
        ]
        for case in cases:
            code, out, _ = run_cli(capsys, *case, "--format", "json")
            assert code == 0
            payload = json.loads(out)
            assert payload["schema"] == "gup-spectra/1"
            assert payload["command"] == case[0]


class TestWavefunctionCommand:
    def test_odd_state_vanishes_at_origin(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--model", "ho",
                               "--tau", "0.2", "--n", "1", "--grid", "129")
        _, rows = parse_csv(out)
        ps = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        mid = np.argmin(np.abs(ps))
        assert abs(vals[mid]) < 1e-2 * np.max(np.abs(vals))

    def test_half_cell_states_vanish_at_origin(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--model", "pt",
                               "--tau", "0.25", "--alpha", "1", "--beta", "0.5",
                               "--n", "0", "--grid", "256")
        _, rows = parse_csv(out)
        first = abs(float(rows[0][1]))
        peak = max(abs(float(r[1])) for r in rows)
        assert first < 1e-2 * peak

    def test_metric_column_present(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "--model", "ho",
                               "--tau", "0.2", "--n", "0", "--grid", "64")
        header, rows = parse_csv(out)
        assert header == ["p", "psi_re", "psi_im", "metric"]
        assert all(float(r[3]) > 0 for r in rows)


class TestPhaseCommand:
    def test_undeformed_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--taus", "0", "--alpha-lo", "0.5",
                               "--alpha-hi", "16", "--alpha-steps", "63")
        assert code == 0
        _, rows = parse_csv(out)
        table = {float(r[1]): float(r[2]) for r in rows}
        assert table[2.0] == pytest.approx(0.125, abs=1e-12)

    def test_point_claim_check_passes(self, capsys):
        code, _, _ = run_cli(capsys, "phase", "--taus", "0,0.5", "--alpha-lo", "1",
                             "--alpha-hi", "16", "--alpha-steps", "16", "--check")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("--taus", "0.5", "--alpha-lo", "1", "--alpha-hi", "1e160", "--alpha-steps", "5"),
        ("--taus", "1e-163", "--alpha-steps", "5"),
    ])
    def test_unrepresentable_query_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, "phase", *argv)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure:") and "warnings" not in err

    def test_large_alpha_roots_reverify(self, capsys):
        # dD/dbeta ~ 16 alpha, so at alpha ~ 1e7 rounding a root to 15
        # decimals alone breaks |D| < 1e-9; such roots are emitted unrounded
        code, out, err = run_cli(capsys, "phase", "--taus", "1e-6", "--alpha-lo", "1",
                                 "--alpha-hi", "1e8", "--alpha-steps", "5")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 5
        assert np.all(np.isfinite(np.array(rows, dtype=float)))

    @pytest.mark.parametrize("taus", ["abc", ""])
    def test_malformed_tau_list_is_a_usage_error(self, capsys, taus):
        code, out, err = run_cli(capsys, "phase", "--taus", taus)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_readme_example_matches_snapshot(self, capsys):
        # tests/data/phase_readme.csv is this command's output before the
        # phase scan was vectorized; the CSV must not change by one byte
        code, out, _ = run_cli(capsys, "phase", "--taus", "0,0.25,0.5", "--alpha-lo",
                               "0.5", "--alpha-hi", "16", "--alpha-steps", "300", "--check")
        assert code == 0
        with open(os.path.join(os.path.dirname(__file__), "data", "phase_readme.csv"),
                  "rb") as fh:
            assert out.encode() == fh.read()


class TestConfigPrecedence:
    def test_file_then_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau=0.5\nnmax=1\n# comment\nmodel=ho\n")
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        _, rows = parse_csv(out)
        assert len(rows) == 2  # nmax from file
        sqrt_term = 0.5 * (1 + 0.25 / 4) ** 0.5 + 0.125
        assert float(rows[0][1]) == pytest.approx(sqrt_term, abs=1e-12)
        # flag wins over file
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg),
                               "--tau", "0")
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-13)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("taus=0.5\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 1
        assert "unknown key" in err

    def test_invalid_values_rejected(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--tol", "-1")
        assert code == 1

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "spec.csv"
        code, out, _ = run_cli(capsys, "spectrum", "--model", "ho", "--tau", "0.2",
                               "--nmax", "1", "--out", str(out_path))
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("n,energy_re,energy_im\n")
        assert text.endswith("\n")


class TestVerifyCommand:
    def test_output_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, out, _ = run_cli(capsys, "verify", "commutators", "--out", str(out_path))
        assert code == 0 and out == ""
        _, expect, _ = run_cli(capsys, "verify", "commutators")
        # the report echoes the configuration, --out included
        report = json.loads(expect)
        report["config"]["out"] = str(out_path)
        assert out_path.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_master_residual_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "master-residual")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["suites"]["master-residual"])

    def test_commutators_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "commutators")
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["suites"]["commutators"]]
        assert any("pi4p" in name and "violates" in name for name in names)


def run_fresh(probe):
    """Run ``probe`` in a new interpreter that imports gup_spectra from here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gup_spectra.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


# runs each argv through cli.main with stdout discarded, then prints the exit
# codes and the scipy modules loaded
_MAIN_PROBE = """
import contextlib, io, json, sys
from gup_spectra.cli import main
codes = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([codes, loaded]))
"""


class TestStartup:
    def test_cli_import_skips_scipy_integrate(self):
        # scipy.integrate costs about 0.3 s of every process start
        src = os.path.dirname(os.path.dirname(os.path.abspath(gup_spectra.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, gup_spectra.cli; print('scipy.integrate' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "False"

    def test_import_loads_no_scipy(self):
        # scipy.special and scipy.linalg cost about 0.3 s of every process start
        probe = ("import sys, gup_spectra, gup_spectra.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_fresh(probe).stdout.strip() == "[]"

    def test_closed_form_commands_run_without_scipy(self):
        # the unified engine's Gauss-Jacobi rule is numpy too, and so is the
        # normalization at lam ~ 1e2 and 1e3 of the last two commands
        commands = [["spectrum"], ["wavefunction", "--model", "pt"], ["metric"],
                    ["phase", "--check"], ["expectation", "--rep", "pi1"],
                    ["expectation"], ["verify", "all"],
                    ["wavefunction", "--tau", "0.01"], ["expectation", "--tau", "0.001", "H"]]
        done = run_fresh(_MAIN_PROBE.format(commands=commands))
        codes, loaded = json.loads(done.stdout)
        assert codes == [0] * len(commands)
        assert loaded == []

    def test_oracle_imports_scipy_quietly(self):
        # the first scipy import happens inside main's warning capture
        done = run_fresh(_MAIN_PROBE.format(commands=[["spectrum", "--oracle", "--check"]]))
        codes, loaded = json.loads(done.stdout)
        assert codes == [0]
        assert "scipy.linalg" in loaded
        assert "warnings:" not in done.stderr
