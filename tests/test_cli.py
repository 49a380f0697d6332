import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import gup_spectra
from gup_spectra import oracle
from gup_spectra.algebra import Representation
from gup_spectra.cli import RunConfig, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# model and representation spellings the CLI no longer takes
DROPPED_SPELLINGS = {
    "model": ("harmonic-oscillator", "harmonic_oscillator", "poschl-teller", "poschl_teller"),
    "rep": ("pi4prime",),
}


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

    def test_level_count_sets_the_first_degree(self, capsys):
        # the oracle's first degree is count + 24
        args = ("spectrum", "--model", "ho", "--tau", "0.25", "--nmax", "20",
                "--oracle", "--check")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 21
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        assert json.loads(out)["oracle"]["degrees"][0] == 45

    def test_spectrum_refuses_the_sample_count(self, capsys):
        # --grid counts display and direct-engine samples; the oracle sizes
        # its own basis, so spectrum has no --grid to take
        code, out, err = run_cli(capsys, "spectrum", "--model", "swanson", "--tau", "0.5",
                                 "--rep", "pi3", "--nmax", "4", "--oracle", "--grid", "64")
        assert code == 1 and out == ""
        assert err == "usage error: unrecognized arguments: --grid 64\n"

    def test_pi2_oracle_agrees_with_pi1(self, capsys):
        # Pi2 and Pi1 transform their own (f, g, h) to the same well, so the
        # closed forms match and the oracles agree to their round-off
        args = ("spectrum", "--model", "swanson", "--alpha", "0.1", "--beta", "0.2",
                "--tau", "0.25", "--nmax", "3", "--oracle", "--check")
        tables = []
        for rep in ("pi2", "pi1"):
            code, out, _ = run_cli(capsys, *args, "--rep", rep)
            assert code == 0
            header, rows = parse_csv(out)
            tables.append([dict(zip(header, row)) for row in rows])
        for pi2, pi1 in zip(*tables):
            for column in ("n", "energy_re", "energy_im"):
                assert pi2[column] == pi1[column]
            assert float(pi2["energy_oracle"]) == pytest.approx(
                float(pi1["energy_oracle"]), rel=1e-10)
        assert len(tables[0]) == len(tables[1]) == 4

    def test_check_breach_exit_code(self, capsys):
        # the oracle's relative errors here are about 1e-16 to 2e-15, and
        # those above --tol fail the check
        code, out, _ = run_cli(capsys, "spectrum", "--model", "ho", "--tau", "0.2",
                               "--oracle", "--check", "--tol", "1e-16")
        assert code == 2
        _, rows = parse_csv(out)
        assert len(rows) == 6
        assert any(float(r[-1]) >= 1e-16 for r in rows)

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

    @pytest.mark.parametrize("rep", [(), ("--rep", "pi1")])
    def test_negative_h_power_exit_code(self, capsys, rep):
        code, out, err = run_cli(capsys, "expectation", "--tau", "0.25", "--nmax", "2",
                                 *rep, "H-1")
        assert code == 3 and out == ""
        assert "H has no inverse" in err

    def test_word_spells_powers_of_h(self, capsys):
        # <H2> = E_n^2 from the unified engine, and the direct one agrees
        level = ("--tau", "0.25", "--nmax", "2")
        code, out, _ = run_cli(capsys, "spectrum", *level)
        assert code == 0
        energies = [float(row[1]) for row in parse_csv(out)[1]]
        code, out, _ = run_cli(capsys, "expectation", *level, "H2")
        assert code == 0
        rows = parse_csv(out)[1]
        assert [row[1] for row in rows] == ["H2"] * 3
        unified = [float(row[2]) for row in rows]
        assert unified == pytest.approx([e * e for e in energies], rel=1e-12, abs=0.0)
        code, out, _ = run_cli(capsys, "expectation", *level, "--rep", "pi3", "H2")
        assert code == 0
        direct = [float(row[2]) for row in parse_csv(out)[1]]
        assert direct == pytest.approx(unified, rel=1e-8, abs=0.0)

    def test_h_word_matches_snapshot(self, capsys):
        # tests/data/expectation_h.csv is this command's output from before
        # H took a power; the CSV must not change by one byte
        code, out, _ = run_cli(capsys, "expectation", "--tau", "0.25", "--nmax", "2", "H")
        assert code == 0
        with open(os.path.join(os.path.dirname(__file__), "data", "expectation_h.csv"),
                  "rb") as fh:
            assert out.encode() == fh.read()

    def test_divergent_moment_exit_code(self, capsys):
        # lam = 0.54 at tau = 5, and <P4> integrates (1-z^2)^(lam - 2)
        code, out, err = run_cli(capsys, "expectation", "--model", "ho", "--tau", "5",
                                 "--nmax", "0", "P4")
        assert code == 3 and out == ""
        assert err.startswith("numerical failure:") and "not integrable" in err
        assert len(err.splitlines()) == 1

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

    def test_tiny_tau_energies(self, capsys):
        # the basis at level 1 is P_1 on nodes with |z| ~ 1e-20, where the
        # Jacobi recurrence's first step once cancelled to 0
        code, out, err = run_cli(capsys, "expectation", "--nmax", "3", "--tau", "1e-40", "H")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert [float(row[2]) for row in rows] == pytest.approx([0.5, 1.5, 2.5, 3.5],
                                                                rel=1e-12)

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

    @pytest.mark.parametrize("argv", [
        *((command, "--tau", "1e200", *model, *words)
          for model in ((), ("--model", "pt", "--alpha", "1", "--beta", "0.5"))
          for command, *words in (("spectrum",), ("wavefunction",), ("metric",),
                                  ("expectation", "H"),
                                  ("expectation", "--rep", "pi1", "H"))),
        ("verify", "all", "--tau", "1e200"),
        ("spectrum", "--model", "swanson", "--hbar", "1e200"),
        ("phase", "--hbar", "1e200"),
        ("spectrum", "--tau", "1e100", "--mass", "1e-100", "--oracle"),
        ("expectation", "--tau", "1", "--mass", "1e-200", "--rep", "pi1", "--nmax", "0", "H"),
        ("verify", "all", "--mass", "1e-300"),
        ("expectation", "--omega", "1e160", "--hbar", "1e-10", "--nmax", "0", "H"),
    ])
    def test_a_parameter_past_the_double_range_is_one_typed_line(self, capsys, argv):
        # float ** raises OverflowError on a square past 1.8e308
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and "Traceback" not in err
        lines = err.splitlines()
        assert lines[0] == "numerical failure: the parameters overflow the double range"
        assert all(line.startswith("warnings: ") for line in lines[1:]) and len(lines) <= 2

    @pytest.mark.parametrize("argv,reason", [
        (("expectation", "--tau", "0", "H"), "the unified integral needs tau > 0"),
        (("expectation", "--tau", "0", "--rep", "pi1", "H"),
         "the direct engine needs tau > 0"),
        (("expectation", "--model", "swanson", "--alpha", "1", "--beta", "1",
          "--tau", "0.5", "H"), "complex spectrum"),
        (("spectrum", "--rep", "pi4p", "--oracle"), "unbounded family"),
        # Swanson on the reality boundary at tau = 0: E_0 = 0, a flat well
        (("spectrum", "--model", "swanson", "--alpha", "0.5", "--beta", "0.5", "--tau", "0",
          "--oracle"), "E_0 = 0 at tau = 0"),
        (("expectation", "--nmax", "0", "+"), "empty term"),
        # a superscript is not a power: the parser reads it as a symbol
        (("expectation", "--tau", "0.2", "--nmax", "0", "X²"), "unknown symbol '²'"),
        # PT on Pi4 with beta < 0: psi_n diverges at the segment's far wall
        (("expectation", "--model", "pt", "--alpha", "1", "--beta", "-0.01", "--tau", "0.25",
          "--rep", "pi4", "--nmax", "1", "X2", "H"), "does not vanish at the wall"),
    ])
    def test_refusal_is_one_typed_line(self, capsys, argv, reason):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure:") and reason in err
        assert len(err.splitlines()) == 1

    def test_oracle_on_a_too_narrow_well_exit_code(self, capsys):
        # the base grid this well asks for is capped, not allocated
        code, out, err = run_cli(capsys, "spectrum", "--tau", "1e-12", "--oracle")
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: the well is too narrow")
        assert len(err.splitlines()) == 1

    def test_direct_level_too_thin_for_the_stencil_exit_code(self, capsys, monkeypatch):
        # at 64 samples the level keeps 4, fewer than X's order-8 stencil
        monkeypatch.setattr(oracle, "_SAMPLES", 64)
        oracle._direct_level.cache_clear()
        code, out, err = run_cli(capsys, "expectation", "--model", "swanson", "--alpha",
                                 "9.36", "--beta", "0.0265", "--tau", "1e-4", "--rep",
                                 "pi3", "--nmax", "0", "X2")
        oracle._direct_level.cache_clear()
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert lines[0].startswith("numerical failure: psi_0 on pi3 keeps 4 of 64")
        assert all(line.startswith("warnings: ") for line in lines[1:])

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
        assert payload["schema"] == "gup-spectra/2"
        assert payload["command"] == "spectrum"
        assert payload["config"]["tau"] == 0.2
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["energy_re"] == pytest.approx(0.5524937810560445)
        # only the oracle's runs carry its provenance
        assert "oracle" not in payload

    def test_oracle_provenance(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "ho", "--tau", "0.25",
                               "--nmax", "3", "--oracle", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "gup-spectra/2"
        oracle = payload["oracle"]
        assert sorted(oracle) == ["closed", "degrees", "error_estimates", "raw",
                                  "tolerance", "wall_exponents"]
        assert oracle["closed"] == [row["energy_re"] for row in payload["rows"]]
        assert oracle["tolerance"] == 1e-5
        # from count + 24 in steps of 24, until two degrees agree
        assert oracle["degrees"] == [28, 52]
        assert len(oracle["raw"]) == 2 and all(len(raw) == 4 for raw in oracle["raw"])
        assert len(oracle["error_estimates"]) == 4
        assert len(oracle["wall_exponents"]) == 2
        for row, err in zip(payload["rows"], oracle["error_estimates"]):
            # the estimate bounds the true error
            assert abs(row["energy_oracle"] - row["energy_re"]) <= err
            assert 0.0 < err < 1e-5 * row["energy_re"]
        # CSV carries no provenance
        code, out, _ = run_cli(capsys, "spectrum", "--model", "ho", "--tau", "0.25",
                               "--nmax", "3", "--oracle")
        header, rows = parse_csv(out)
        assert header == ["n", "energy_re", "energy_im", "energy_oracle", "rel_err"]
        assert len(rows) == 4

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
            assert payload["schema"] == "gup-spectra/2"
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

    @pytest.mark.parametrize("command", ["wavefunction", "metric"])
    def test_grid_is_the_row_count(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--tau", "0.2", "--grid", "5000",
                               "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["config"]["grid"] == 5000
        assert len(payload["rows"]) == 5000

    @pytest.mark.parametrize("argv, cause", [
        (("--rep", "pi4p"), "pi4p has no momentum angle"),
        (("--model", "swanson", "--alpha", "0.6", "--beta", "0.6", "--tau", "0.1"),
         "the spectrum is complex"),
        (("--tau", "0"), "tau = 0, the commutative limit")])
    def test_pair_without_states_names_its_cause(self, capsys, argv, cause):
        code, out, err = run_cli(capsys, "wavefunction", *argv)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: bound-state evaluators unavailable "
                              f"for this pair: {cause}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [("wavefunction", "--n", "-1"),
                                      ("spectrum", "--nmax", "-1")])
    def test_negative_level_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("--tau", "nan"), ("--tau", "inf"), ("--tau", "-1"),
        ("--hbar", "0"), ("--hbar", "nan"), ("--mass", "-1"), ("--omega", "inf"),
        ("--model", "swanson", "--alpha", "nan"), ("--model", "pt", "--beta", "inf"),
        # the names are the library's: Representation values, one per model
        *(("--model", name) for name in DROPPED_SPELLINGS["model"]),
        *(("--rep", name) for name in DROPPED_SPELLINGS["rep"]),
    ])
    @pytest.mark.parametrize("command", ["spectrum", "expectation"])
    def test_malformed_physical_flag_is_a_usage_error(self, capsys, command, argv):
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("line", [
        "tau = nan",
        *(f"{key} = {name}" for key, names in DROPPED_SPELLINGS.items() for name in names),
    ])
    def test_malformed_physical_value_in_a_config_file(self, capsys, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        code, out, err = run_cli(capsys, "spectrum", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1


class TestPhaseCommand:
    def test_undeformed_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--taus", "0", "--alpha-lo", "0.5",
                               "--alpha-hi", "16", "--alpha-steps", "63")
        assert code == 0
        _, rows = parse_csv(out)
        table = {float(r[1]): float(r[2]) for r in rows}
        assert table[2.0] == pytest.approx(0.125, abs=1e-12)

    def test_json_reports_each_curve_monotone(self, capsys):
        argv = ("phase", "--taus", "0.5,15,0", "--alpha-lo", "1", "--alpha-hi", "16",
                "--alpha-steps", "16")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        # one flag per curve, in --taus order: at tau 0.5 the boundary falls
        # to beta = 0 at alpha = 3 and rises again; tau 15 has no root in
        # the window, an empty curve
        assert payload["monotone"] == [False, True, True]
        assert [row["tau"] for row in payload["rows"][::16]] == [0.5, 0.0]
        # the CSV carries no flag
        code, out, _ = run_cli(capsys, *argv)
        header, _ = parse_csv(out)
        assert header == ["tau", "alpha", "beta_boundary"]

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

    @pytest.mark.parametrize("argv", [
        ("--alpha-steps", "1"),
        ("--alpha-lo", "5", "--alpha-hi", "1"),
        ("--alpha-lo", "nan"),
        ("--alpha-hi", "inf"),
    ])
    def test_malformed_alpha_window_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "phase", *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_large_alpha_roots_reverify(self, capsys):
        # dD/dbeta ~ 16 alpha, so at alpha ~ 1e7 rounding a root to 15
        # decimals alone breaks |D| < 1e-9; such roots are emitted unrounded
        code, out, err = run_cli(capsys, "phase", "--taus", "1e-6", "--alpha-lo", "1",
                                 "--alpha-hi", "1e8", "--alpha-steps", "5")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 5
        assert np.all(np.isfinite(np.array(rows, dtype=float)))

    @pytest.mark.parametrize("taus", ["abc", "", "-1", "nan", "0,inf", "0.25,-0.5"])
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


# the run keys each subcommand reads, and its own options
RUN_KEYS = {
    "spectrum": "model rep hbar mass omega tau alpha beta nmax tol format out",
    "wavefunction": "model rep hbar mass omega tau alpha beta grid format out",
    "metric": "model rep hbar mass omega tau alpha beta grid format out",
    "expectation": "model rep hbar mass omega tau alpha beta nmax format out",
    "phase": "hbar omega format out",
    "verify": "hbar mass omega tau alpha beta out",
}
OWN_OPTIONS = {
    "spectrum": "--oracle --check",
    "wavefunction": "--n",
    "metric": "",
    "expectation": "",
    "phase": "--taus --alpha-lo --alpha-hi --alpha-steps --check",
    "verify": "",
}
# each subcommand's positional arguments, for a run that gets past them
POSITIONALS = {"expectation": ["H"], "verify": ["commutators"]}
DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
DROPPED = [(command, key) for command, keys in RUN_KEYS.items()
           for key in DEFAULTS if key not in keys.split()]


class TestRunKeys:
    def test_each_subcommand_takes_the_options_it_reads(self):
        parser = build_parser()
        sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(RUN_KEYS)
        assert len(DEFAULTS) == 13 and len(DROPPED) == 22
        for command, subparser in sub.choices.items():
            options = {opt for action in subparser._actions for opt in action.option_strings}
            expected = ({f"--{key}" for key in RUN_KEYS[command].split()}
                        | set(OWN_OPTIONS[command].split()) | {"--config", "-h", "--help"})
            assert options == expected, command
            choices = {action.dest: action.choices for action in subparser._actions}
            if "--model" in options:
                assert choices["model"] == ["ho", "pt", "swanson"]
                assert choices["rep"] == sorted(rep.value for rep in Representation)

    @pytest.mark.parametrize("command, key", DROPPED)
    def test_an_option_the_subcommand_does_not_read_is_a_usage_error(
            self, capsys, command, key):
        # phase --tau is not read as an abbreviated --taus either
        code, out, err = run_cli(capsys, command, *POSITIONALS.get(command, []),
                                 f"--{key}", str(DEFAULTS[key]))
        assert code == 1 and out == ""
        assert err.startswith("usage error: unrecognized arguments: --") and err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(RUN_KEYS))
    def test_json_echoes_the_run_keys_the_subcommand_reads(self, capsys, command):
        json_format = [] if command == "verify" else ["--format", "json"]
        extra = ["--alpha-steps", "3"] if command == "phase" else []
        code, out, _ = run_cli(capsys, command, *POSITIONALS.get(command, []),
                               *json_format, *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "gup-spectra/2"
        assert sorted(payload["config"]) == sorted(RUN_KEYS[command].split())

    @pytest.mark.parametrize("command", sorted(RUN_KEYS))
    def test_a_config_file_sets_every_run_key(self, capsys, tmp_path, command):
        # one file serves every subcommand, so it may set a key one ignores
        values = dict(DEFAULTS, nmax=1, grid=64)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        extra = ["--alpha-steps", "3"] if command == "phase" else []
        code, out, err = run_cli(capsys, command, *POSITIONALS.get(command, []),
                                 "--config", str(cfg), *extra)
        assert code == 0 and out and err == ""


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

    def test_a_file_rep_selects_the_direct_engine(self, capsys, tmp_path):
        # the file's rep is read where --rep would be: engine and echo agree
        cfg = tmp_path / "pi3.cfg"
        cfg.write_text("rep=pi3\n")
        argv = ("expectation", "--tau", "0.2", "--nmax", "1", "--format", "json", "X2", "H")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["engine"] == "direct" and payload["config"]["rep"] == "pi3"
        assert run_cli(capsys, *argv, "--rep", "pi3") == (0, out, "")

    def test_expectation_takes_no_grid(self, capsys, tmp_path, monkeypatch):
        # neither engine reads a sample count from the run, so --grid is
        # refused with or without --rep; a config file's grid serves every
        # subcommand and stays, and the direct engine runs at 64 samples
        monkeypatch.setattr(oracle, "_SAMPLES", 64)
        oracle._direct_level.cache_clear()
        argv = ("expectation", "--model", "ho", "--tau", "0.2", "--nmax", "1")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid=64\n")
        for rep in ((), ("--rep", "pi1")):
            code, out, err = run_cli(capsys, *argv, *rep, "--grid", "64", "H")
            assert code == 1 and out == ""
            assert err == "usage error: unrecognized arguments: --grid\n"
            code, out, err = run_cli(capsys, *argv, *rep, "--config", str(cfg), "H")
            assert code == 0 and err == ""
            assert out == run_cli(capsys, *argv, *rep, "H")[1]
        oracle._direct_level.cache_clear()

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("taus=0.5\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 1
        assert "unknown key" in err

    @pytest.mark.parametrize("line", ["nmax=2.5", "tau=abc", "grid=", "alpha=1e"])
    def test_malformed_value_is_one_usage_line(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"model=ho\n{line}\n")
        code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and ":2: invalid " in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--config", "{tmp}/missing.cfg"),
        ("spectrum", "--config", "{tmp}"),
        ("spectrum", "--config", "{tmp}/latin1.cfg"),
        ("spectrum", "--out", "{tmp}/missing/spec.csv"),
        ("spectrum", "--out", "{tmp}"),
        ("verify", "commutators", "--out", "{tmp}"),
    ])
    def test_unusable_file_is_one_usage_line(self, capsys, tmp_path, argv):
        (tmp_path / "latin1.cfg").write_bytes("model=ho # é\n".encode("latin-1"))
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and str(tmp_path) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_invalid_values_rejected(self, capsys, tol):
        # a NaN tolerance failed every --check, and an infinite one passed any
        code, out, err = run_cli(capsys, "spectrum", "--oracle", "--check", "--tol", tol)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

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

    @pytest.mark.parametrize("tau", ["1e-4", "1e-3", "1e-2", "0.1", "0.25", "1", "5",
                                     "50"])
    def test_master_residual_suite(self, capsys, monkeypatch, tau):
        # every checked well is the transform of the Hamiltonian's (f, g, h)
        from gup_spectra import cli

        calls = []
        real = cli.to_potential

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "to_potential", counted)
        code, out, _ = run_cli(capsys, "verify", "master-residual", "--tau", tau)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        checks = payload["suites"]["master-residual"]
        assert all(c["passed"] for c in checks), checks
        assert len(calls) == len(checks) == 12

    @pytest.mark.parametrize("tau", ["1e-4", "1e-2", "0.25", "1", "5", "50"])
    def test_commutators_suite(self, capsys, tau):
        code, out, _ = run_cli(capsys, "verify", "commutators", "--tau", tau)
        assert code == 0
        payload = json.loads(out)
        checks = payload["suites"]["commutators"]
        assert all(c["passed"] for c in checks), checks
        names = [c["name"] for c in checks]
        assert any("pi4p" in name and "violates" in name for name in names)

    def test_commutators_read_the_realization_table(self, capsys, monkeypatch):
        # the sign-flipped entry of Pi4' in Pi4's place must fail Pi4's check:
        # the suite applies the table every other evaluator derives from.
        # a or P must change; b = beta a' commutes with P and passes any
        # commutator check
        from dataclasses import replace

        from gup_spectra.algebra import REALIZATIONS, Representation

        pi4, prime = REALIZATIONS[Representation.PI4], REALIZATIONS[Representation.PI4_PRIME]
        monkeypatch.setitem(REALIZATIONS, Representation.PI4, replace(
            pi4, x_fields=prime.x_fields, p_fields=prime.p_fields))
        code, out, _ = run_cli(capsys, "verify", "commutators", "--tau", "0.25")
        assert code == 2
        checks = {c["name"]: c for c in json.loads(out)["suites"]["commutators"]}
        assert not checks["commutator[pi4]"]["passed"]
        assert checks["commutator[pi4]"]["value"] > 0.1
        assert checks["commutator[pi1]"]["passed"]


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

    def test_oracle_loads_no_scipy(self):
        # the spectral eigensolver is numpy too
        done = run_fresh(_MAIN_PROBE.format(commands=[["spectrum", "--oracle", "--check"]]))
        codes, loaded = json.loads(done.stdout)
        assert codes == [0]
        assert loaded == []
        assert "warnings:" not in done.stderr

    def test_commands_run_with_scipy_blocked(self):
        # an install without scipy: importing it raises ImportError
        commands = [["spectrum", "--oracle", "--check"], ["verify", "all"]]
        done = run_fresh('import sys\nsys.modules["scipy"] = None\n'
                         + _MAIN_PROBE.format(commands=commands))
        codes, loaded = json.loads(done.stdout)
        assert codes == [0, 0]
        assert loaded == ["scipy"]


class TestReadmeQuickStart:
    def test_python_block_runs_and_holds_its_stated_values(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            (block,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
        scope = {}
        exec(block, scope)
        assert "# 0.5524937810560445" in block
        assert scope["sol"].energy(0) == 0.5524937810560445
        gram = scope["gram_matrix"](scope["sol"], 4)
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-13

    def test_package_namespace_is_what_the_bench_and_readme_call(self):
        # __all__ is the names bench/ calls as gs.* plus the one base class
        # a library caller catches; from-import binds no submodule
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        called = set()
        for name in os.listdir(os.path.join(root, "bench")):
            if name.endswith(".py"):
                with open(os.path.join(root, "bench", name), encoding="utf-8") as fh:
                    called |= set(re.findall(r"\bgs\.([A-Za-z_]\w*)", fh.read()))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            (block,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
        (imported,) = re.findall(r"from gup_spectra import \((.*?)\)", block, re.S)
        readme = {name.strip() for name in imported.split(",") if name.strip()}
        assert readme and readme <= called
        assert sorted(gup_spectra.__all__) == sorted(called | {"GupSpectraError"})
        scope = {}
        exec("from gup_spectra import *", scope)
        assert set(scope) - {"__builtins__"} == set(gup_spectra.__all__)
