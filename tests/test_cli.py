import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spinpath import interferometer, lindblad
from spinpath.cli import main
from spinpath.measures import measure_report
from spinpath.pauli import SIGMA_X, SIGMA_Y, SIGMA_Z
from spinpath.states import bell_state, experiment_initial, from_pure, matrix_from_json, matrix_to_json


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0
    return json.loads(out)


def test_evolve_zero_time_returns_input(capsys):
    payload = run_json(capsys, ["evolve", "--mode", "A", "--lambda", "1", "--time", "0"])
    state = matrix_from_json(payload["state"])
    assert np.abs(state - experiment_initial()).max() < 1e-14
    assert abs(payload["measures"]["concurrence"] - 1.0) < 1e-12
    assert abs(payload["measures"]["mixedness"] - 1.0) < 1e-12


def test_evolve_mode_b_separability_border(capsys):
    payload = run_json(
        capsys,
        ["evolve", "--mode", "B", "--lambda", "1", "--time", "1.0986122886681098"],
    )
    assert payload["measures"]["concurrence"] <= 1e-6


def test_evolve_mode_a_residual_entanglement(capsys):
    payload = run_json(
        capsys,
        ["evolve", "--mode", "A", "--lambda", "1", "--time", "1.0986122886681098"],
    )
    assert abs(payload["measures"]["concurrence"] - 1.0 / 3.0) < 1e-9


def test_evolve_writes_file(tmp_path, capsys):
    out = tmp_path / "state.json"
    code, stdout = run(
        capsys,
        ["evolve", "--mode", "A", "--lambda", "0.5", "--time", "1", "--out", str(out)],
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"state", "measures"}


def test_evolve_accepts_initial_file(tmp_path, capsys):
    source = tmp_path / "initial.json"
    source.write_text(json.dumps(matrix_to_json(experiment_initial())))
    payload = run_json(
        capsys,
        ["evolve", "--mode", "A", "--lambda", "1", "--time", "0", "--initial", str(source)],
    )
    state = matrix_from_json(payload["state"])
    assert np.abs(state - experiment_initial()).max() < 1e-14


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def test_sweep_mode_a_matches_closed_curves(capsys):
    code, out = run(
        capsys,
        ["sweep", "--mode", "A", "--lambda", "1", "--time", "3.5", "--steps", "141"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["lambda_t", "mixedness", "concurrence"]
    assert rows.shape == (141, 3)
    lt = rows[:, 0]
    assert np.abs(lt - np.linspace(0.0, 3.5, 141)).max() < 1e-12
    assert np.abs(rows[:, 1] - 0.5 * (1.0 + np.exp(-2.0 * lt))).max() < 1e-10
    assert np.abs(rows[:, 2] - np.exp(-lt)).max() < 1e-10


def test_sweep_mode_b_reaches_maximal_mixing(capsys):
    code, out = run(
        capsys,
        ["sweep", "--mode", "B", "--lambda", "1", "--time", "30", "--steps", "31"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(rows[-1, 1] - 0.25) < 1e-12
    assert rows[-1, 2] == 0.0


def test_sweep_zero_lambda_constant_rows(capsys):
    code, out = run(
        capsys,
        ["sweep", "--mode", "B", "--lambda", "0", "--time", "5", "--steps", "11"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert np.all(rows[:, 0] == 0.0)
    assert np.all(rows[:, 1] == rows[0, 1])
    assert np.all(rows[:, 2] == rows[0, 2])


def test_sweep_evaluates_blocks_of_256_points(capsys, monkeypatch):
    closed_form = lindblad.evolve
    sizes = []

    def counting_evolve(rho0, spec, t):
        sizes.append(np.size(t))
        return closed_form(rho0, spec, t)

    monkeypatch.setattr(lindblad, "evolve", counting_evolve)
    energies = ["0", "0.3", "1", "0.2"]
    code, out = run(
        capsys,
        ["sweep", "--mode", "B", "--lambda", "1", "--time", "3", "--steps", "600",
         "--energies", *energies],
    )
    assert code == 0
    assert sizes == [256, 256, 88]
    _, rows = parse_csv(out)
    spec = lindblad.DecoherenceSpec(
        "B", 1.0, lindblad.SystemHamiltonian(tuple(float(e) for e in energies))
    )
    for t, row in zip(np.linspace(0.0, 3.0, 600), rows):
        report = measure_report(closed_form(experiment_initial(), spec, float(t)))
        assert abs(row[1] - report.mixedness) <= 1e-11
        assert abs(row[2] - report.concurrence) <= 1e-11


def test_sweep_rejects_more_than_a_million_points(capsys):
    code = main(
        ["sweep", "--mode", "A", "--lambda", "1", "--time", "1", "--steps", "1000001"]
    )
    assert code == 2
    assert "--steps" in capsys.readouterr().err


def _forbid_sampling(monkeypatch):
    def sample(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(interferometer, "ensemble_average_monte_carlo", sample)


def test_ensemble_and_calibrate_reject_more_than_ten_million_samples(capsys, monkeypatch):
    _forbid_sampling(monkeypatch)
    for argv in (
        ["ensemble", "--mode", "A", "--sigma", "1", "--samples", "10000001"],
        ["calibrate", "--mode", "A", "--sigmas", "1", "--samples", "10000001"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--samples" in err and "10000000" in err


def test_calibrate_rejects_more_than_32_sigmas(capsys, monkeypatch):
    _forbid_sampling(monkeypatch)
    sigmas = [str(0.1 * (i + 1)) for i in range(33)]
    assert main(["calibrate", "--mode", "A", "--sigmas", *sigmas, "--samples", "100"]) == 2
    err = capsys.readouterr().err
    assert "--sigmas" in err and "32" in err


def test_mode_b_single_field_variants_fail_before_sampling(capsys, monkeypatch):
    _forbid_sampling(monkeypatch)
    for argv in (
        ["ensemble", "--mode", "B", "--sigma", "1", "--samples", "100",
         "--variant", "single-field-both-paths"],
        ["calibrate", "--mode", "B", "--sigmas", "1", "--samples", "100",
         "--variant", "single-field-one-path"],
    ):
        assert main(argv) == 2
        assert "not supported for mode B" in capsys.readouterr().err


def test_ensemble_sigma_zero_exact(capsys):
    payload = run_json(
        capsys, ["ensemble", "--mode", "A", "--sigma", "0", "--samples", "50"]
    )
    mean = matrix_from_json(payload["monte_carlo"]["mean"])
    assert np.abs(mean - experiment_initial()).max() == 0.0
    assert max(max(row) for row in payload["monte_carlo"]["stderr_re"]) == 0.0
    assert max(max(row) for row in payload["monte_carlo"]["stderr_im"]) == 0.0


def test_ensemble_monte_carlo_agrees_with_analytic(capsys):
    payload = run_json(
        capsys,
        [
            "ensemble",
            "--mode",
            "A",
            "--sigma",
            "2",
            "--samples",
            "100000",
            "--seed",
            "42",
        ],
    )
    assert payload["max_abs_delta_over_stderr"] <= 5.0


def test_ensemble_analytic_block_is_closed_form(capsys):
    sigma = 1.0
    payload = run_json(
        capsys, ["ensemble", "--mode", "B", "--sigma", "1", "--samples", "10"]
    )
    analytic = matrix_from_json(payload["analytic"])
    e = np.exp(-(sigma**2) / 2.0)
    expected = 0.25 * np.array(
        [
            [1 - e, 0, 0, 0],
            [0, 1 + e, -2 * e, 0],
            [0, -2 * e, 1 + e, 0],
            [0, 0, 0, 1 - e],
        ],
        dtype=complex,
    )
    assert np.abs(analytic - expected).max() < 1e-12


def test_kraus_compare_single_zero_step_exact(capsys):
    payload = run_json(
        capsys,
        ["kraus-compare", "--mode", "A", "--lambda", "1", "--time", "0", "--steps", "1"],
    )
    assert payload["max_error"] == 0.0
    assert payload["convergence_order"] is None


def test_kraus_compare_mode_a_converges(capsys):
    payload = run_json(
        capsys,
        [
            "kraus-compare",
            "--mode",
            "A",
            "--lambda",
            "1",
            "--time",
            "1",
            "--steps",
            "1024",
        ],
    )
    assert payload["max_error"] <= 2e-3
    assert abs(payload["convergence_order"] - 1.0) < 0.3


def test_kraus_compare_mode_b_error_halves(capsys):
    payload = run_json(
        capsys,
        [
            "kraus-compare",
            "--mode",
            "B",
            "--lambda",
            "1",
            "--time",
            "1",
            "--steps",
            "256",
        ],
    )
    ratio = payload["max_error_half_steps"] / payload["max_error"]
    assert 1.7 <= ratio <= 2.3


def test_tomography_exact_round_trip(capsys):
    payload = run_json(capsys, ["tomography", "--shots", "0"])
    assert payload["frobenius_error_to_input"] <= 1e-9
    assert len(payload["counts"]) == 9


def test_tomography_pinned_statistical_error(capsys):
    payload = run_json(capsys, ["tomography", "--shots", "10000", "--seed", "7"])
    assert payload["frobenius_error_to_input"] <= 0.1


def test_tomography_maximally_mixed_correlators_vanish(capsys):
    shots = 10000
    payload = run_json(
        capsys,
        [
            "tomography",
            "--shots",
            str(shots),
            "--seed",
            "21",
            "--initial",
            "maximally-mixed",
        ],
    )
    estimate = matrix_from_json(payload["estimate"])
    paulis = {"I": np.eye(2, dtype=complex), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
    bound = 5.0 / np.sqrt(shots)
    for spin_name, spin_op in paulis.items():
        for path_name, path_op in paulis.items():
            if spin_name == path_name == "I":
                continue
            value = np.trace(estimate @ np.kron(spin_op, path_op)).real
            assert abs(value) <= bound


def test_calibrate_sigma_zero_point_is_exact(capsys):
    payload = run_json(
        capsys,
        ["calibrate", "--mode", "A", "--sigmas", "0", "1", "--samples", "2000"],
    )
    by_sigma = {point["sigma"]: point["lambda_t"] for point in payload["points"]}
    assert by_sigma[0.0] == 0.0


def test_calibrate_recovers_mode_coefficients(capsys):
    payload = run_json(
        capsys,
        [
            "calibrate",
            "--mode",
            "B",
            "--sigmas",
            "0.5",
            "1",
            "1.5",
            "2",
            "--samples",
            "100000",
            "--seed",
            "3",
        ],
    )
    assert payload["expected_coefficient"] == 0.5
    assert abs(payload["coefficient"] - 0.5) <= 0.01


def test_outputs_are_bitwise_reproducible(tmp_path, capsys):
    args = [
        "ensemble",
        "--mode",
        "B",
        "--sigma",
        "1.5",
        "--samples",
        "5000",
        "--seed",
        "9",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_config_errors_exit_2(capsys):
    code, _ = run(capsys, ["evolve", "--mode", "A", "--lambda", "-1", "--time", "1"])
    assert code == 2
    code, _ = run(capsys, ["evolve", "--mode", "A", "--lambda", "1", "--time", "-1"])
    assert code == 2
    code, _ = run(
        capsys, ["sweep", "--mode", "A", "--lambda", "1", "--time", "1", "--steps", "1"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--mode", "A", "--lambda", "1", "--time", "nan"],
        ["evolve", "--mode", "A", "--lambda", "0", "--time", "inf", "--energies", "0", "1", "2", "3"],
        ["sweep", "--mode", "A", "--lambda", "1", "--time", "nan", "--steps", "11"],
        ["kraus-compare", "--mode", "A", "--lambda", "1", "--time", "nan", "--steps", "4"],
    ],
    ids=["evolve-nan", "evolve-inf", "sweep-nan", "kraus-compare-nan"],
)
def test_non_finite_time_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "time must be finite" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evolve", "--mode", "A", "--lambda", "inf", "--time", "1"],
         "coupling strength must be finite and nonnegative, got inf"),
        (["ensemble", "--mode", "A", "--sigma", "nan", "--samples", "10"],
         "sigma must be finite and nonnegative, got nan"),
    ],
    ids=["evolve-lambda-inf", "ensemble-sigma-nan"],
)
def test_non_finite_coupling_and_width_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--mode", "A", "--sigmas", "1e200", "--samples", "10"],
        ["ensemble", "--mode", "A", "--sigma", "1e300", "--samples", "10"],
    ],
    ids=["calibrate", "ensemble"],
)
def test_sigma_whose_square_overflows_exits_2(capsys, argv):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma" in captured.err and "too large" in captured.err


def test_ensemble_at_the_largest_sigmas_runs_without_overflow(capsys):
    # sigma^2 is finite, but 4 sigma^2 is not.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        payload = run_json(capsys, ["ensemble", "--mode", "B", "--sigma", "1.3e154", "--samples", "10"])
    assert np.abs(matrix_from_json(payload["analytic"]) - 0.25 * np.eye(4)).max() < 1e-15


@pytest.mark.parametrize(
    "sigmas",
    [["1e100", "1"], ["1e-100", "1e-90"], ["1e-170", "2e-170"], ["5e-324"]],
    ids=["huge", "tiny", "square-underflows", "smallest"],
)
def test_calibrate_fit_at_extreme_sigmas_is_the_least_squares_coefficient(capsys, sigmas):
    # sigma^4 overflows (1e400) or underflows to 0 (1e-400, 1e-360), or even
    # sigma^2 does (1e-340); the fit must still be
    # sum(lambda_t sigma^2) / sum(sigma^4) over the reported points.
    argv = ["calibrate", "--mode", "B", "--sigmas", *sigmas, "--samples", "10"]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        payload = run_json(capsys, argv)
    squares = [Fraction(point["sigma"]) ** 2 for point in payload["points"]]
    lambda_t = [Fraction(point["lambda_t"]) for point in payload["points"]]
    expected = sum(lt * sq for lt, sq in zip(lambda_t, squares)) / sum(sq * sq for sq in squares)
    assert payload["coefficient"] == pytest.approx(float(expected), rel=1e-13, abs=0.0)
    assert np.isfinite(payload["coefficient_stderr"])


def test_evolve_mode_b_huge_coupling_exits_0(capsys):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        payload = run_json(capsys, ["evolve", "--mode", "B", "--lambda", "1e200", "--time", "1"])
    assert np.abs(matrix_from_json(payload["state"]) - 0.25 * np.eye(4)).max() < 1e-15


def test_sweep_mode_b_huge_coupling_with_split_energies_raises_no_floating_point_error(capsys):
    # t = 0 takes the sinh series and t > 0 the division; the series must not
    # be evaluated (and overflow) where it is not used.
    argv = ["sweep", "--mode", "B", "--lambda", "1e200", "--time", "1", "--steps", "3",
            "--energies", "0", "0", "1", "0"]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        code, out = run(capsys, argv)
    assert code == 0
    assert out == "lambda_t,mixedness,concurrence\n0,1,1\n5e+199,0.25,0\n1e+200,0.25,0\n"


def test_evolve_mode_b_subnormal_gap_exits_0(capsys):
    argv = ["evolve", "--mode", "B", "--lambda", "0", "--time", "0",
            "--energies", "0", "0", "0", "2.225073858507203e-309", "--initial", "bell1"]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        payload = run_json(capsys, argv)
    assert np.array_equal(matrix_from_json(payload["state"]), from_pure(bell_state(1)))


def test_tomography_shots_beyond_int64_exit_2(capsys):
    limit = np.iinfo(np.int64).max
    assert main(["tomography", "--shots", str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"shots {limit + 1} exceeds the limit of {limit}" in captured.err
    assert main(["tomography", "--shots", str(limit)]) == 0
    capsys.readouterr()


def test_missing_initial_file_exits_2(tmp_path, capsys):
    code, _ = run(
        capsys,
        [
            "evolve",
            "--mode",
            "A",
            "--lambda",
            "1",
            "--time",
            "1",
            "--initial",
            str(tmp_path / "absent.json"),
        ],
    )
    assert code == 2


def test_invalid_initial_matrix_exits_2(tmp_path, capsys):
    # Every rejection of a state file names the file, and is a usage error.
    cases = [
        (matrix_to_json(np.eye(4, dtype=complex)), "trace"),
        ({"dim": 3, "re": [[1.0]], "im": [[0.0]]}, "unsupported dim: 3"),
        ({"shots": 0}, "no 4x4 matrix found in state file"),
        ({"dim": 4, "re": [[1.0]], "im": [[0.0]]},
         "matrix json parts must be 4x4, got (1, 1) and (1, 1)"),
    ]
    for index, (content, message) in enumerate(cases):
        bad = tmp_path / f"bad{index}.json"
        bad.write_text(json.dumps(content))
        code = main(
            ["evolve", "--mode", "A", "--lambda", "1", "--time", "1", "--initial", str(bad)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: state file {str(bad)!r}: ")
        assert message in captured.err


def test_argparse_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["evolve", "--mode", "Q", "--lambda", "1", "--time", "1"])
    assert excinfo.value.code == 2


EVOLVE_A = ["evolve", "--mode", "A", "--lambda", "1", "--time", "1"]


def test_state_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bin.json"
    bad.write_bytes(b"\xff\xfe")
    code = main(EVOLVE_A + ["--initial", str(bad)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: state file {str(bad)!r} is not valid json: ")


def test_state_file_nested_too_deeply_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code = main(EVOLVE_A + ["--initial", str(deep)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: state file {str(deep)!r} ")


@pytest.mark.parametrize("target", ["missing-dir/state.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    path = str(tmp_path / target)
    code = main(EVOLVE_A + ["--out", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot write output file {path!r}: ")


def test_main_reuses_one_parser(capsys, monkeypatch):
    assert main(EVOLVE_A) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(EVOLVE_A) == 0
    assert main(["tomography", "--shots", "0"]) == 0
    assert main(["sweep", "--mode", "B", "--lambda", "1", "--time", "1", "--steps", "5"]) == 0
    capsys.readouterr()
    assert built == []


def test_flags_of_one_call_do_not_leak_into_the_next(capsys):
    _, first = run(capsys, EVOLVE_A)
    _, split = run(capsys, EVOLVE_A + ["--energies", "1", "2", "3", "4"])
    _, again = run(capsys, EVOLVE_A)
    assert split != first
    assert again == first


def test_usage_error_leaves_the_next_call_intact(capsys):
    _, expected = run(capsys, EVOLVE_A)
    with pytest.raises(SystemExit) as excinfo:
        main(["evolve", "--lambda", "5", "--time", "2", "--energies", "1", "2", "3", "4",
              "--mode", "Q"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert run(capsys, EVOLVE_A) == (0, expected)


def test_out_file_then_stdout(tmp_path, capsys):
    target = tmp_path / "state.json"
    assert run(capsys, EVOLVE_A + ["--out", str(target)]) == (0, "")
    assert run(capsys, EVOLVE_A + ["--out", "-"]) == (0, target.read_text())


def test_module_entry_point_matches_in_process_main(capsys):
    argv = ["evolve", "--mode", "B", "--lambda", "1", "--time", "1.0986", "--initial", "singlet"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    fresh = subprocess.run(
        [sys.executable, "-m", "spinpath.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert fresh.returncode == 0, fresh.stderr
    run(capsys, ["tomography", "--shots", "100", "--seed", "3"])
    run(capsys, EVOLVE_A + ["--energies", "1", "2", "3", "4"])
    assert run(capsys, argv) == (0, fresh.stdout)
