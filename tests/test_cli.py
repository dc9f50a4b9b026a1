import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginibre import ginibre_state, hermitian_ginibre_state
from spinpath import cli, interferometer, kraus, lindblad, measures, states, superop
from spinpath.cli import _dumps, main
from spinpath.measures import measure_report
from spinpath.pauli import SIGMA_X, SIGMA_Y, SIGMA_Z
from spinpath.states import (
    StateValidationError,
    bell_state,
    experiment_initial,
    from_pure,
    matrix_from_json,
    matrix_to_json,
    validate_density_matrix,
)


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


@pytest.mark.parametrize(
    "producer, key",
    [
        (["evolve", "--mode", "B", "--lambda", "0.7", "--time", "0.9", "--energies", "1", "0.5", "0", "-0.5",
          "--initial", "bell2"], "state"),
        (["tomography", "--shots", "1000", "--seed", "3", "--initial", "bell3"], "estimate"),
    ],
    ids=["evolve", "tomography"],
)
def test_one_commands_output_is_the_next_ones_initial(tmp_path, capsys, producer, key):
    source = tmp_path / "produced.json"
    assert run(capsys, [*producer, "--out", str(source)]) == (0, "")
    written = matrix_from_json(json.loads(source.read_text())[key])
    payload = run_json(
        capsys,
        ["evolve", "--mode", "A", "--lambda", "1", "--time", "0", "--initial", str(source)],
    )
    assert np.array_equal(matrix_from_json(payload["state"]), written)


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
    closed_form = lindblad._evolve
    sizes = []

    def counting_evolve(rho0, spec, t):
        sizes.append(np.size(t))
        return closed_form(rho0, spec, t)

    monkeypatch.setattr(lindblad, "_evolve", counting_evolve)
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


@pytest.mark.parametrize(
    "argv, blocks",
    [(["evolve", "--mode", "B", "--lambda", "1", "--time", "0.5"], 1),
     (["sweep", "--mode", "B", "--lambda", "1", "--time", "3", "--steps", "600"], 3)],
    ids=["evolve", "sweep"],
)
def test_each_produced_state_is_validated_once_by_measure_report(capsys, monkeypatch, argv, blocks):
    # lindblad checks the input once per closed-form call; measures checks what it produced.
    calls = {"lindblad": 0, "measures": 0}
    for module in (lindblad, measures):
        def counting(rho, name=module.__name__.split(".")[-1], check=module.validate_density_matrix):
            calls[name] += 1
            return check(rho)

        monkeypatch.setattr(module, "validate_density_matrix", counting)
    code, _ = run(capsys, argv)
    assert code == 0
    assert calls == {"lindblad": blocks, "measures": blocks}


NAMED_INITIALS = {"singlet": experiment_initial(), "bell1": from_pure(bell_state(1)),
                  "bell3": from_pure(bell_state(3)), "maximally-mixed": np.eye(4) / 4.0}


@settings(max_examples=30, deadline=None)
@given(
    mode=st.sampled_from(["A", "B"]),
    lam=st.one_of(st.sampled_from([0.0, 1e-7, 1.0, 1e200]), st.floats(0.0, 5.0)),
    end=st.one_of(st.sampled_from([1e-9, 3.5, 1e5]), st.floats(0.0, 20.0)),
    steps=st.one_of(st.integers(2, 255), st.integers(257, 700), st.sampled_from([256, 512, 513])),
    # Hundredths, so a negative energy never reads as an option ("-1e-05" would).
    energies=st.lists(st.integers(-300, 300).map(lambda k: k / 100.0), min_size=4, max_size=4),
    # A random rank 1-4 file state (a Ginibre draw) crosses the separability
    # boundary at a random time, so a block mixes certified and open states.
    initial=st.sampled_from(["singlet", "bell1", "bell3", "maximally-mixed"])
    | st.builds(
        lambda seed, rank: ginibre_state(np.random.default_rng(seed), rank), st.integers(0, 2**32 - 1), st.integers(1, 4)
    ),
)
def test_sweep_csv_is_the_12_digit_format_of_each_value(mode, lam, end, steps, energies, initial):
    with tempfile.TemporaryDirectory() as directory:
        if isinstance(initial, str):
            rho0, path = NAMED_INITIALS[initial], initial
        else:
            rho0, path = initial, os.path.join(directory, "initial.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(matrix_to_json(rho0), handle)
        argv = ["sweep", "--mode", mode, "--lambda", repr(lam), "--time", repr(end),
                "--steps", str(steps), "--energies", *map(repr, energies), "--initial", path]
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
    spec = lindblad.DecoherenceSpec(mode, lam, lindblad.SystemHamiltonian(tuple(energies)))
    times = np.linspace(0.0, end, steps)
    expected = ["lambda_t,mixedness,concurrence"]
    for start in range(0, steps, 256):
        block = times[start:start + 256]
        report = measure_report(lindblad.evolve(rho0, spec, block))
        for t, m, c in zip(block, report.mixedness, report.concurrence):
            expected.append(",".join(format(float(x), ".12g") for x in (lam * t, m, c)))
    assert out.getvalue() == "\n".join(expected) + "\n"


def test_sweep_rejects_more_than_a_million_points(capsys):
    code = main(
        ["sweep", "--mode", "A", "--lambda", "1", "--time", "1", "--steps", "1000001"]
    )
    assert code == 2
    assert "--steps" in capsys.readouterr().err


@pytest.mark.parametrize("time", ["-1", "inf", "nan"])
def test_sweep_rejects_its_time_flag_before_building_the_grid(capsys, time):
    # The message names the flag's value, not a grid point, and np.linspace
    # never sees a non-finite end.
    argv = ["sweep", "--mode", "A", "--lambda", "1", "--time", time, "--steps", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: time must be finite and nonnegative, got {float(time)!r}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _forbid_sampling(monkeypatch):
    def sample(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(interferometer, "ensemble_average_monte_carlo", sample)
    monkeypatch.setattr(interferometer, "_element_mean_monte_carlo", sample)


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


@pytest.mark.parametrize(
    "sigmas, message",
    [(["0.5", "1", "nan"], "sigma must be finite and nonnegative, got nan"),
     (["0", "0"], "calibration needs at least one nonzero sigma")],
    ids=["nan-last", "all-zero"],
)
def test_calibrate_rejects_its_sigmas_before_sampling(capsys, monkeypatch, sigmas, message):
    _forbid_sampling(monkeypatch)
    argv = ["calibrate", "--mode", "A", "--sigmas", *sigmas, "--samples", "100"]
    assert _outcome(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [["ensemble", "--sigma"], ["calibrate", "--sigmas"]])
def test_unsupported_variant_errors_use_the_hyphenated_spellings(capsys, monkeypatch, command):
    _forbid_sampling(monkeypatch)
    argv = [command[0], "--mode", "B", command[1], "1", "--samples", "10", "--variant", "single-field-one-path"]
    assert _outcome(capsys, argv) == (
        2,
        "",
        "error: variant 'single-field-one-path' is not supported for mode B; "
        "only 'both-paths-independent' is\n",
    )


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


@pytest.mark.parametrize("initial", ["singlet", "bell1", "maximally-mixed"])
def test_kraus_compare_at_65536_steps_exits_0(capsys, initial):
    payload = run_json(
        capsys,
        ["kraus-compare", "--mode", "B", "--lambda", "1.7", "--time", "0.9", "--steps", "65536",
         "--initial", initial],
    )
    assert payload["max_error"] < 3e-6
    if initial != "maximally-mixed":  # a fixed point: both errors are rounding
        assert abs(payload["convergence_order"] - 1.0) < 1e-3


@pytest.mark.parametrize("lam, steps", [("4", "3"), ("2", "2")])
def test_kraus_compare_reports_null_when_the_half_step_weight_exceeds_the_limit(capsys, lam, steps):
    # The requested run has weight <= 4/3; only the n // 2 comparison run does not.
    payload = run_json(
        capsys, ["kraus-compare", "--mode", "B", "--lambda", lam, "--time", "1", "--steps", steps]
    )
    assert payload["max_error"] > 0.0
    assert payload["max_error_half_steps"] is None
    assert payload["convergence_order"] is None


def test_kraus_compare_keeps_a_half_step_weight_of_exactly_four_thirds(capsys):
    payload = run_json(capsys, ["kraus-compare", "--mode", "B", "--lambda", "4", "--time", "1", "--steps", "6"])
    assert payload["max_error_half_steps"] > 0.0
    assert payload["convergence_order"] is not None


def test_kraus_compare_with_too_few_steps_exits_2_naming_the_fewest(capsys):
    code = main(["kraus-compare", "--mode", "B", "--lambda", "3", "--time", "1", "--steps", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "step weight lam * t / n = 1.5 exceeds 4/3 at n = 2; the fewest steps whose weight passes is n = 3" in captured.err


@pytest.mark.parametrize(
    "lam, time, energies",
    [("1", "0", "1e308"), ("1.7e308", "0", "1.7e308"), ("1.7e308", "1e-300", "1.7e308")],
)
def test_evolve_mode_b_accepts_a_gap_above_half_the_float_range(capsys, lam, time, energies):
    # 2 * dE overflows, but the pair phase 2 (|dE| t) is finite.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        payload = run_json(
            capsys,
            ["evolve", "--mode", "B", "--lambda", lam, "--time", time, "--energies", "0", energies, "0", "0"],
        )
    state = matrix_from_json(payload["state"])
    validate_density_matrix(state)
    if time == "0":
        assert np.array_equal(state, experiment_initial())


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


@pytest.mark.parametrize("mode, variant", list(interferometer._LAYOUTS))
def test_calibrate_prints_the_decay_of_the_public_estimators_mean(capsys, mode, variant):
    # Each printed lambda_t is -log(|<rho_12>| / |rho0_12|), with <rho_12>
    # the mean entry of ensemble_average_monte_carlo at seed + i, bit for
    # bit, in every layout and at sigma 0 too; 8193 shots span two blocks.
    sigmas, samples, seed = (0.0, 0.3, 1.2, 2.5), 8193, 11
    argv = ["calibrate", "--mode", mode, "--sigmas", *map(str, sigmas), "--samples", str(samples),
            "--seed", str(seed), "--variant", variant.replace("_", "-")]
    points = run_json(capsys, argv)["points"]
    rho0 = experiment_initial()
    for i, (sigma, point) in enumerate(zip(sigmas, points, strict=True)):
        setup = interferometer.FieldSetup(mode, sigma, variant)
        mean = interferometer.ensemble_average_monte_carlo(rho0, setup, samples, seed + i).mean
        lambda_t = float(-np.log(np.abs(mean[1, 2]) / np.abs(rho0[1, 2]))) + 0.0
        assert point == {"sigma": sigma, "lambda_t": lambda_t}


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


def write_pair_coherence_state(tmp_path):
    """1/4 + 0.2 (|e1><e3| + |e3><e1|) as a state file."""
    rho = 0.25 * np.eye(4, dtype=complex)
    rho[0, 2] = rho[2, 0] = 0.2
    path = tmp_path / "pair_coherence.json"
    path.write_text(json.dumps(matrix_to_json(rho)))
    return str(path)


@pytest.mark.parametrize(
    "argv, file_state",
    [
        (["evolve", "--mode", "B", "--lambda", "1e308", "--time", "1"], False),
        (["evolve", "--mode", "B", "--lambda", "1e308", "--time", "1", "--energies", "0", "1", "0", "1"], False),
        (["evolve", "--mode", "B", "--lambda", "1.5e308", "--time", "1", "--energies", "5e199", "0", "0", "0"], True),
        (["evolve", "--mode", "B", "--lambda", "1.5e308", "--time", "1", "--energies", "5e307", "0", "0", "0"], True),
    ],
    ids=["degenerate", "split", "gap-5e199", "gap-5e307"],
)
def test_evolve_mode_b_coupling_near_the_float_limit_relaxes(tmp_path, capsys, argv, file_state):
    # lam + mu, and lam + 2|dE| in the last case, would overflow here.  Both
    # initial states relax fully: pair-mean populations and coherences 0.
    if file_state:
        argv = [*argv, "--initial", write_pair_coherence_state(tmp_path)]
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        payload = run_json(capsys, argv)
    assert np.abs(matrix_from_json(payload["state"]) - 0.25 * np.eye(4)).max() <= 1e-15


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--mode", "B", "--lambda", "3", "--time", "0.225", "--energies", "1.50000000015", "0", "0", "0"],
        ["sweep", "--mode", "B", "--lambda", "1.5", "--time", "5", "--steps", "201",
         "--energies", "0.750000000075", "0", "0", "0"],
    ],
    ids=["evolve", "sweep"],
)
def test_mode_b_near_critical_damping_exits_0(tmp_path, capsys, argv):
    # 2|E_1 - E_3| = lam (1 + 1e-10): the output must stay exactly Hermitian.
    code, out = run(capsys, [*argv, "--initial", write_pair_coherence_state(tmp_path)])
    assert code == 0
    assert out


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--mode", "A", "--lambda", "1e307", "--time", "1e100"],
        ["sweep", "--mode", "B", "--lambda", "1e307", "--time", "1e100", "--steps", "3"],
    ],
    ids=["evolve", "sweep"],
)
def test_coupling_time_product_overflow_exits_2_naming_lambda_and_time(capsys, argv):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: lam * t is not finite for lam 1e+307 at time 1e+100\n"


def test_sweep_mode_b_huge_coupling_with_split_energies_raises_no_floating_point_error(capsys):
    # t = 0 and t > 0 in one stack, at a coupling whose square overflows.
    argv = ["sweep", "--mode", "B", "--lambda", "1e200", "--time", "1", "--steps", "3",
            "--energies", "0", "0", "1", "0"]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        code, out = run(capsys, argv)
    assert code == 0
    assert out == "lambda_t,mixedness,concurrence\n0,1,1\n5e+199,0.25,0\n1e+200,0.25,0\n"


def test_sweep_through_a_subnormal_partial_transpose_warns_nothing(capsys):
    # At grid point 5 (t about 731) rho_23 is about 1e-318: LAPACK's LU of
    # rho^Gamma divides by that subnormal pivot and its det is nan.  The
    # certificate reads it as "not certified", with no RuntimeWarning from
    # NumPy's own module, which the spinpath warning filter would not catch.
    argv = ["sweep", "--mode", "A", "--lambda", "1", "--time", "100000", "--steps", "685",
            "--energies", "1.36", "-1.72", "1.82", "-1.22", "--initial", "bell3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 686
    assert lines[5:8] == ["584.795321637,0.5,5.55111512313e-17", "730.994152047,0.5,5.55111512313e-17",
                          "877.192982456,0.5,0"]


def test_evolve_mode_b_subnormal_gap_exits_0(capsys):
    argv = ["evolve", "--mode", "B", "--lambda", "0", "--time", "0",
            "--energies", "0", "0", "0", "2.225073858507203e-309", "--initial", "bell1"]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        payload = run_json(capsys, argv)
    assert np.array_equal(matrix_from_json(payload["state"]), from_pure(bell_state(1)))


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize("command", [["evolve"], ["sweep", "--steps", "5"]], ids=["evolve", "sweep"])
def test_energy_phase_overflow_exits_2_naming_energies_and_time(capsys, mode, command):
    argv = [*command, "--mode", mode, "--lambda", "0", "--time", "1e300",
            "--energies", "0", "0", "1e10", "0"]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: energy phase (E_k - E_j) * t is not finite for energies "
        "(0.0, 0.0, 10000000000.0, 0.0) at time 1e+300\n"
    )


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize("command", [["evolve"], ["sweep", "--steps", "5"]], ids=["evolve", "sweep"])
def test_energy_difference_overflow_exits_2_naming_the_difference(capsys, mode, command):
    # Every phase is 0 at time 0, but max(E) - min(E) itself overflows.
    argv = [*command, "--mode", mode, "--lambda", "0", "--time", "0",
            "--energies", "-1e308", "1e308", "0", "0"]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: energy difference max(E) - min(E) is not finite for energies "
        "(-1e+308, 1e+308, 0.0, 0.0)\n"
    )


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, exponent, plain",
    [
        (["evolve", "--mode", "A", "--lambda", "1", "--time", "0.1", "--energies", "0", "{}", "0", "0"],
         "-1e3", "-1000"),
        (["evolve", "--mode", "B", "--lambda", "1", "--time", "0.1", "--energies", "0", "{}", "0", "0"],
         "-5e-1", "-0.5"),
        (["sweep", "--mode", "B", "--lambda", "1", "--time", "1", "--steps", "7",
          "--energies", "{}", "0", "1", "0"], "-2.5E+0", "-2.5"),
        (["evolve", "--mode", "A", "--lambda", "{}", "--time", "1"], "-1e0", "-1"),
        (["ensemble", "--mode", "A", "--sigma", "{}", "--samples", "10"], "-5e-1", "-0.5"),
        (["calibrate", "--mode", "A", "--sigmas", "0.5", "{}", "--samples", "10"], "-1e-1", "-0.1"),
    ],
    ids=["evolve-A", "evolve-B", "sweep", "lambda", "sigma", "sigmas"],
)
def test_negative_numbers_in_exponent_form_read_as_numbers(capsys, argv, exponent, plain):
    # argparse took -1e3 for an unknown option; it must read as -1000 does.
    spelled = [exponent if a == "{}" else a for a in argv]
    expected = _outcome(capsys, [plain if a == "{}" else a for a in argv])
    assert _outcome(capsys, spelled) == expected
    assert "expected" not in expected[2]


@pytest.mark.parametrize(
    "token, message",
    [
        ("-1e", "argument --energies: expected 4 arguments"),
        ("-x", "argument --energies: expected 4 arguments"),
        ("-inf", "error: energies must be finite"),
    ],
    ids=["bare-exponent", "letter", "minus-inf"],
)
def test_tokens_that_are_not_finite_numbers_still_fail(capsys, token, message):
    argv = ["evolve", "--mode", "A", "--lambda", "1", "--time", "0.1", "--energies", "0", token, "0", "0"]
    code, out, err = _outcome(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_tomography_shots_beyond_int64_exit_2(capsys):
    limit = np.iinfo(np.int64).max
    assert main(["tomography", "--shots", str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"shots {limit + 1} exceeds the limit of {limit}" in captured.err
    assert main(["tomography", "--shots", str(limit)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("shots", ["0", "5"])
def test_tomography_negative_seed_exits_2_at_any_shot_count(capsys, shots):
    assert main(["tomography", "--shots", shots, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a nonnegative integer, got -1\n"


def test_initial_with_a_file_prefix_is_read_as_a_path(tmp_path, capsys):
    source = tmp_path / "initial.json"
    source.write_text(json.dumps(matrix_to_json(experiment_initial())))
    name = f"file:{source}"
    code = main(["evolve", "--mode", "A", "--lambda", "1", "--time", "0", "--initial", name])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read state file {name!r}: ")


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


# Every subcommand that reads --initial, with flags that are valid on their own.
READS_INITIAL = {
    "evolve": ["evolve", "--mode", "A", "--lambda", "1", "--time", "1"],
    "sweep": ["sweep", "--mode", "B", "--lambda", "1", "--time", "1", "--steps", "3"],
    "ensemble": ["ensemble", "--mode", "A", "--sigma", "0.5", "--samples", "100"],
    "kraus-compare": ["kraus-compare", "--mode", "A", "--lambda", "1", "--time", "1", "--steps", "4"],
    "tomography-exact": ["tomography", "--shots", "0"],
    "tomography-counts": ["tomography", "--shots", "5"],
}


def _invalid_state(invariant):
    m = experiment_initial()
    if invariant == "trace":
        m = 2.0 * m
    elif invariant == "hermiticity":
        m[0, 1] = 1e-6
    elif invariant == "positivity":
        m = np.diag([0.5, 0.6, -0.1, 0.0]).astype(complex)
    else:
        m[2, 2] = np.nan
    return m


@pytest.mark.parametrize("command", sorted(READS_INITIAL))
def test_invalid_initial_matrix_exits_2(tmp_path, capsys, command):
    # Every rejection of a state file names the file, and is a usage error,
    # also when the kernel the subcommand calls first is what validates it.
    cases = [
        (matrix_to_json(np.eye(4, dtype=complex)), "trace violation: |Tr rho - 1| = 3.000e+00"),
        ({"dim": 3, "re": [[1.0]], "im": [[0.0]]}, "unsupported dim: 3"),
        ({"shots": 0}, "no 4x4 matrix found in state file"),
        ({"dim": 4, "re": [[1.0]], "im": [[0.0]]},
         "matrix json parts must be 4x4, got (1, 1) and (1, 1)"),
        # A diagonal of bools and a numeric string would read as a state of trace 1.
        ({"dim": 4, "re": [[True, 0, 0, 0], [0, False, 0, 0], [0, 0, "0", 0], [0, 0, 0, False]],
          "im": [[0] * 4] * 4},
         "malformed matrix json: re[0][0] = True is not a number"),
    ]
    for invariant in ("trace", "hermiticity", "positivity", "finiteness"):
        m = _invalid_state(invariant)
        with pytest.raises(StateValidationError) as caught:
            validate_density_matrix(m)
        assert str(caught.value).startswith(invariant)
        cases.append((matrix_to_json(m), str(caught.value)))
    for index, (content, message) in enumerate(cases):
        bad = tmp_path / f"bad{index}.json"
        bad.write_text(json.dumps(content))
        assert _outcome(capsys, READS_INITIAL[command] + ["--initial", str(bad)]) == (
            2, "", f"error: state file {str(bad)!r}: {message}\n"
        )


# A sweep produces stacks, so its message names the first bad state of the block.
PRODUCED_VIOLATION = {
    "evolve": "trace violation",
    "sweep": "state 0: trace violation",
    "kraus-compare": "state 0: trace violation",
}


@pytest.mark.parametrize("command", sorted(PRODUCED_VIOLATION))
def test_valid_file_state_with_an_invalid_produced_state_exits_4(tmp_path, capsys, monkeypatch, command):
    # The file state passes its check again, so the failure is the produced state's.
    source = tmp_path / "initial.json"
    source.write_text(json.dumps(matrix_to_json(experiment_initial())))
    closed_form = lindblad._closed_form
    monkeypatch.setattr(lindblad, "_closed_form", lambda *args: 1.1 * closed_form(*args))
    code, out, err = _outcome(capsys, READS_INITIAL[command] + ["--initial", str(source)])
    assert (code, out) == (4, "")
    assert err.startswith("error: produced state invalid: " + PRODUCED_VIOLATION[command])


@pytest.mark.parametrize("bad_steps, index", [(4, 1), (2, 2)], ids=["n", "half"])
def test_kraus_compare_names_a_bad_trotter_state_by_its_index(tmp_path, capsys, monkeypatch, bad_steps, index):
    # The closed form is state 0 of the checked stack, n steps state 1 and n // 2 steps state 2.
    source = tmp_path / "initial.json"
    source.write_text(json.dumps(matrix_to_json(experiment_initial())))
    trotter = kraus._trotter_evolve
    monkeypatch.setattr(
        kraus, "_trotter_evolve",
        lambda rho, mode, lam, t, n: (1.1 if n == bad_steps else 1.0) * trotter(rho, mode, lam, t, n),
    )
    code, out, err = _outcome(capsys, READS_INITIAL["kraus-compare"] + ["--initial", str(source)])
    assert (code, out) == (4, "")
    assert err.startswith(f"error: produced state invalid: state {index}: trace violation")


@pytest.mark.parametrize(
    "steps, shapes", [("64", [(4, 4), (3, 4, 4)]), ("1", [(4, 4), (2, 4, 4)])], ids=["n-and-half", "n-only"]
)
def test_kraus_compare_checks_its_input_once_and_its_produced_states_in_one_stack(
    capsys, monkeypatch, steps, shapes
):
    seen = []
    for module in (states, lindblad, kraus):
        def spy(m, check=module.validate_density_matrix):
            seen.append(np.shape(m))
            return check(m)

        monkeypatch.setattr(module, "validate_density_matrix", spy)
    argv = ["kraus-compare", "--mode", "B", "--lambda", "1", "--time", "0.5", "--steps", steps]
    code, _ = run(capsys, argv)
    assert code == 0
    assert seen == shapes


def _kraus_compare_recipe(rho0, mode, lam, t, n):
    """kraus-compare's stdout as public evolve plus two public trotter_evolve calls make it."""
    analytic = lindblad.evolve(rho0, lindblad.DecoherenceSpec(mode=mode, lam=lam), t)
    approx = kraus.trotter_evolve(rho0, mode, lam, t, n)
    error = float(np.abs(approx - analytic).max())
    payload = {"mode": mode, "lambda": lam, "time": t, "steps": n, "max_error": error,
               "max_error_half_steps": None, "convergence_order": None}
    half = n // 2
    if half and lam * t / half <= kraus.MAX_WEIGHT:
        error_half = float(np.abs(kraus.trotter_evolve(rho0, mode, lam, t, half) - analytic).max())
        payload["max_error_half_steps"] = error_half
        if error > 0.0 and error_half > 0.0:
            payload["convergence_order"] = float(np.log(error_half / error) / np.log(n / half))
    return _dumps(payload)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    n=st.one_of(st.integers(1, 4096), st.sampled_from([1, 2, 3, 5, 4095, 4096])),
    weight=st.one_of(st.floats(0.0, 4.0 / 3.0), st.sampled_from([0.0, 2.0 / 3.0, 1.0, 4.0 / 3.0])),
    lam=st.one_of(st.floats(0.01, 10.0), st.sampled_from([0.0, 1.0])),
)
@example(seed=0, rank=1, mode="B", n=1, weight=0.5, lam=1.0)  # no n // 2 run
@example(seed=1, rank=2, mode="B", n=3, weight=1.0, lam=2.0)  # the n // 2 weight exceeds 4/3
@example(seed=2, rank=4, mode="A", n=8, weight=0.25, lam=0.0)  # both errors 0: no order
def test_kraus_compare_is_the_public_recipe_bit_for_bit(tmp_path_factory, seed, rank, mode, n, weight, lam):
    source = tmp_path_factory.getbasetemp() / "kraus-compare-initial.json"
    source.write_text(json.dumps(matrix_to_json(hermitian_ginibre_state(np.random.default_rng(seed), rank))))
    t = weight * n / lam if lam else 1.0
    argv = ["kraus-compare", "--mode", mode, "--lambda", repr(lam), "--time", repr(t),
            "--steps", str(n), "--initial", str(source)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    rho0 = matrix_from_json(json.loads(source.read_text()))
    try:
        expected = (0, _kraus_compare_recipe(rho0, mode, lam, t, n))
    except ValueError:  # lam * t / n rounded past 4/3
        expected = (2, "")
    assert (code, out.getvalue()) == expected


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


# Argvs whose parse is easy to get wrong, then one valid argv per subcommand.
PARSE_EDGES = {
    "abbreviated-flag": ["evolve", "--lam", "1", "--mode", "A", "--time", "1"],
    "flag-equals-value": ["evolve", "--mode=A", "--lambda", "1", "--time", "1"],
    "exponent-number": ["evolve", "--mode", "B", "--lambda", "1", "--time", "0.1",
                        "--energies", "0", "-1e3", "0", "0"],
    "double-dash": EVOLVE_A + ["--", "x"],
    "double-dash-first": ["evolve", "--", "--mode", "A"],
    "unknown-flag": EVOLVE_A + ["--bogus"],
    "unknown-flag-value": ["tomography", "--bogus=1", "--shots", "0", "--zap"],
    "stray-positional": ["tomography", "--shots", "0", "extra"],
    "missing-required": ["evolve", "--mode", "A"],
    "bad-choice": ["evolve", "--mode", "Q", "--lambda", "1", "--time", "1"],
    "bad-type": ["sweep", "--mode", "A", "--lambda", "1", "--time", "1", "--steps", "x"],
    "empty": [],
    "unknown-command": ["evolve2", "--mode", "A"],
    "flag-before-command": ["--bogus", *EVOLVE_A],
    "top-help": ["-h"],
    "subcommand-help": ["sweep", "-h"],
    "evolve": EVOLVE_A,
    "sweep": ["sweep", "--mode", "B", "--lambda", "1", "--time", "1", "--steps", "5"],
    "ensemble": ["ensemble", "--mode", "A", "--sigma", "0.5", "--samples", "100", "--seed", "2"],
    "kraus-compare": ["kraus-compare", "--mode", "B", "--lambda", "1", "--time", "1", "--steps", "8"],
    "tomography": ["tomography", "--shots", "100", "--seed", "3", "--initial", "bell2"],
    "calibrate": ["calibrate", "--mode", "B", "--sigmas", "0", "0.5", "--samples", "100"],
}


@pytest.mark.parametrize("argv", PARSE_EDGES.values(), ids=PARSE_EDGES.keys())
def test_main_parses_as_the_whole_argv_route_does(capsys, monkeypatch, argv):
    # main hands a subcommand's flags straight to its parser; the whole-argv
    # route parses them with the top-level parser first.  Both must agree.
    seen = []
    (commands,) = cli.build_parser()._get_positional_actions()
    for subparser in commands.choices.values():
        handler = subparser.get_default("handler")
        spy = lambda args, handler=handler: seen.append(args) or handler(args)
        monkeypatch.setitem(subparser._defaults, "handler", spy)

    def whole_argv_route():
        args = cli.build_parser().parse_args(argv)
        sys.stdout.write(args.handler(args))
        return 0

    try:
        expected = whole_argv_route()
    except SystemExit as exc:
        expected = exc.code
    expected = (expected, *capsys.readouterr())
    assert _outcome(capsys, argv) == expected
    assert len(seen) in (0, 2)
    if seen:
        assert expected[0] == 0
        assert vars(seen[1]) == vars(seen[0])
        assert seen[1].command == argv[0]


@pytest.mark.parametrize(
    "argv, code", [(EVOLVE_A, 0), (EVOLVE_A + ["--bogus"], 2)], ids=["valid", "unknown-flag"]
)
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, argv, code):
    expected = _outcome(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["spinpath", *argv])
    assert _outcome(capsys, None) == expected
    assert expected[0] == code
    if code:
        assert expected[2].startswith("usage: spinpath [-h]\n")
        assert expected[2].endswith("spinpath: error: unrecognized arguments: --bogus\n")


JSON_FLOATS = st.one_of(
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e308, -1e308,
                     1.7976931348623157e308, 1e16, 1e-5]),
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-2**200, max_value=-2**64),
    JSON_FLOATS,
    JSON_FLOATS.map(np.float64),
    st.text(st.characters(exclude_categories=())),
)
JSON_KEYS = st.text(st.characters(exclude_categories=()), max_size=8)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(JSON_FLOATS, min_size=1, max_size=6),
        st.lists(st.integers() | st.booleans(), min_size=1),
        st.dictionaries(JSON_KEYS, children, max_size=6),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.dictionaries(JSON_KEYS, JSON_VALUES), st.lists(JSON_VALUES), JSON_VALUES))
@example([1, True, 2])
def test_dumps_writes_the_bytes_of_json_dumps_with_indent_2_and_sorted_keys(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Each subcommand's actions as (option strings, dest, type, nargs, default,
# required, choices), in registration order: the parser's contract.
_HELP = (("-h", "--help"), "help", None, 0, argparse.SUPPRESS, False, None)
_MODE = (("--mode",), "mode", None, None, None, True, ("A", "B"))
_LAMBDA = (("--lambda",), "lam", float, None, None, True, None)
_TIME = (("--time",), "time", float, None, None, True, None)
_STEPS = (("--steps",), "steps", int, None, None, True, None)
_ENERGIES = (("--energies",), "energies", float, 4, (0.0, 0.0, 0.0, 0.0), False, None)
_SAMPLES = (("--samples",), "samples", int, None, None, True, None)
_SEED = (("--seed",), "seed", int, None, 0, False, None)
_VARIANT = (("--variant",), "variant", None, None, "both-paths-independent", False,
            ["both-paths-independent", "single-field-both-paths", "single-field-one-path"])
_INITIAL = (("--initial",), "initial", None, None, "singlet", False, None)
_OUT = (("--out",), "out", None, None, "-", False, None)
PARSER_CONTRACT = {
    "evolve": [_HELP, _MODE, _LAMBDA, _TIME, _ENERGIES, _INITIAL, _OUT],
    "sweep": [_HELP, _MODE, _LAMBDA, _TIME, _STEPS, _ENERGIES, _INITIAL, _OUT],
    "ensemble": [_HELP, _MODE, (("--sigma",), "sigma", float, None, None, True, None),
                 _SAMPLES, _SEED, _VARIANT, _INITIAL, _OUT],
    "kraus-compare": [_HELP, _MODE, _LAMBDA, _TIME, _STEPS, _INITIAL, _OUT],
    "tomography": [_HELP, (("--shots",), "shots", int, None, None, True, None), _SEED, _INITIAL, _OUT],
    "calibrate": [_HELP, _MODE, (("--sigmas",), "sigmas", float, "+", None, True, None),
                  _SAMPLES, _SEED, _VARIANT, _OUT],
}


def test_every_subcommand_registers_the_contracted_actions():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(PARSER_CONTRACT)
    for name, expected in PARSER_CONTRACT.items():
        subparser = sub.choices[name]
        actions = [
            (tuple(a.option_strings), a.dest, a.type, a.nargs, a.default, a.required, a.choices)
            for a in subparser._actions
        ]
        assert actions == expected, name
        assert subparser.get_default("handler") is getattr(cli, "cmd_" + name.replace("-", "_"))


@pytest.mark.parametrize("command", [[], *([name] for name in PARSER_CONTRACT)], ids=["spinpath", *PARSER_CONTRACT])
def test_help_exits_0(capsys, command):
    code, out, err = _outcome(capsys, [*command, "--help"])
    assert code == 0
    assert out.startswith("usage: spinpath") and err == ""


def test_trotter_drift_beyond_its_budget_exits_3(capsys, monkeypatch):
    # As in the kraus test: a twirl image that gains 2e-9 of trace puts the
    # composed state past the fixed 1e-9 budget.
    apply = superop.apply
    monkeypatch.setattr(superop, "apply", lambda twirl, rho: (1.0 + 2e-9) * apply(twirl, rho))
    argv = ["kraus-compare", "--mode", "B", "--lambda", "1.7", "--time", "0.9", "--steps", str(2**20)]
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical failure: Trotter composition (n=")


@pytest.mark.parametrize(
    "command, argv",
    [("evolve", ["evolve", "--mode", "A", "--lambda", "1", "--time", "0.5"]), ("sweep", READS_INITIAL["sweep"])],
    ids=["evolve", "sweep"],
)
def test_invalid_produced_state_exits_4(capsys, monkeypatch, command, argv):
    # measure_report is the one check of the produced states; its failure is exit 4.
    closed_form = lindblad._closed_form
    monkeypatch.setattr(lindblad, "_closed_form", lambda *args: 1.1 * closed_form(*args))
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: produced state invalid: " + PRODUCED_VIOLATION[command])


def test_energies_that_are_not_finite_are_named(capsys):
    argv = ["evolve", "--mode", "A", "--lambda", "1", "--time", "0.1", "--energies", "0", "0", "0", "nan"]
    assert _outcome(capsys, argv) == (2, "", "error: energies must be finite, got (0.0, 0.0, 0.0, nan)\n")
