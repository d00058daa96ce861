import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spintransfer.chain import Perfect, protocol_preset
from spintransfer.certify import (
    check_oracle_amplitudes,
    check_perfect_spectrum,
    run_certification,
)
from spintransfer import analytics, channel, dynamics
from spintransfer.cli import EXIT_CERTIFY, EXIT_NUMERIC, KS_GATE_ALPHA, main
from spintransfer.dynamics import dynamics_for


def run_cli(*argv) -> int:
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


BASE = [
    "pdf",
    "--protocol", "perfect",
    "--n-sites", "8",
    "--scenario", "one_qubit_vacuum",
    "--mode", "target_avg:0.97",
    "--mc-samples", "20000",
    "--seed", "1",
]


def test_pdf_outputs_and_record(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*BASE, "--out", str(out)) == 0
    record = read_json(out / "result.json")
    assert record["schema_version"] == 1
    assert record["f_min"] <= record["avg_fidelity"] <= record["f_max"]
    assert record["avg_fidelity"] == pytest.approx(0.97, abs=1e-7)
    assert (out / "pdf_curve.csv").exists()
    assert (out / "histogram.csv").exists()
    assert record["ks_distance"] <= 0.02


def test_pdf_curve_integrates_to_one(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*BASE, "--out", str(out)) == 0
    rows = np.loadtxt(out / "pdf_curve.csv", delimiter=",", skiprows=1)
    integral = np.trapezoid(rows[:, 1], rows[:, 0])
    assert integral == pytest.approx(1.0, abs=1e-4)
    assert np.all(np.diff(rows[:, 2]) >= -1e-12)  # cdf column monotone


def test_analytic_only_mode(tmp_path):
    out = tmp_path / "run"
    args = [a for a in BASE]
    args[args.index("--mc-samples") + 1] = "0"
    assert run_cli(*args, "--out", str(out)) == 0
    record = read_json(out / "result.json")
    assert record["histogram"] is None
    assert record["ks_distance"] is None
    assert not (out / "histogram.csv").exists()


def test_byte_determinism(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*BASE, "--out", str(out)) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("result.json", "pdf_curve.csv", "histogram.csv")
    }
    assert run_cli(*BASE, "--out", str(out)) == 0
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload


def test_config_file_with_flag_overrides(tmp_path):
    config = {
        "protocol": {"kind": "perfect"},
        "n_sites": 8,
        "scenario": "one_qubit_vacuum",
        "mode": {"type": "at_optimal"},
        "mc_samples": 0,
        "seed": 5,
        "output_dir": str(tmp_path / "from_file"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "override"
    assert run_cli("pdf", "--config", str(path), "--out", str(out)) == 0
    record = read_json(out / "result.json")
    assert record["config"]["output_dir"] == str(out)
    assert record["config"]["seed"] == 5


def test_unreachable_target_exit_code(tmp_path):
    # window far from the transfer peak: 0.99 cannot be reached
    code = run_cli(
        "pdf",
        "--protocol", "perfect",
        "--n-sites", "8",
        "--scenario", "one_qubit_vacuum",
        "--mode", "target_avg:0.99",
        "--window", "0.0:0.2",
        "--mc-samples", "0",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3


def test_parameter_error_exit_code(tmp_path):
    code = run_cli(
        "pdf",
        "--protocol", "perfect",
        "--n-sites", "3",
        "--scenario", "one_qubit_vacuum",
        "--mode", "at_optimal",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_kraus_completeness_failure_exit_code(tmp_path, monkeypatch):
    # a Kraus set that misses its completeness bound is a numeric failure,
    # not a caller error
    monkeypatch.setattr(channel, "COMPLETENESS_TOL", -1.0)
    code = run_cli(
        "pdf",
        "--protocol", "perfect",
        "--n-sites", "8",
        "--scenario", "one_qubit_vacuum",
        "--mode", "at_optimal",
        "--mc-samples", "1000",
        "--out", str(tmp_path / "x"),
    )
    assert code == EXIT_NUMERIC


MALFORMED = {
    "window_without_colon": (["--window", "5"], "window"),
    "window_not_numbers": (["--window", "a:b"], "window lo"),
    "target_not_a_number": (["--mode", "target_avg:abc"], "mode value"),
    "fraction_not_a_number": (["--mode", "timing_error:x"], "mode fraction"),
    "config_grid_not_a_number": ({"grid": "many"}, "grid"),
    "config_target_not_a_number": ({"mode": {"type": "target_avg", "value": "x"}}, "mode value"),
    "config_not_json": ("{", "config"),
    "config_protocol_not_an_object": ({"protocol": "perfect"}, "protocol"),
    "negative_seed": (["--seed", "-1"], "seed"),
    "jitter_outside_timing_error": (["--mode", "at_optimal", "--jitter"], "jitter"),
    "grid_below_minimum": (["--grid", "0"], "grid"),
}


@pytest.mark.parametrize(("malformed", "field"), list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_exit_code(tmp_path, capsys, malformed, field):
    args = [
        "pdf",
        "--protocol", "perfect",
        "--n-sites", "8",
        "--scenario", "one_qubit_vacuum",
        "--mc-samples", "0",
        "--out", str(tmp_path / "x"),
    ]
    if isinstance(malformed, list):
        args += malformed
    else:
        path = tmp_path / "config.json"
        path.write_text(malformed if isinstance(malformed, str) else json.dumps(malformed))
        args += ["--config", str(path)]
    assert run_cli(*args) == 2
    assert field in capsys.readouterr().err


def test_output_dir_env_default(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("SPINTRANSFER_OUT", str(out))
    args = [a for a in BASE]
    args[args.index("--mc-samples") + 1] = "0"
    assert run_cli(*args) == 0
    assert (out / "result.json").exists()


def test_tune_record(tmp_path):
    out = tmp_path / "tune"
    assert (
        run_cli(
            "tune",
            "--protocol", "weak",
            "--j0", "0.05",
            "--n-sites", "8",
            "--scenario", "one_qubit_vacuum",
            "--out", str(out),
        )
        == 0
    )
    record = read_json(out / "result.json")
    assert record["avg_fidelity"] > record["avg_fidelity_no_aux"]
    assert record["avg_fidelity"] > 0.99


@pytest.mark.parametrize(
    "mode",
    [["--mode", "target_avg:0.95"], ["--mode", "timing_error:0.02", "--jitter"]],
    ids=["target_avg", "timing_error_jitter"],
)
def test_tune_rejects_modes_it_does_not_run(tmp_path, capsys, mode):
    # tune reads out at the optimum; echoing another mode would claim a run
    # that never happened
    out = tmp_path / "tune"
    args = ["tune", "--protocol", "perfect", "--n-sites", "8",
            "--scenario", "one_qubit_vacuum", "--out", str(out), *mode]
    assert run_cli(*args) == 2
    assert "mode" in capsys.readouterr().err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("flag", ["--mc-samples", "--bins", "--seed"])
def test_tune_takes_no_sampling_flags(tmp_path, flag):
    # tune never samples: it accepts no sampling flag and echoes no
    # sampling setting
    args = ["tune", "--protocol", "perfect", "--n-sites", "8",
            "--scenario", "one_qubit_vacuum", "--out", str(tmp_path / "tune")]
    with pytest.raises(SystemExit) as exc:
        run_cli(*args, flag, "7")
    assert exc.value.code == 2
    assert run_cli(*args) == 0
    config = read_json(tmp_path / "tune" / "result.json")["config"]
    assert not {"mc_samples", "seed", "bins"} & set(config)


def test_certify_cli_and_schema(tmp_path):
    out = tmp_path / "cert"
    assert run_cli("certify", "--n-max", "5", "--out", str(out)) == 0
    report = read_json(out / "certification.json")
    # golden schema: stable key structure across runs
    assert sorted(report.keys()) == ["all_passed", "checks", "n_max", "schema_version"]
    for check in report["checks"]:
        assert sorted(check.keys()) == ["detail", "max_error", "name", "passed"]
    assert report["all_passed"] is True


def test_certify_rejects_oversize():
    assert run_cli("certify", "--n-max", "13") == 2


@pytest.mark.parametrize("n_max", ["3", "0", "-1"])
def test_certify_rejects_small_n_max(n_max):
    # below N = 4 the oracle sweeps would check zero cases and pass vacuously
    assert run_cli("certify", "--n-max", n_max) == 2


def test_jitter_flag(tmp_path):
    out = tmp_path / "jit"
    assert (
        run_cli(
            "pdf",
            "--protocol", "perfect",
            "--n-sites", "8",
            "--scenario", "one_qubit_vacuum",
            "--mode", "timing_error:0.02",
            "--jitter",
            "--mc-samples", "20000",
            "--seed", "2",
            "--out", str(out),
        )
        == 0
    )
    record = read_json(out / "result.json")
    assert record["ks_distance"] <= 0.02
    rows = np.loadtxt(out / "pdf_curve.csv", delimiter=",", skiprows=1)
    assert np.trapezoid(rows[:, 1], rows[:, 0]) == pytest.approx(1.0, abs=1e-4)


def test_jitter_reads_out_around_the_optimum(tmp_path):
    # the jittered read-outs spread symmetrically around t_opt, so the
    # reported read-out time and the field are those of the optimum
    setting = ["pdf", "--protocol", "perfect", "--n-sites", "8",
               "--scenario", "one_qubit_vacuum", "--mc-samples", "0"]
    assert run_cli(*setting, "--mode", "timing_error:0.02", "--jitter",
                   "--out", str(tmp_path / "jitter")) == 0
    assert run_cli(*setting, "--mode", "at_optimal", "--out", str(tmp_path / "optimum")) == 0
    jitter = read_json(tmp_path / "jitter" / "result.json")
    optimum = read_json(tmp_path / "optimum" / "result.json")
    assert jitter["t_readout"] == jitter["t_opt"] == optimum["t_readout"]
    assert jitter["b_aux"] == optimum["b_aux"]


def test_jitter_mixture_is_normalized(tmp_path):
    # the 41-part mixture of barrier h0=200 N=22 at 2% jitter: adaptive
    # quadrature over all parts' breakpoints ran out of subdivisions there
    # and returned 0.99924
    from spintransfer import cli
    from spintransfer.analytics import Mixture, fidelity_law

    args = ["pdf", "--protocol", "barrier", "--h0", "200", "--n-sites", "22",
            "--scenario", "one_qubit_vacuum", "--mode", "timing_error:0.02", "--jitter",
            "--out", str(tmp_path)]
    config = cli.load_config(cli.build_parser().parse_args(args))
    plan = cli._resolve_plan(config)
    pdf = fidelity_law(plan.spec, plan.scenario, cli._jitter_times(plan, config)).pdf()
    assert isinstance(pdf, Mixture) and len(pdf.parts) == 41
    assert pdf.normalization() == pytest.approx(1.0, abs=1e-6)


def test_fixed_time_histogram_is_one_kraus_run(tmp_path):
    # a single read-out time samples the run's own stream, exactly as a
    # direct Monte Carlo run of the Kraus set at that time
    from spintransfer import cli
    from spintransfer.analytics import fidelity_law
    from spintransfer.channel import kraus_for_scenario
    from spintransfer.sampling import RandomStream, default_bin_edges, mc_fidelity_histogram

    args = [a for a in BASE]
    args[args.index("--mode") + 1] = "timing_error:0.02"
    args += ["--out", str(tmp_path / "run")]
    config = cli.load_config(cli.build_parser().parse_args(args))
    plan = cli._resolve_plan(config)
    pdf = fidelity_law(plan.spec, plan.scenario, [plan.t_read]).pdf()
    expected = mc_fidelity_histogram(
        kraus_for_scenario(plan.spec, plan.scenario, plan.t_read),
        config.mc_samples,
        default_bin_edges(pdf, config.bins),
        RandomStream(config.seed),
    )
    assert run_cli(*args) == 0
    rows = np.loadtxt(tmp_path / "run" / "histogram.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 2].astype(np.int64), expected.counts)


def test_corrupted_coupling_detected_by_spectrum_check():
    # a mis-engineered coupling magnitude leaves the channel algebra intact
    # (completeness and oracle agreement are self-consistent) but breaks the
    # equally-spaced spectrum of the engineered chain
    from spintransfer.chain import ChainSpec
    from spintransfer.channel import Scenario, apply_channel, kraus_for_scenario
    from spintransfer.oracle import evolve_full, reduced_density, transfer_initial_state
    from conftest import random_state, trace_distance

    spec = protocol_preset(Perfect(), 8)
    couplings = spec.couplings.copy()
    couplings[1, 2] = couplings[2, 1] = couplings[1, 2] * 1.05
    corrupted = ChainSpec(8, couplings, spec.anisotropies, spec.fields)

    kraus = kraus_for_scenario(corrupted, Scenario.ONE_QUBIT_VACUUM, 1.3)
    assert kraus.completeness_defect <= 1e-9  # still a valid channel
    psi = random_state(np.random.default_rng(3), 2)
    rho = apply_channel(kraus, psi)
    full = evolve_full(corrupted, transfer_initial_state(8, (1,), psi), 1.3)
    assert trace_distance(rho, reduced_density(full, (8,))) <= 1e-9

    gaps = np.diff(dynamics_for(corrupted).one.eigenvalues)
    assert np.abs(gaps - gaps[0]).max() > 1e-9  # spectrum check fires


def test_oracle_check_pins_zz_pair_sector(monkeypatch):
    # the presets and nearest-neighbour chains have no ZZ terms, so a wrong
    # ZZ pair-sector diagonal shows only where certify draws a ZZ chain
    build = dynamics.sector_hamiltonian

    def mutated(spec, basis):
        h = build(spec, basis)
        if basis.n_excitations == 2 and spec.anisotropies.any():
            h = h + 0.01 * np.eye(len(h))
        return h

    monkeypatch.setattr(dynamics, "sector_hamiltonian", mutated)
    monkeypatch.setattr(dynamics, "_DYNAMICS_CACHE", {})
    result = check_oracle_amplitudes(10)
    assert not result.passed and result.max_error > 1e-3


def test_sign_flip_is_gauge_equivalent():
    # flipping one bond sign is a basis sign change: the spectrum survives,
    # so magnitude corruption (not sign) is the right regression stimulus
    spec = protocol_preset(Perfect(), 8)
    couplings = spec.couplings.copy()
    couplings[1, 2] = couplings[2, 1] = -couplings[1, 2]
    from spintransfer.chain import ChainSpec

    flipped = ChainSpec(8, couplings, spec.anisotropies, spec.fields)
    gaps = np.diff(dynamics_for(flipped).one.eigenvalues)
    assert np.abs(gaps - gaps[0]).max() <= 1e-9


def test_perfect_spectrum_check_function():
    result = check_perfect_spectrum(12)
    assert result.passed and result.max_error <= 1e-9


def test_timing_fraction_validation(tmp_path):
    code = run_cli(
        "pdf",
        "--protocol", "perfect",
        "--n-sites", "8",
        "--scenario", "one_qubit_vacuum",
        "--mode", "timing_error:0.7",
        "--mc-samples", "0",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_target_value_validation(tmp_path):
    code = run_cli(
        "pdf",
        "--protocol", "perfect",
        "--n-sites", "8",
        "--scenario", "one_qubit_vacuum",
        "--mode", "target_avg:0.4",
        "--mc-samples", "0",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_tune_examples_at_working_settings(tmp_path):
    # perfect chain with the field: ideal average; barrier: field changes
    # almost nothing; weak: field is essential
    rec = {}
    for kind_args, aux in [
        (("--protocol", "perfect"), "on"),
        (("--protocol", "barrier", "--h0", "200"), "off"),
        (("--protocol", "barrier", "--h0", "200"), "on"),
        (("--protocol", "weak", "--j0", "0.005"), "on"),
    ]:
        out = tmp_path / f"{kind_args[1]}_{aux}"
        assert (
            run_cli(
                "tune",
                *kind_args,
                "--n-sites", "22",
                "--scenario", "one_qubit_vacuum",
                "--aux-field", aux,
                "--out", str(out),
            )
            == 0
        )
        rec[(kind_args[1], aux)] = read_json(out / "result.json")
    assert rec[("perfect", "on")]["avg_fidelity"] >= 1.0 - 1e-8
    barrier_shift = abs(
        rec[("barrier", "on")]["avg_fidelity"] - rec[("barrier", "off")]["avg_fidelity"]
    )
    assert barrier_shift < 1e-3
    weak = rec[("weak", "on")]
    assert weak["avg_fidelity"] > 0.99
    assert weak["avg_fidelity_no_aux"] < weak["avg_fidelity"]


@pytest.mark.parametrize("command", ["pdf", "tune"])
def test_each_scan_runs_once(tmp_path, monkeypatch, command):
    # every multi-point scan (spec, scenario, correction, window, grid) of a
    # run is evaluated once: the planned read-out reuses the tuning's scan
    from spintransfer import analytics

    counts: dict = {}
    curve = analytics.avg_fidelity_curve

    def counting(spec, scenario, times, phase_corrected=False):
        times = np.asarray(times, dtype=float)
        if times.size > 1:
            key = (spec.cache_key(), scenario, bool(phase_corrected),
                   float(times[0]), float(times[-1]), times.size)
            counts[key] = counts.get(key, 0) + 1
        return curve(spec, scenario, times, phase_corrected)

    monkeypatch.setattr(analytics, "avg_fidelity_curve", counting)
    args = [command, "--protocol", "perfect", "--n-sites", "10",
            "--scenario", "one_qubit_vacuum", "--out", str(tmp_path / "run")]
    if command == "pdf":
        args += ["--mode", "target_avg:0.99", "--mc-samples", "0"]
    assert main(args) == 0
    assert counts and max(counts.values()) == 1


def test_target_pdf_evaluates_few_single_times(tmp_path, monkeypatch):
    # the target clock's ticks are evaluated as block scans, so only the
    # golden-section and bisection steps evaluate the average at one time
    from spintransfer import analytics

    singles = []
    curve = analytics.avg_fidelity_curve

    def counting(spec, scenario, times, phase_corrected=False):
        if np.size(times) == 1:
            singles.append(float(np.ravel(times)[0]))
        return curve(spec, scenario, times, phase_corrected)

    monkeypatch.setattr(analytics, "avg_fidelity_curve", counting)
    assert main(["pdf", "--protocol", "perfect", "--n-sites", "10",
                 "--scenario", "one_qubit_vacuum", "--mode", "target_avg:0.99",
                 "--mc-samples", "0", "--out", str(tmp_path / "run")]) == 0
    assert 0 < len(singles) < 100


def diagonalised_sizes(monkeypatch, args) -> list[int]:
    """Dimensions of the matrices one CLI run diagonalises, from a cold cache."""
    from spintransfer import dynamics

    sizes = []
    diagonalize = dynamics.diagonalize

    def recording(matrix, basis=None):
        sizes.append(np.shape(matrix)[0])
        return diagonalize(matrix, basis)

    monkeypatch.setattr(dynamics, "diagonalize", recording)
    monkeypatch.setattr(dynamics, "_DYNAMICS_CACHE", {})
    assert run_cli(*args) == 0
    return sizes


def test_vacuum_pdf_never_builds_pair_sector(tmp_path, monkeypatch):
    # the one-qubit vacuum law and its Monte Carlo read only one-excitation
    # amplitudes, so no matrix larger than the N x N sector is diagonalised
    args = [a for a in BASE]
    args[args.index("--n-sites") + 1] = "12"
    args[args.index("--mode") + 1] = "at_optimal"
    sizes = diagonalised_sizes(monkeypatch, [*args, "--out", str(tmp_path / "run")])
    assert sizes and max(sizes) <= 12


@pytest.mark.parametrize(("scenario", "n_sites"), [("one_qubit_uniform", 12), ("two_qubit", 9)])
def test_pair_law_pdf_never_builds_pair_sector(tmp_path, monkeypatch, scenario, n_sites):
    # on a nearest-neighbour preset the occupied-channel and two-qubit laws
    # and their Kraus sets take pair amplitudes as determinants of
    # one-excitation amplitudes, so the pair sector is never diagonalised
    args = [a for a in BASE]
    args[args.index("--n-sites") + 1] = str(n_sites)
    args[args.index("--scenario") + 1] = scenario
    args[args.index("--mode") + 1] = "at_optimal"
    sizes = diagonalised_sizes(monkeypatch, [*args, "--out", str(tmp_path / "run")])
    assert sizes and max(sizes) <= n_sites


def test_tune_and_pdf_agree_on_optimum(tmp_path):
    # tune reports the optimum and field of its tuning instead of re-finding
    # the peak on the field-shifted chain, so it matches pdf at_optimal
    setting = ["--protocol", "weak", "--j0", "0.01", "--n-sites", "15",
               "--scenario", "one_qubit_vacuum"]
    assert run_cli("tune", *setting, "--out", str(tmp_path / "tune")) == 0
    assert run_cli("pdf", *setting, "--mode", "at_optimal", "--mc-samples", "0",
                   "--out", str(tmp_path / "pdf")) == 0
    tuned = read_json(tmp_path / "tune" / "result.json")
    planned = read_json(tmp_path / "pdf" / "result.json")
    assert tuned["t_opt"] == planned["t_opt"]
    assert tuned["b_aux"] == planned["b_aux"]
    assert tuned["avg_fidelity"] == pytest.approx(planned["avg_fidelity"], abs=1e-15)
    # both report the same law mean at the same read-out
    assert tuned["avg_fidelity"] == planned["avg_fidelity"]


WEAK_TWO_QUBIT = ["pdf", "--protocol", "weak", "--j0", "0.005", "--n-sites", "9",
                  "--scenario", "two_qubit", "--mode", "target_avg:0.99",
                  "--mc-samples", "100000", "--seed", "1"]


def test_pdf_ks_gate(tmp_path, monkeypatch):
    # the two-qubit Monte Carlo reads the Kraus set's Pauli transfer matrix,
    # the law the trace-sum twirl: a 1% error in one twirl coefficient makes
    # them disagree, and pdf fails with every file written
    assert run_cli(*WEAK_TWO_QUBIT, "--out", str(tmp_path / "good")) == 0

    def mutated(t1, t2, t3, t4):
        return (t1 + t2 + t3 + t4) / 36.0, (-2.0 * (t1 + t2) + 2.525 * (t3 + t4)) / 36.0

    monkeypatch.setattr(analytics, "_affine_from_traces", mutated)
    out = tmp_path / "mutated"
    assert run_cli(*WEAK_TWO_QUBIT, "--out", str(out)) == EXIT_CERTIFY
    for name in ("result.json", "pdf_curve.csv", "histogram.csv"):
        assert (out / name).exists()
    bound = np.sqrt(np.log(2.0 / KS_GATE_ALPHA) / (2.0 * 100_000))
    assert read_json(out / "result.json")["ks_distance"] > bound


def test_pdf_runs_without_scipy(tmp_path):
    # nothing under src/ needs scipy: a two-qubit pdf with Monte Carlo runs
    # with every scipy import failing
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from spintransfer.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    argv = ["pdf", "--protocol", "weak", "--j0", "0.1", "--n-sites", "6",
            "--scenario", "two_qubit", "--mode", "at_optimal", "--window", "0:100",
            "--grid", "1000", "--mc-samples", "5000", "--out", str(tmp_path / "run")]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "histogram.csv").exists()
