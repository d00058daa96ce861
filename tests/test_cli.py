import ctypes
import json
import os
import platform
import subprocess
import sys
import threading
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from spintransfer.chain import ChainSpec, Perfect, protocol_preset
from spintransfer.certify import (
    check_oracle_amplitudes,
    check_perfect_spectrum,
    check_sector_dimensions,
    check_sector_hamiltonians,
    run_certification,
)
from spintransfer import analytics, certify, channel, dynamics, oracle
from spintransfer.cli import (
    EXIT_CERTIFY,
    EXIT_NUMERIC,
    EXIT_PARAMETER,
    KS_GATE_ALPHA,
    keep_heap_mapped,
    main,
)
from spintransfer.dynamics import sector_spectrum
from spintransfer.oracle import MAX_ORACLE_BLOCK
from spintransfer.sectors import SectorBasis


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
        "seed": 5.0,  # an integral float is an integer
        "output_dir": str(tmp_path / "from_file"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "override"
    assert run_cli("pdf", "--config", str(path), "--out", str(out)) == 0
    record = read_json(out / "result.json")
    assert record["config"]["output_dir"] == str(out)
    assert record["config"]["seed"] == 5 and isinstance(record["config"]["seed"], int)


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
    "config_n_sites_fractional": ({"n_sites": 10.7}, "n_sites"),
    "config_seed_fractional": ({"seed": 2.9}, "seed"),
    "config_grid_fractional": ({"grid": 150.5}, "grid"),
    "config_seed_boolean": ({"seed": True}, "seed"),
    "mode_key_not_taken": (["--mode", "at_optimal:0.3"], "fraction"),
    "config_mode_keys_not_taken": (
        {"mode": {"type": "at_optimal", "fraction": 0.3, "value": 7}}, "fraction, value"
    ),
    # "false", "off" and 0 are no JSON booleans: read with bool(), the
    # first two ran a jitter read-out with the field on
    "config_jitter_not_boolean": ({"mode": {"type": "timing_error"}, "jitter": "false"}, "jitter"),
    "config_jitter_zero": ({"mode": {"type": "timing_error"}, "jitter": 0}, "jitter"),
    "config_aux_field_not_boolean": ({"aux_field": "off"}, "aux_field"),
    # the perfect chain takes no parameter: echoing j0 and h0 named a chain
    # that never ran
    "protocol_keys_not_taken": (["--j0", "0.05", "--h0", "7"], "h0, j0"),
    "config_protocol_key_not_taken": ({"protocol": {"kind": "perfect", "j0": 0.05}}, "j0"),
    # a falsy window was dropped: the run scanned the ladder and echoed null
    "config_window_false": ({"window": False}, "window"),
    "config_window_zero": ({"window": 0}, "window"),
    "config_window_empty_list": ({"window": []}, "window"),
    "config_window_empty_text": ({"window": ""}, "window"),
    "config_unknown_keys": ({"mc_sample": 5, "gird": 300}, "gird, mc_sample"),
    "config_mode_not_an_object": ({"mode": "target_avg"}, "mode"),
    # no read-out before the transfer starts
    "negative_window": (["--window=-2:-0.1"], "window"),
    # the multinomial split takes an int64 count: 2**63 wrote pdf_curve.csv,
    # then crashed with an OverflowError
    "mc_samples_over_int64": (["--mc-samples", str(2**63)], "mc_samples"),
    # an integer too large for a float crashed with an OverflowError
    "config_fraction_over_float": (
        {"mode": {"type": "timing_error", "fraction": 10**400}}, "mode fraction"
    ),
    # numpy refused arrays this long with a ValueError: the scan's grid, and
    # the histogram's edges after pdf_curve.csv was written
    "grid_over_bound": (["--grid", str(2**62)], "grid"),
    "bins_over_bound": (["--mc-samples", "1000", "--bins", str(2**62)], "bins"),
    # the preset's dense N x N matrices of a million sites ran out of memory
    "n_sites_over_bound": (["--n-sites", "1000000"], "n_sites"),
    # a flag is its field's text, checked by the config's rules alone
    "flag_n_sites_fractional": (["--n-sites", "8.5"], "n_sites"),
    "flag_unknown_protocol": (["--protocol", "foo"], "protocol kind"),
    "flag_unknown_scenario": (["--scenario", "foo"], "scenario"),
    "flag_grid_not_a_number": (["--grid", "many"], "grid"),
    "flag_j0_not_a_number": (["--protocol", "weak", "--j0", "abc"], "protocol j0"),
}


@pytest.mark.parametrize(("malformed", "field"), list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_exit_code(tmp_path, capsys, malformed, field):
    args = [
        "pdf",
        "--protocol", "perfect",
        "--scenario", "one_qubit_vacuum",
        "--mc-samples", "0",
        "--out", str(tmp_path / "x"),
    ]
    if not (isinstance(malformed, dict) and "n_sites" in malformed):
        args += ["--n-sites", "8"]  # a flag overrides the config field
    if isinstance(malformed, list):
        args += malformed
    else:
        path = tmp_path / "config.json"
        path.write_text(malformed if isinstance(malformed, str) else json.dumps(malformed))
        args += ["--config", str(path)]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "x").exists()


def test_flags_follow_the_config_number_rule(tmp_path):
    # integral text is an integer field's number, as an integral float is
    # in the file: the flags and the file run the same experiment
    setting = ["pdf", "--protocol", "perfect", "--scenario", "one_qubit_vacuum",
               "--mode", "target_avg:0.97"]
    flags = tmp_path / "flags"
    assert run_cli(*setting, "--n-sites", "8.0", "--mc-samples", "1e3", "--out", str(flags)) == 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_sites": 8, "mc_samples": 1e3}))
    file = tmp_path / "file"
    assert run_cli(*setting, "--config", str(path), "--out", str(file)) == 0
    records = [read_json(out / "result.json") for out in (flags, file)]
    for record in records:
        assert record["config"].pop("output_dir")
    assert records[0] == records[1]
    assert records[0]["config"]["n_sites"] == 8 and records[0]["config"]["mc_samples"] == 1000


def test_pdf_help_lists_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("pdf", "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{weak,barrier,perfect}" in out
    assert "{one_qubit_vacuum,one_qubit_uniform,two_qubit}" in out


def test_output_dir_must_be_text(tmp_path, monkeypatch, capsys):
    # a number is no directory name: 7 wrote into a directory named "7"
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPINTRANSFER_OUT", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": 7}))
    args = [a for a in BASE]
    args[args.index("--mc-samples") + 1] = "0"
    assert run_cli(*args, "--config", str(path)) == 2
    assert "output_dir" in capsys.readouterr().err
    assert not (tmp_path / "7").exists()


def test_null_output_dir_falls_back_to_env(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("SPINTRANSFER_OUT", str(out))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": None, "mc_samples": 0}))
    args = ["pdf", "--protocol", "perfect", "--n-sites", "8", "--scenario", "one_qubit_vacuum"]
    assert run_cli(*args, "--config", str(path)) == 0
    assert read_json(out / "result.json")["config"]["output_dir"] == str(out)


NULLABLE = ["mode", "mc_samples", "seed", "bins", "aux_field", "window", "grid", "jitter"]


@pytest.mark.parametrize("field", NULLABLE)
def test_null_field_is_absent(tmp_path, field):
    # null means absent for every field: the run echoes the default, as if
    # the field were not there
    setting = ["pdf", "--protocol", "perfect", "--n-sites", "8", "--scenario", "one_qubit_vacuum"]
    base = {} if field == "mc_samples" else {"mc_samples": 0}
    for name, config in (("null", {**base, field: None}), ("absent", base)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert run_cli(*setting, "--config", str(path), "--out", str(tmp_path / name)) == 0
    null = read_json(tmp_path / "null" / "result.json")
    absent = read_json(tmp_path / "absent" / "result.json")
    for record in (null, absent):
        del record["config"]["output_dir"]
    assert null == absent


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under README's ``heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(heading, 1)[1]
    return section.split(f"```{language}", 1)[1].split("```", 1)[0]


def readme_experiment() -> dict:
    """The experiment.json of README's "Experiment configuration"."""
    return json.loads(readme_block("### Experiment configuration", "json"))


def run_python(script: str, **env) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter with this checkout's ``src`` first
    on the module path and ``env`` added to the environment."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_readme_library_sketch_runs():
    # the README's library example runs as written, in a fresh process: it
    # tunes the barrier chain, reads out at the 0.99 target and prints that
    # law; a stale call or import in it fails here
    check = "\nassert abs(law.mean[0] - 0.99) <= 1e-6\n"
    done = run_python(readme_block("## Library sketch", "python") + check)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_package_import_loads_no_sampler_or_worker_modules():
    # importing the command line module, the setup cost of every run,
    # loads neither numpy's random package, scipy, concurrent.futures nor
    # multiprocessing
    done = run_python(
        "import sys\n"
        "import spintransfer.cli\n"
        "print(sorted({'numpy.random', 'scipy', 'concurrent.futures', 'multiprocessing'}\n"
        "             & set(sys.modules)))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


ROUND_TRIP = {
    "flags_barrier_jitter": ["--protocol", "barrier", "--h0", "200", "--n-sites", "8",
                             "--scenario", "one_qubit_vacuum", "--mode", "timing_error:0.02",
                             "--jitter", "--mc-samples", "0"],
    "flags_weak_window": ["--protocol", "weak", "--j0", "0.05", "--n-sites", "8",
                          "--scenario", "one_qubit_vacuum", "--window", "0:400",
                          "--grid", "2000", "--aux-field", "off", "--mc-samples", "0"],
    # an integer or text protocol parameter runs, and is echoed, as a float
    "config_integer_and_text": {"protocol": {"kind": "weak", "j0": "0.05"}, "n_sites": 8,
                                "scenario": "two_qubit", "mode": {"type": "timing_error",
                                                                   "fraction": 0.01},
                                "mc_samples": 2000, "window": [0, 400]},
    "config_barrier_integer": {"protocol": {"kind": "barrier", "h0": 200}, "n_sites": 8,
                               "scenario": "one_qubit_uniform", "mc_samples": 0},
    "readme_experiment": "readme",
}


@pytest.mark.parametrize("source", list(ROUND_TRIP.values()), ids=list(ROUND_TRIP))
def test_echo_round_trips(tmp_path, source):
    # the echo is the configuration that ran: building a config from it
    # gives it back, protocol parameters as floats, and rebuilds the chain
    from dataclasses import asdict

    from spintransfer import cli

    out = tmp_path / "run"
    if isinstance(source, list):
        args = source
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(readme_experiment() if source == "readme" else source))
        args = ["--config", str(path)]
    assert run_cli("pdf", *args, "--out", str(out)) == 0
    echo = read_json(out / "result.json")["config"]
    config = cli.ExperimentConfig(**echo)
    # JSON writes the window tuple as a list
    assert json.loads(json.dumps(asdict(config))) == echo
    assert all(isinstance(v, float) for k, v in echo["protocol"].items() if k != "kind")
    argv = ["pdf", *args, "--out", str(out)]
    ran = cli.load_config(cli.build_parser().parse_args(argv))
    assert config == ran
    assert cli._build_spec(config) == cli._build_spec(ran)


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


def test_grid_without_window_rescans_the_ladder_window(tmp_path):
    # --grid alone: the ladder picks the window, then the tuning rescans
    # that window at the given grid
    from spintransfer.chain import Weak
    from spintransfer.channel import Scenario

    out = tmp_path / "tune"
    args = ["tune", "--protocol", "weak", "--j0", "0.05", "--n-sites", "8",
            "--scenario", "one_qubit_vacuum", "--grid", "1234", "--out", str(out)]
    assert run_cli(*args) == 0
    record = read_json(out / "result.json")
    assert record["config"]["grid"] == 1234 and record["config"]["window"] is None
    scenario = Scenario.ONE_QUBIT_VACUUM
    spec = protocol_preset(Weak(0.05), 8)
    ladder = analytics.tune_with_ladder(spec, scenario, Weak(0.05), True)
    assert ladder.window[2] != 1234
    rescan = analytics.find_optimal_time(spec, scenario, ladder.window[:2], 1234, True)
    assert analytics.tune_with_ladder(spec, scenario, Weak(0.05), True, grid=1234) == rescan
    assert record["t_opt"] == rescan.t_opt


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


def test_certify_reports_kraus_completeness_failure(tmp_path, monkeypatch):
    # every Kraus set now fails its completeness tolerance: certify records
    # the failed checks and writes its report rather than aborting
    monkeypatch.setattr(channel, "COMPLETENESS_TOL", -1.0)
    out = tmp_path / "cert"
    assert run_cli("certify", "--n-max", "4", "--out", str(out)) == EXIT_CERTIFY
    with open(out / "certification.json", encoding="utf-8") as fh:
        text = fh.read()
    assert "Infinity" not in text and "NaN" not in text
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    for name in ("kraus_completeness", "channel_oracle_equivalence", "fidelity_duality"):
        assert checks[name]["passed"] is False
        assert "NumericError" in checks[name]["detail"]
    assert checks["sector_dimensions"]["passed"] is True


def test_certify_rejects_oversize():
    # the C(61, 2) pair block of the two-qubit inputs is past the oracle's cap
    assert comb(61, 2) > MAX_ORACLE_BLOCK
    assert run_cli("certify", "--n-max", "61") == 2


def test_certify_reports_non_unitary_oracle(tmp_path, monkeypatch):
    # every block's first eigenvector is 1e-10 too long: the oracle must
    # fail its own norm check rather than renormalize the error away
    spectrum = oracle._block_spectrum

    def skewed(spec, q):
        *head, evecs = spectrum(spec, q)
        evecs = evecs.copy()
        evecs[:, 0] *= 1.0 + 1e-10
        return (*head, evecs)

    monkeypatch.setattr(oracle, "_block_spectrum", skewed)
    out = tmp_path / "cert"
    assert run_cli("certify", "--n-max", "8", "--out", str(out)) == EXIT_CERTIFY
    with open(out / "certification.json", encoding="utf-8") as fh:
        checks = {c["name"]: c for c in json.load(fh)["checks"]}
    for name in ("oracle_amplitude_equivalence", "channel_oracle_equivalence"):
        assert checks[name]["passed"] is False
        assert "NumericError" in checks[name]["detail"]
    assert checks["sector_dimensions"]["passed"] is True


def test_certify_sweep_case_count():
    # ten read-out times per (N, chain, scenario) case: batching the times
    # keeps every case
    checks = {c["name"]: c for c in run_certification(6)["checks"]}
    for name in ("kraus_completeness", "channel_oracle_equivalence", "fidelity_duality"):
        assert checks[name]["detail"] == "330 cases, N in 4..6"
        assert checks[name]["passed"]


def test_certify_reports_each_check_once():
    report = run_certification(6)
    assert [c["name"] for c in report["checks"]] == [
        "sector_dimensions", "sector_hamiltonian_symmetry_and_gauge",
        "perfect_spectrum_equal_spacing", "amplitude_unitarity",
        "oracle_amplitude_equivalence", "pair_rows_vs_sector", "grid_rows_vs_pointwise",
        "kraus_completeness", "channel_oracle_equivalence", "fidelity_duality",
        "fidelity_law_rows_vs_kraus", "pdf_normalization", "two_qubit_twirl_vs_clifford",
        "bloch_map_vs_kraus", "min_fidelity_branches",
    ]
    assert report["all_passed"]


def test_certify_normalizes_two_qubit_densities(monkeypatch):
    # every A - B C^2 row's density 1e-4 too large: only the sweep's
    # normalization of the two-qubit laws can see it
    density = analytics.FidelityLaw._row_density

    def scaled(self, f):
        return density(self, f) * (1.0 + 1e-4 if self.coefficients.shape[1] == 2 else 1.0)

    monkeypatch.setattr(analytics.FidelityLaw, "_row_density", scaled)
    checks = {c.name: c for c in certify.check_channels_against_oracle(4)}
    assert not checks["pdf_normalization"].passed
    assert abs(checks["pdf_normalization"].max_error - 1e-4) <= 1e-6
    assert checks["fidelity_law_rows_vs_kraus"].passed


# A fresh interpreter with single-threaded BLAS runs one OS thread, so
# run_certification forks helpers there; two usable cores are declared so
# that it does on a one-core machine too, and os.fork is counted.
FORKING_CERTIFY = """
import json, os, sys, time
from spintransfer import certify
from spintransfer.errors import NumericError
certify.usable_cores = lambda: 2
forks = []
fork = os.fork
def counted_fork():
    forks.append(1)
    return fork()
os.fork = counted_fork
caller = os.getpid()
def in_helpers(action):
    # the caller sleeps on its first such check while the helper claims
    # the rest, so some of them call action in the helper
    def check():
        if os.getpid() == caller:
            time.sleep(0.5)
            return certify.check_perfect_spectrum()
        action()
    for name in ('check_sector_dimensions', 'check_sector_hamiltonians',
                 'check_amplitude_unitarity', 'check_pair_rows', 'check_grid_rows',
                 'check_bloch_map', 'check_min_fidelity_branches'):
        setattr(certify, name, check)
"""
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}
forking = pytest.mark.skipif(not sys.platform.startswith("linux"),
                             reason="certify forks helpers on Linux only")


@forking
def test_certify_helpers_write_the_serial_report(monkeypatch):
    # the report of three forked helpers, more workers than most machines
    # have cores, equals the one the caller writes alone
    done = run_python(
        FORKING_CERTIFY + "certify.usable_cores = lambda: 4\n"
        "report = certify.run_certification(6)\n"
        "print(len(forks)); print(json.dumps(report))\n",
        **SINGLE_THREADED_BLAS,
    )
    assert done.returncode == 0, done.stderr
    forks, report = done.stdout.splitlines()
    assert forks == "3"
    monkeypatch.setattr(certify, "usable_cores", lambda: 1)
    assert json.loads(report) == run_certification(6)


@forking
@pytest.mark.parametrize(
    ("action", "message", "cause"),
    [("raise RuntimeError('raised in a helper')", "raised in a helper",
      ", in action\nRuntimeError: raised in a helper"),
     ("os._exit(3)", "ended without a result, exit status 3", "None")],
    ids=["error", "exit"],
)
def test_certify_raises_a_helper_failure_and_reaps_every_helper(action, message, cause):
    # an error other than a check failure, or a helper ending without its
    # results, is raised in the caller, and no helper is left behind, not
    # even a zombie; a helper's error is chained from its own traceback,
    # which names the function that raised it
    done = run_python(
        FORKING_CERTIFY
        + f"def action():\n    {action}\n"
        "in_helpers(action)\n"
        "try:\n"
        "    certify.run_certification(4)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "    print(json.dumps(str(exc.__cause__)))\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
        "print(len(forks))\n",
        **SINGLE_THREADED_BLAS,
    )
    assert done.returncode == 0, done.stderr
    raised, chained, *rest = done.stdout.splitlines()
    assert message in raised
    assert cause in json.loads(chained)
    assert rest == ["no child left", "1"]


@forking
def test_certify_reports_a_helper_numeric_error_as_a_failed_check():
    done = run_python(
        FORKING_CERTIFY
        + "def action():\n    raise NumericError('injected in a helper')\n"
        "in_helpers(action)\n"
        "report = certify.run_certification(4)\n"
        "print(len(forks)); print(json.dumps(report))\n",
        **SINGLE_THREADED_BLAS,
    )
    assert done.returncode == 0, done.stderr
    forks, report = done.stdout.splitlines()
    assert forks == "1"
    report = json.loads(report)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed and not report["all_passed"]
    for check in failed:
        assert check["detail"] == "NumericError: injected in a helper"
    # the sweep, untouched, passes whoever ran its groups
    assert all(c["passed"] for c in report["checks"] if c["name"] in certify.SWEEP_TOLERANCES)


def test_certify_does_not_fork_with_a_second_thread_alive(monkeypatch):
    # forking a threaded process is unsafe: with a second thread alive the
    # caller runs every check itself
    def no_fork():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(certify, "usable_cores", lambda: 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        report = run_certification(4)
    finally:
        stop.set()
        thread.join()
    assert report["all_passed"]


def test_serial_certify_loads_no_masked_arrays():
    # numpy.ma costs 13-16 ms to import, and no check needs it
    done = run_python(
        "import sys\n"
        "from spintransfer import certify\n"
        "certify.usable_cores = lambda: 1\n"
        "assert certify.run_certification(6)['all_passed']\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["pdf", "tune"])
def test_missing_scenario_names_the_choices(command, tmp_path, capsys):
    code = run_cli(command, "--protocol", "perfect", "--n-sites", "8",
                   "--out", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    assert "scenario is missing" in err and "unknown scenario" not in err
    for choice in ("one_qubit_vacuum", "one_qubit_uniform", "two_qubit"):
        assert choice in err


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


@pytest.mark.parametrize("source", ["flag", "config"])
def test_jitter_record_rebuilds_its_run(tmp_path, source):
    # bench/op.py recomputes a jitter run's mean from result.json alone:
    # the chain from ExperimentConfig(**echo), the window from the echoed
    # fraction; on the run's own nodes that gives the run's average
    from spintransfer import cli
    from spintransfer.analytics import JITTER_MIX_NODES, avg_fidelity_curve
    from spintransfer.channel import Scenario

    out = tmp_path / "run"
    if source == "flag":
        args = ["--protocol", "perfect", "--n-sites", "8", "--scenario", "one_qubit_vacuum",
                "--mc-samples", "0", "--mode", "timing_error:0.02", "--jitter"]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "protocol": {"kind": "perfect"}, "n_sites": 8, "scenario": "one_qubit_vacuum",
            "mc_samples": 0, "mode": {"type": "timing_error"}, "jitter": True,
        }))
        args = ["--config", str(path)]
    assert run_cli("pdf", *args, "--out", str(out)) == 0
    record = read_json(out / "result.json")
    config = record["config"]
    assert config["mode"] == {"type": "timing_error", "fraction": 0.02}
    spec = cli._build_spec(cli.ExperimentConfig(**config))
    if record["b_aux"]:
        spec = spec.with_uniform_field(record["b_aux"])
    fraction = float(config["mode"]["fraction"])
    times = record["t_opt"] * np.linspace(1.0 - fraction, 1.0 + fraction, JITTER_MIX_NODES)
    mean = avg_fidelity_curve(spec, Scenario(config["scenario"]), times).mean()
    assert record["avg_fidelity"] == pytest.approx(mean, abs=1e-12)


def test_jitter_mixture_is_normalized(tmp_path):
    # the 41-row law of barrier h0=200 N=22 at 2% jitter: adaptive
    # quadrature over all rows' breakpoints ran out of subdivisions there
    # and returned 0.99924
    from spintransfer import cli
    from spintransfer.analytics import FidelityLaw, fidelity_law

    args = ["pdf", "--protocol", "barrier", "--h0", "200", "--n-sites", "22",
            "--scenario", "one_qubit_vacuum", "--mode", "timing_error:0.02", "--jitter",
            "--out", str(tmp_path)]
    config = cli.load_config(cli.build_parser().parse_args(args))
    plan = cli._resolve_plan(config, cli._build_spec(config))
    law = fidelity_law(plan.spec, plan.scenario, plan.times)
    assert law.coefficients.shape == (41, 3)
    assert law.normalization() == pytest.approx(1.0, abs=1e-6)
    # the written curve's cdf is the rows' cdfs summed in order, to the last bit
    rows = [FidelityLaw(row[None]) for row in law.coefficients]
    fs = np.array(cli.pdf_curve_rows(law))[:, 0]
    assert np.array_equal(law.cdf(fs), sum(row.cdf(fs) for row in rows) / len(rows))


@pytest.mark.parametrize(
    "mode",
    [
        ["--mode", "at_optimal"],
        ["--mode", "timing_error:0.05", "--jitter", "--mc-samples", "200000"],
    ],
    ids=["at_optimal", "jitter"],
)
def test_perfect_transfer_passes_its_ks_gate(tmp_path, mode):
    # perfect transfer at N = 22 collapses a law row to a step at its mean,
    # which rounds to 1 + 2e-16, while every Monte Carlo sample clamps to 1:
    # the bins must reach the step, or the law's cdf reads 0 where the
    # samples read 1 and a correct run fails its KS gate
    out = tmp_path / "run"
    assert run_cli("pdf", "--protocol", "perfect", "--n-sites", "22",
                   "--scenario", "one_qubit_vacuum", *mode, "--out", str(out)) == 0
    record = read_json(out / "result.json")
    rows = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1)
    assert rows[-1, 1] == max(1.0, record["f_max"])
    samples = record["config"]["mc_samples"]
    assert record["ks_distance"] <= np.sqrt(np.log(2.0 / KS_GATE_ALPHA) / (2.0 * samples))


def test_fixed_time_histogram_is_one_kraus_run(tmp_path):
    # a single read-out time samples the run's own stream, exactly as a
    # direct Monte Carlo run of the Kraus set at that time
    from spintransfer import cli
    from spintransfer.analytics import fidelity_law
    from spintransfer.channel import kraus_at_times
    from spintransfer.sampling import RandomStream, default_bin_edges, mc_fidelity_histogram

    args = [a for a in BASE]
    args[args.index("--mode") + 1] = "timing_error:0.02"
    args += ["--out", str(tmp_path / "run")]
    config = cli.load_config(cli.build_parser().parse_args(args))
    plan = cli._resolve_plan(config, cli._build_spec(config))
    assert np.array_equal(plan.times, [plan.t_read])
    law = fidelity_law(plan.spec, plan.scenario, [plan.t_read])
    expected = mc_fidelity_histogram(
        kraus_at_times(plan.spec, plan.scenario, [plan.t_read]),
        config.mc_samples,
        default_bin_edges(law, config.bins),
        RandomStream(config.seed),
    )
    assert run_cli(*args) == 0
    rows = np.loadtxt(tmp_path / "run" / "histogram.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 2].astype(np.int64), expected.counts)


@pytest.mark.parametrize(
    "run",
    [
        ["--mode", "timing_error:0.02", "--jitter"],
        ["--protocol", "weak", "--j0", "0.05", "--scenario", "two_qubit"],
    ],
    ids=["jitter", "two_qubit"],
)
def test_pdf_files_do_not_depend_on_the_core_count(tmp_path, monkeypatch, run):
    # 10^5 samples are 41 blocks for the jitter stack and 4 for one time:
    # one worker, and more workers than this machine may have
    from spintransfer import sampling

    files = {}
    for cores in (1, 3):
        monkeypatch.setattr(sampling, "usable_cores", lambda cores=cores: cores)
        out = tmp_path / f"cores{cores}"
        args = [*BASE, "--mc-samples", "100000", *run, "--out", str(out)]
        assert run_cli(*args) == 0
        record = read_json(out / "result.json")
        record["config"].pop("output_dir")
        files[cores] = (record, (out / "histogram.csv").read_bytes())
    assert files[1] == files[3]


def test_corrupted_coupling_detected_by_spectrum_check():
    # a mis-engineered coupling magnitude leaves the channel algebra intact
    # (the channel is complete, and the law agrees with the oracle channel)
    # but breaks the equally-spaced spectrum of the engineered chain
    from spintransfer.analytics import fidelity_law
    from spintransfer.certify import reduce_kraus
    from spintransfer.channel import Scenario, kraus_at_times

    spec = protocol_preset(Perfect(), 8)
    couplings = spec.couplings.copy()
    couplings[1, 2] = couplings[2, 1] = couplings[1, 2] * 1.05
    corrupted = ChainSpec(8, couplings, spec.anisotropies, spec.fields)

    kraus = kraus_at_times(corrupted, Scenario.ONE_QUBIT_VACUUM, [1.3])
    assert kraus.completeness_defect[0] <= 1e-9  # still a valid channel
    # the oracle channel's reduction and the sector law, two independent
    # evaluators, agree on the corrupted chain
    law = fidelity_law(corrupted, Scenario.ONE_QUBIT_VACUUM, [1.3])
    gap = np.abs(reduce_kraus(kraus).coefficients - law.coefficients).max()
    assert gap <= 1e-12

    gaps = np.diff(sector_spectrum(corrupted, 1).eigenvalues)
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
    dynamics.sector_spectrum.cache_clear()
    try:
        result = check_oracle_amplitudes(10)
    finally:
        # the mutated sectors must not outlive the test
        dynamics.sector_spectrum.cache_clear()
    assert not result.passed and result.max_error > 1e-3


def test_gauge_check_sees_a_missing_vacuum_shift(monkeypatch):
    # with no vacuum shift every sector diagonal is off by the vacuum
    # energy, and the gauge clause compares the one-excitation diagonal
    # with its closed form
    monkeypatch.setattr(ChainSpec, "vacuum_energy", lambda self: 0.0)
    result = check_sector_hamiltonians()
    assert not result.passed and result.max_error > 1e-3


def test_sector_dimensions_check_sees_a_basis_off_by_one_site(monkeypatch):
    # sites 0..N-1 give the right sizes and a consistent index, but not the
    # sites 1..N that the oracle's bit patterns hold
    monkeypatch.setattr(
        certify,
        "build_sector_basis",
        lambda n, q: SectorBasis(n, q, tuple(combinations(range(n), q))),
    )
    result = check_sector_dimensions()
    assert not result.passed and result.max_error == 1.0
    assert result.detail == "basis differs from the bit patterns at N=2 q=1"


def test_sign_flip_is_gauge_equivalent():
    # flipping one bond sign is a basis sign change: the spectrum survives,
    # so magnitude corruption (not sign) is the right regression stimulus
    spec = protocol_preset(Perfect(), 8)
    couplings = spec.couplings.copy()
    couplings[1, 2] = couplings[2, 1] = -couplings[1, 2]

    flipped = ChainSpec(8, couplings, spec.anisotropies, spec.fields)
    gaps = np.diff(sector_spectrum(flipped, 1).eigenvalues)
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

    def recording(matrix, basis):
        sizes.append(np.shape(matrix)[0])
        return diagonalize(matrix, basis)

    monkeypatch.setattr(dynamics, "diagonalize", recording)
    dynamics.sector_spectrum.cache_clear()
    assert run_cli(*args) == 0
    return sizes


def test_vacuum_pdf_never_builds_pair_sector(tmp_path, monkeypatch):
    # the one-qubit vacuum law reads only one-excitation amplitudes and its
    # Monte Carlo the oracle's channel, so no sector larger than N x N is
    # diagonalised
    args = [a for a in BASE]
    args[args.index("--n-sites") + 1] = "12"
    args[args.index("--mode") + 1] = "at_optimal"
    sizes = diagonalised_sizes(monkeypatch, [*args, "--out", str(tmp_path / "run")])
    assert sizes and max(sizes) <= 12


@pytest.mark.parametrize(("scenario", "n_sites"), [("one_qubit_uniform", 12), ("two_qubit", 9)])
def test_pair_law_pdf_never_builds_pair_sector(tmp_path, monkeypatch, scenario, n_sites):
    # on a nearest-neighbour preset the occupied-channel and two-qubit laws
    # take pair amplitudes as determinants of one-excitation amplitudes, and
    # the Kraus sets come from the oracle, so the pair sector is never
    # diagonalised
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


README_BARRIER = ["pdf", "--protocol", "barrier", "--h0", "200", "--n-sites", "22",
                  "--scenario", "one_qubit_vacuum", "--mode", "target_avg:0.99",
                  "--mc-samples", "1000000"]


def test_ks_gate_sees_a_wrong_sector_eigenvalue(tmp_path, monkeypatch):
    # the law reads the sector spectrum and the Monte Carlo the oracle's
    # channel: one one-excitation eigenvalue shifted by 1e-6 on the sector
    # path alone moves only the law, and the README barrier run fails its
    # KS gate with every file written
    diagonalize = dynamics.diagonalize

    def shifted(matrix, basis):
        prop = diagonalize(matrix, basis)
        if basis.n_excitations != 1:
            return prop
        eigenvalues = prop.eigenvalues.copy()
        eigenvalues[eigenvalues.size // 2] += 1e-6
        return dynamics.SpectralPropagator(eigenvalues, prop.eigenvectors, basis)

    monkeypatch.setattr(dynamics, "diagonalize", shifted)
    dynamics.sector_spectrum.cache_clear()
    out = tmp_path / "run"
    try:
        code = run_cli(*README_BARRIER, "--out", str(out))
    finally:
        # the shifted sectors must not outlive the test
        dynamics.sector_spectrum.cache_clear()
    assert code == EXIT_CERTIFY
    bound = np.sqrt(np.log(2.0 / KS_GATE_ALPHA) / (2.0 * 1_000_000))
    assert read_json(out / "result.json")["ks_distance"] > bound


def test_monte_carlo_past_the_oracle_cap_writes_nothing(tmp_path, capsys):
    # the Monte Carlo channel needs the oracle's C(61, 2) pair block, past
    # its cap: the run exits 2 before any file is written, naming Monte
    # Carlo and the way out, while the law alone reads no oracle block and runs
    args = ["pdf", "--protocol", "perfect", "--n-sites", "61", "--scenario", "two_qubit",
            "--mode", "at_optimal"]
    out = tmp_path / "mc"
    assert run_cli(*args, "--mc-samples", "1000", "--out", str(out)) == EXIT_PARAMETER
    assert not out.exists()
    message = capsys.readouterr().err
    assert "Monte Carlo" in message and "C(61, 2)" in message
    assert "--mc-samples 0" in message
    assert run_cli(*args, "--mc-samples", "0", "--out", str(tmp_path / "law")) == 0


@pytest.mark.parametrize(
    ("protocol", "name"),
    [(["weak", "--j0", "1e-200"], "j0=1e-200"), (["barrier", "--h0", "1e200"], "h0=1e+200")],
    ids=["weak", "barrier"],
)
def test_ladder_past_the_float_range_writes_nothing(tmp_path, capsys, protocol, name):
    # the ladder's windows grow as (1/j0)^2 and h0^2, which leave the float
    # range here: the run exits 2 naming the parameter, before any file is
    # written, where squaring the scale raised an OverflowError
    out = tmp_path / "run"
    code = run_cli("tune", "--protocol", *protocol, "--n-sites", "6",
                   "--scenario", "one_qubit_vacuum", "--out", str(out))
    assert code == EXIT_PARAMETER
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["tune", "--aux-field", "off"], ["tune"], ["pdf", "--aux-field", "off", "--mc-samples", "100"]],
    ids=["tune", "tune_field", "pdf"],
)
def test_non_finite_scan_writes_nothing(tmp_path, capsys, command):
    # the phase arguments L t overflow on this window: the window is
    # refused before the scan, exit 5 naming it, so numpy raises no warning
    # (an error under the project's pytest settings) and no file is written
    out = tmp_path / "run"
    code = run_cli(*command, "--protocol", "perfect", "--n-sites", "8",
                   "--scenario", "one_qubit_vacuum", "--window", "0:1e308", "--grid", "100",
                   "--out", str(out))
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "window (0.0, 1e+308)" in err and err.count("\n") == 1
    assert not out.exists()  # no result.json, nor any other file


def test_vast_window_writes_nothing(tmp_path, capsys):
    # the phases on this finite window round by eps R t_hi ~ 1e292: its scan
    # would pick noise (t_opt 3.43e306 at <F> 0.414), so it exits 5
    out = tmp_path / "run"
    code = run_cli("tune", "--protocol", "perfect", "--n-sites", "8",
                   "--scenario", "one_qubit_vacuum", "--window", "0:1e307", "--grid", "100",
                   "--out", str(out))
    assert code == EXIT_NUMERIC
    assert "window (0.0, 1e+307) is too long" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("failure", [OSError("no libc"), TypeError("no handle"), None])
def test_keep_heap_mapped_without_mallopt(tmp_path, monkeypatch, failure):
    # a libc that cannot be loaded (OSError; TypeError as on Windows) or has
    # no mallopt leaves the allocator alone, and the run goes on
    def cdll(name):
        if failure is not None:
            raise failure
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert keep_heap_mapped() is False
    assert run_cli(*BASE, "--out", str(tmp_path / "run")) == 0
    assert (tmp_path / "run" / "histogram.csv").exists()


def test_keep_heap_mapped_is_a_no_op_off_linux(monkeypatch):
    def cdll(name):
        raise AssertionError("libc loaded off Linux")

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert keep_heap_mapped() is False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
def test_keep_heap_mapped_on_glibc():
    assert keep_heap_mapped() is True


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
def test_main_keeps_heap_mapped_and_outputs_unchanged(tmp_path):
    # the same pdf through main (which keeps freed pages mapped) and through
    # load_config + cmd_pdf (which does not), each in a fresh process: the
    # files match byte for byte, output_dir aside, and main's run takes at
    # most half the minor page faults
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    script = (
        "import resource, sys\n"
        "from spintransfer import cli\n"
        "entry, argv = sys.argv[1], sys.argv[2:]\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "if entry == 'main':\n"
        "    assert cli.main(argv) == 0\n"
        "else:\n"
        "    cli.cmd_pdf(cli.load_config(cli.build_parser().parse_args(argv)))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    argv = ["pdf", "--protocol", "weak", "--j0", "0.005", "--n-sites", "9",
            "--scenario", "two_qubit", "--mode", "target_avg:0.99",
            "--mc-samples", "20000", "--seed", "1"]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    faults = {}
    for entry in ("main", "direct"):
        done = subprocess.run([sys.executable, "-c", script, entry, *argv,
                               "--out", str(tmp_path / entry)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        faults[entry] = int(done.stdout.splitlines()[-1])
    for name in ("pdf_curve.csv", "histogram.csv"):
        assert (tmp_path / "main" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()
    records = [read_json(tmp_path / entry / "result.json") for entry in ("main", "direct")]
    for record in records:
        record["config"].pop("output_dir")
    assert records[0] == records[1]
    assert faults["main"] <= faults["direct"] / 2, faults
