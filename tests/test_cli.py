import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import quenchlab
from quenchlab import (bogoliubov, cli, covariance, dynamics, fock_oracle, gge,
                       model)
from quenchlab.bogoliubov import build_bogoliubov, pre_quench_energy

from conftest import make_spec

FULL_CONFIG = """\
# two dimers, both middle modes excited
N = 2
M = 2
occupations = 0, 1, 1, 0
t_max = 50
t_steps = 26
analyses = dynamics, gge, covariance, fock-oracle, delocalization
"""


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _manifest(outdir):
    with open(os.path.join(str(outdir), "manifest.json")) as fh:
        return json.load(fh)


def test_full_config_run(tmp_path):
    cfg = _write_config(tmp_path, FULL_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    man = _manifest(out)
    assert man["status"] == "ok"
    assert man["error"] is None
    expected = ["dynamics_N2_M2.csv", "fluctuations_N2_M2.csv",
                "permode_N2_M2.csv", "dynamics_summary_N2_M2.json",
                "gge_N2_M2.json", "covariance_N2_M2.json",
                "oracle_N2_M2.json", "delocalization_N2_M2.json"]
    for fname in expected:
        assert (out / fname).exists()
        assert fname in man["outputs"]
    with open(out / "dynamics_summary_N2_M2.json") as fh:
        summary = json.load(fh)
    assert summary["recurrence_threshold"] == 0.5
    np.testing.assert_allclose(summary["gge_n"], summary["long_time_avg"],
                               rtol=0, atol=1e-12)
    with open(out / "covariance_N2_M2.json") as fh:
        report = json.load(fh)
    assert report["passed"] is True and "b_tol" not in report


def test_full_config_at_non_default_constants(tmp_path):
    cfg = _write_config(tmp_path, FULL_CONFIG.replace(
        "M = 2\n", "M = 2\nmass = 1.3\nomega0 = 0.8\nhbar = 0.7\n").replace(
        "delocalization\n", "delocalization, sweep\n"))
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out),
                     "--dump-bogoliubov"]) == 0
    config = _manifest(out)["config"]
    assert (config["mass"], config["omega0"], config["hbar"]) == (1.3, 0.8, 0.7)
    with open(out / "dynamics_summary_N2_M2.json") as fh:
        e_joint = json.load(fh)["e_total_joint"]
    spec = make_spec(2, 2, modes=(2, 3), mass=1.3, omega0=0.8, hbar=0.7)
    assert abs(e_joint / pre_quench_energy(spec) - 1.0) < 1e-10


def test_dynamics_csv_contents(tmp_path):
    cfg = _write_config(tmp_path, FULL_CONFIG)
    out = tmp_path / "out"
    cli.main(["--config", cfg, "--out", str(out)])
    path = out / "dynamics_N2_M2.csv"
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "n_1", "n_2", "n_3", "n_4",
                      "E_N", "E_M", "E_N_plus_E_M", "E_total_joint"]
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (26, 9)
    np.testing.assert_allclose(data[0, 1:5], [0.0, 1.0, 1.0, 0.0],
                               rtol=0, atol=1e-8)
    np.testing.assert_allclose(data[:, 7], data[:, 5] + data[:, 6],
                               rtol=0, atol=1e-12)
    assert np.all(data[:, 8] == data[0, 8])


def _csv_tables():
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((3000, 3)) * 10.0 ** rng.integers(-300, 300,
                                                                (3000, 3))
    special = np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 1.0 / 3]])
    # random bit patterns of both signs; the first 500 are subnormal, and
    # inf/nan patterns are made finite by clearing an exponent bit
    bits = rng.integers(0, 2**64, 12000, dtype=np.uint64, endpoint=False)
    bits[:500] &= np.uint64(2**63 + 2**52 - 1)
    bits[~np.isfinite(bits.view(np.float64))] ^= np.uint64(2**62)
    # 1e-280 prints as 9.9999999999999996e-281 though log10 gives -280
    tens = np.array([float(f"1e{k}") for k in range(-300, 300)])
    ties = 1 + np.arange(1, 2**17, 16) / 2**17      # 17 digits, then a 5
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    step = np.arange(-40, 41) * 2.0**-52
    return {
        "int": np.arange(12).reshape(4, 3),
        "int-lists": [[5, 10, 695, 3180], [5, 16, 1792, 10857]],
        "special": special,
        "one-row": special[:1],
        "one-column": rng.standard_normal((5000, 1)),
        "rows-not-multiple-of-block": wide,
        "wider-than-block": rng.standard_normal((3, 5000)),
        "random-bits": bits.view(np.float64).reshape(-1, 6),
        "powers-of-ten": np.column_stack(
            [np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)]),
        "ties": np.outer(ties, 2.0 ** np.array([0, -40, -7, 9, 33])),
        "integers-near-2**53": np.arange(2**53 - 1500, 2**53 + 1500,
                                         dtype=np.int64).reshape(-1, 3),
        "g-switches": np.concatenate([
            np.outer(switches, 1 + step).reshape(-1, 3),
            rng.uniform(0.9e-5, 1.1e-4, (700, 3)),
            rng.uniform(0.9e16, 1.1e17, (700, 3))]),
        "two-blocks-and-three-rows": rng.standard_normal(
            (2 * (cli._CSV_BLOCK // 4) + 3, 4)),
    }


@pytest.mark.parametrize("name", list(_csv_tables()))
def test_csv_writer_matches_savetxt(tmp_path, name):
    table = _csv_tables()[name]
    header = [f"c{j}" for j in range(np.shape(table)[1])]
    cli._write_csv(str(tmp_path / "out.csv"), header, table)
    np.savetxt(str(tmp_path / "ref.csv"), table, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    assert ((tmp_path / "out.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_csv_writer_formats_fig1_without_fallback(tmp_path):
    # the paper's time series take the vectorized path, not `%`
    out = tmp_path / "fig1"
    assert cli.main(["--preset", "fig1", "--out", str(out)]) == 0
    for M in (10, 16, 20):
        path = out / f"dynamics_N5_M{M}.csv"
        header = path.read_text().split("\n", 1)[0].split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        again = tmp_path / "again.csv"
        fallbacks = cli._write_csv(str(again), header, table)
        assert again.read_bytes() == path.read_bytes()
        assert fallbacks <= 1e-3 * table.size, fallbacks


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, FULL_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["--config", cfg, "--out", str(out1)])
    cli.main(["--config", cfg, "--out", str(out2)])
    for fname in ("dynamics_N2_M2.csv", "fluctuations_N2_M2.csv",
                  "gge_N2_M2.json", "oracle_N2_M2.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_unknown_config_key_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nbogus = 3\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["status"] == "error"
    assert man["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("lines, key", [
    ("N = -3", "size"),
    ("N = 2\ncutoff = abc", "cutoff"),
    ("N = 2\norder = 1.5", "order"),
    ("N = 2\nfloor = 0", "floor"),
    ("N = 2\nrelaxation_skip = x", "relaxation_skip"),
    ("N = 2\nrecurrence_threshold = nan", "recurrence_threshold"),
    ("N = 2\nt_max = inf", "t_max"),
    ("N = 2\nt_steps = 0", "t_steps"),
    ("N = 2\nt_max = -5", "t_max"),
    ("N = 2\nt_max = 0", "t_max"),
    ("N = 2\noccupations = 0, 1.5, 0, 0", "occupations"),
    ("N = 2\nanalyses = gge, gge", "analyses"),
    ("N = 2\nanalyses = gge,", "analyses"),
    ("N = 2\npreset = fig1", "preset"),
    ("N = 2\nsweep = 1", "sweep"),
], ids=["negative-N", "cutoff-abc", "order-1.5", "floor-0", "skip-x",
        "threshold-nan", "t_max-inf", "t_steps-0", "t_max-negative",
        "t_max-0", "occupations-1.5", "analyses-repeated",
        "analyses-empty-item", "preset-key", "sweep-key"])
def test_invalid_value_exits_2(tmp_path, lines, key):
    cfg = _write_config(tmp_path, f"M = 2\n{lines}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["error"]["type"] == "ConfigError"
    assert key in man["error"]["message"]


@pytest.mark.parametrize("args", [
    [],
    ["--preset", "sweep", "--config", "missing.cfg"],
    ["--preset", "table1", "--floor", "1e-6"],
], ids=["no-input", "preset-and-config", "floor-flag"])
def test_usage_error_exits_2_and_writes_nothing(tmp_path, args):
    # one input per run, the config or a preset; the floor is a config key
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_manifest_records_values_in_effect(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nfloor = 1e-6\n"
                                  "analyses = delocalization\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    man = _manifest(out)
    with open(out / "delocalization_N2_M2.json") as fh:
        assert json.load(fh)["floor"] == 1e-6
    assert man["tolerances"]["floor"] == 1e-6
    assert man["config"] == {
        "N": 2, "M": 2, "mass": 1.0, "omega0": 1.0, "hbar": 1.0,
        "occupations": [], "t_max": 2000.0, "t_steps": 2001,
        "analyses": ["delocalization"], "cutoff": 8, "order": 12,
        "floor": 1e-6, "recurrence_threshold": 0.5, "relaxation_skip": 50.0}


def test_manifest_tolerances_are_the_checked_bounds(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses =\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    tol = _manifest(out)["tolerances"]
    assert tol["imag_tol"] == dynamics.IMAG_TOL
    assert tol["symplectic_tol"] == bogoliubov.SYMPLECTIC_TOL
    assert tol["alpha_condition_limit"] == bogoliubov.COND_LIMIT
    assert tol["xp_tol"] == covariance.XP_TOL
    assert tol["decay_margin"] == covariance.DECAY_MARGIN


def test_f_matrix_built_once_per_spec(tmp_path, monkeypatch):
    calls = []
    real = bogoliubov.f_matrix

    def counted(bog):
        calls.append(bog)
        return real(bog)

    monkeypatch.setattr(bogoliubov, "f_matrix", counted)
    cfg = _write_config(tmp_path, FULL_CONFIG.replace(
        "delocalization\n", "delocalization, sweep\n"))
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out),
                     "--dump-bogoliubov"]) == 0
    assert "sweep.json" in _manifest(out)["outputs"]
    assert len(calls) == 1


def test_squeezed_vacuum_expanded_once_per_oracle(tmp_path, monkeypatch):
    # the excited state and the vacuum its residuals use share one series
    calls = []
    real = fock_oracle.expand_squeezed_vacuum

    def counted(f, order):
        calls.append(order)
        return real(f, order)

    monkeypatch.setattr(fock_oracle, "expand_squeezed_vacuum", counted)
    cfg = _write_config(tmp_path, "N = 2\nM = 2\noccupations = 0, 1, 1, 0\n"
                        "analyses = fock-oracle\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    assert "oracle_N2_M2.json" in _manifest(out)["outputs"]
    assert calls == [12]


def test_broken_symplectic_map_exits_3(tmp_path, monkeypatch):
    def perturbed(spec):
        bog = build_bogoliubov(spec)
        return replace(bog, alpha=bog.alpha * (1.0 + 1e-6))

    monkeypatch.setattr(bogoliubov, "build_bogoliubov", perturbed)
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses = gge\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 3
    man = _manifest(out)
    assert man["error"]["type"] == "ConsistencyError"
    assert "symplectic" in man["error"]["message"]
    assert man["outputs"] == []


def test_unknown_analysis_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses = dynamite\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2


def test_oversized_oracle_exits_3(tmp_path):
    cfg = _write_config(tmp_path, "N = 5\nM = 10\nanalyses = fock-oracle\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 3
    man = _manifest(out)
    assert man["status"] == "error"
    assert man["error"]["type"] == "CutoffExceeded"


@pytest.mark.parametrize("text, top", [
    ("N = 4\nM = 4\n", 24),                # comb(32, 8) = 10.5 M rows
    ("N = 100\nM = 100\norder = 1\n", 2),  # a Gram on comb(203, 3) rows
], ids=["4+4-order-12", "100+100-order-1"])
def test_oracle_beyond_budget_exits_3_before_any_ladder(tmp_path, monkeypatch,
                                                        text, top):
    def no_ladder(*args):
        raise AssertionError("a ladder ran past the budget")

    for name in ("_ladder_keys", "_pair_keys"):
        monkeypatch.setattr(cli.fock_oracle, name, no_ladder)
    cfg = _write_config(tmp_path, text + "analyses = fock-oracle\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 3
    man = _manifest(out)
    assert man["error"]["type"] == "CutoffExceeded"
    assert f"up to {top} quanta" in man["error"]["message"]


def test_delocalization_beyond_budget_exits_3_before_lifting(tmp_path):
    # 16 quanta on 5+5 chains would reach comb(28, 10) = 13.1 M rows; the
    # lift refuses them all at once, not at the lift that crosses the budget
    cfg = _write_config(tmp_path, "N = 5\nM = 5\noccupations = 16"
                        + ", 0" * 9 + "\nanalyses = delocalization\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 3
    man = _manifest(out)
    assert man["error"]["type"] == "CutoffExceeded"
    assert "up to 18 quanta" in man["error"]["message"]


def test_oracle_on_nine_modes_at_first_order_runs(tmp_path):
    # 5+4 chains at order 1 hold comb(11, 9) = 55 rows
    cfg = _write_config(tmp_path, "N = 5\nM = 4\norder = 1\n"
                        "analyses = fock-oracle\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    with open(out / "oracle_N5_M4.json") as fh:
        assert json.load(fh)["support_size"] <= 55


def test_oracle_json_states_dropped_occupation(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\noccupations = 0, 1, 1, 0\n"
                        "analyses = fock-oracle\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    with open(out / "oracle_N2_M2.json") as fh:
        payload = json.load(fh)
    # about ten times the leakage at cutoff 8
    assert 0.0 < payload["leakage"] < payload["dropped_occupation"] < 1e-3


def test_missing_config_file_exits_4(tmp_path):
    out = tmp_path / "out"
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["--config", missing, "--out", str(out)]) == 4
    assert _manifest(out)["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("argv, stages", [
    (["--config", None], {"map", "dynamics", "gge", "covariance",
                          "fock-oracle", "delocalization"}),
    (["--config", None, "--dump-bogoliubov"],
     {"map", "dump", "dynamics", "gge", "covariance", "fock-oracle",
      "delocalization"}),
    (["--preset", "sweep"], {"sweep"}),
    (["--preset", "table1"], {"delocalization"}),
], ids=["config", "config-dump", "sweep", "table1"])
def test_manifest_times_the_stages_that_ran(tmp_path, argv, stages):
    argv = [a or _write_config(tmp_path, FULL_CONFIG) for a in argv]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    man = _manifest(out)
    assert set(man["timings"]) == stages
    assert all(t >= 0.0 for t in man["timings"].values()), man["timings"]
    assert sum(man["timings"].values()) <= man["wall_time_s"]


def test_manifest_timings_of_a_run_without_stages(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses =\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    man = _manifest(out)
    assert man["timings"] == {} and man["csv_fallbacks"] == 0


def test_manifest_counts_fig1_csv_fallbacks(tmp_path):
    # the manifest's count is the sum of what _write_csv returned; writing
    # each of fig1's CSVs again from its parsed values recounts it
    out = tmp_path / "fig1"
    assert cli.main(["--preset", "fig1", "--dump-bogoliubov",
                     "--out", str(out)]) == 0
    man = _manifest(out)
    assert set(man["timings"]) == {"map", "dump", "dynamics"}
    names = [n for n in man["outputs"] if n.endswith(".csv")]
    assert len(names) == 18, names
    recount = 0
    for name in names:
        path = out / name
        header = path.read_text().split("\n", 1)[0].split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        recount += cli._write_csv(str(tmp_path / "again.csv"), header, table)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    assert man["csv_fallbacks"] == recount


def test_empty_analyses_writes_manifest_only(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses =\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    man = _manifest(out)
    assert man["status"] == "ok"
    assert man["outputs"] == []
    assert os.listdir(out) == ["manifest.json"]


def test_dump_bogoliubov_round_trips(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses =\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out),
                     "--dump-bogoliubov"]) == 0
    for fname in ("alpha_N2_M2.csv", "beta_N2_M2.csv", "f_matrix_N2_M2.csv"):
        assert (out / fname).exists()
    bog = build_bogoliubov(make_spec(2, 2, t_max=1.0, t_steps=2))
    dumped = np.genfromtxt(out / "alpha_N2_M2.csv", delimiter=",",
                           skip_header=1)[:, 1:]
    np.testing.assert_allclose(dumped, bog.alpha, rtol=0, atol=0)


def test_out_env_fallback(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses =\n")
    target = tmp_path / "env_out"
    monkeypatch.setenv("QUENCHLAB_OUT", str(target))
    assert cli.main(["--config", cfg]) == 0
    assert (target / "manifest.json").exists()


def test_threads_flag_is_a_usage_error(tmp_path):
    # thread pools are pinned through the environment before the process
    # starts; the command line has no option for it
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses =\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", cfg, "--out", str(tmp_path / "out"),
                  "--threads", "1"])
    assert exc.value.code == 2


def test_config_run_in_fresh_interpreter(tmp_path):
    # the module entry point, with the pools pinned the documented way
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses = gge\n")
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    paths = (src, os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "quenchlab.cli", "--config", cfg,
                    "--out", str(out)], env=env, check=True)
    man = _manifest(out)
    assert man["status"] == "ok"
    assert not [key for key in man if "threads" in key]
    assert (out / "gge_N2_M2.json").exists()


PACKAGE_EXPORTS = {
    model: ("QuenchSpec", "FockExcitation", "ConfigError"),
    bogoliubov: ("BogoliubovMap", "Moments", "build_bogoliubov", "f_matrix",
                 "initial_correlations"),
    dynamics: ("evolve_occupations", "fluctuation_series",
               "long_time_average"),
    gge: ("build_gge", "gge_expectations", "deviation_delta_g"),
    covariance: ("joint_covariance", "thermal_form_check"),
    fock_oracle: ("expand_initial_state", "oracle_correlators",
                  "delocalization_count"),
}


@pytest.mark.parametrize("module", PACKAGE_EXPORTS, ids=lambda m: m.__name__)
def test_package_exports(module):
    for name in PACKAGE_EXPORTS[module]:
        assert getattr(quenchlab, name) is getattr(module, name), name


def test_permode_is_energy_per_site(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 3\noccupations = 0, 1, 1, 0, 0\n"
                        "t_max = 50\nt_steps = 26\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    dyn = np.loadtxt(out / "dynamics_N2_M3.csv", delimiter=",", skiprows=1)
    per = np.loadtxt(out / "permode_N2_M3.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(per[:, 0], dyn[:, 0])
    # columns 6 and 7 are E_N and E_M, after t and the 5 occupations
    np.testing.assert_array_equal(per[:, 1], dyn[:, 6] / 2)
    np.testing.assert_array_equal(per[:, 2], dyn[:, 7] / 3)


def test_preset_fig1(tmp_path):
    out = tmp_path / "fig1"
    assert cli.main(["--preset", "fig1", "--out", str(out)]) == 0
    with open(out / "recurrence_times.json") as fh:
        rec = json.load(fh)
    times = [rec["M=10"], rec["M=16"], rec["M=20"]]
    assert times == [380.0, 777.0, 1059.0]
    assert times == sorted(times)
    for M in (10, 16, 20):
        assert (out / f"dynamics_N5_M{M}.csv").exists()


def test_preset_table1(tmp_path):
    out = tmp_path / "table1"
    assert cli.main(["--preset", "table1", "--out", str(out)]) == 0
    with open(out / "delocalization_table.json") as fh:
        rows = json.load(fh)
    assert [(r["single_count"], r["pair_count"]) for r in rows] == \
        [(695, 3180), (1792, 10857), (2950, 20800)]
    csv_rows = (out / "delocalization_table.csv").read_text().splitlines()
    assert csv_rows[0] == "n_left,n_right,single_count,pair_count"
    assert len(csv_rows) == 4


def test_preset_sweep(tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["--preset", "sweep", "--out", str(out)]) == 0
    with open(out / "sweep.json") as fh:
        payload = json.load(fh)
    assert payload["total_sizes"] == [10, 20, 40, 80]
    assert -1.15 < payload["log_log_slope"] < -0.85
    assert payload["density_rel_change_top_octave"] < 0.05
