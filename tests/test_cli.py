import json
import os

import numpy as np
import pytest

from quenchlab import cli
from quenchlab.bogoliubov import build_bogoliubov

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
], ids=["negative-N", "cutoff-abc", "order-1.5", "floor-0", "skip-x",
        "threshold-nan", "t_max-inf", "t_steps-0", "t_max-negative",
        "t_max-0", "occupations-1.5"])
def test_invalid_value_exits_2(tmp_path, lines, key):
    cfg = _write_config(tmp_path, f"M = 2\n{lines}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["error"]["type"] == "ConfigError"
    assert key in man["error"]["message"]


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


def test_missing_config_file_exits_4(tmp_path):
    out = tmp_path / "out"
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["--config", missing, "--out", str(out)]) == 4
    assert _manifest(out)["error"]["type"] == "FileNotFoundError"


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


def test_threads_flag_sets_pools(tmp_path):
    cfg = _write_config(tmp_path, "N = 2\nM = 2\nanalyses =\n")
    out = tmp_path / "out"
    saved = {var: os.environ.get(var) for var in cli._THREAD_VARS}
    try:
        assert cli.main(["--config", cfg, "--out", str(out),
                         "--threads", "2"]) == 0
        for var in cli._THREAD_VARS:
            assert os.environ[var] == "2"
    finally:
        for var, val in saved.items():
            if val is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = val
    assert _manifest(out)["threads"] == 2


def test_nonpositive_threads_rejected(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["--threads", "0"])


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
