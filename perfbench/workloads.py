"""The benchmark workloads: inputs from a seed, the timed run, output checks.

Each workload is a pair of functions.  ``run(q, seed, reduced, work, data)``
is the timed part: it calls into quenchlab through ``q`` (a namespace of
the package modules, so traced wrappers are picked up) and writes datasets
into ``data``.  ``check(q, ctx, data, expect)`` runs afterwards, untimed
and untraced, and reports each output check through ``expect(name, ok,
detail)``.  Checks compare values within tolerances, never bytes, so a
correct reordering of floating-point work still passes.

``reduced`` shrinks a workload for the benchmark's self-test; every check
that still applies at the reduced size is kept.
"""

from __future__ import annotations

import json

import numpy as np

# Values the parent commit produced; the presets are fixed by the paper.
RECURRENCE_TIMES = {"M=10": 380.0, "M=16": 777.0, "M=20": 1059.0}
TABLE1_COUNTS = [(695, 3180), (1792, 10857), (2950, 20800)]
SWEEP_SLOPE = -0.9583806113896831
ORACLE_SUPPORT = 3235
# (leakage, correlator_gap_vs_quadratic) per excited pair of the 2+2
# chains at cutoff 8, order 12.  The gap is criterion 4b's truncation
# floor and must not move.
ORACLE_FROZEN = {
    (1, 2): (3.067638523979177e-05, 0.0009400260639578217),
    (1, 3): (9.191456201218529e-05, 0.002768649488705699),
    (1, 4): (3.0676385241013016e-05, 0.0009400260856351483),
    (2, 3): (3.0676385241013016e-05, 0.0009400260856354814),
    (2, 4): (4.324297738778071e-06, 0.0001363983451693196),
    (3, 4): (3.0676385240013815e-05, 0.0009400260639577107),
}


def excited_modes(seed, total):
    """Two distinct 1-based pre-quench modes drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return tuple(sorted(int(m) + 1 for m in rng.choice(total, 2, replace=False)))


def _write_config(path, N, M, modes, **keys):
    occ = [0] * (N + M)
    for m in modes:
        occ[m - 1] = 1
    lines = [f"N = {N}", f"M = {M}",
             "occupations = " + ", ".join(map(str, occ))]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _max_abs_diff(a, b):
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))))


def _rel_diff(value, ref):
    return abs(value - ref) / abs(ref)


def _spec(q, cfg_path):
    with open(cfg_path) as fh:
        return q.model.quench_from_config(q.model.parse_config(fh.read()))


# -- presets: the paper's figure, table and scaling sweep ------------------

def run_presets(q, seed, reduced, work, data):
    names = ("sweep",) if reduced else ("fig1", "table1", "sweep")
    return {"codes": {name: q.cli.main(["--preset", name, "--out", str(data)])
                      for name in names}}


def check_presets(q, ctx, data, expect):
    codes = ctx["codes"]
    for name, code in codes.items():
        expect(f"main --preset {name} exits 0", code == 0, code)
    if "fig1" in codes:
        rec = _load(data / "recurrence_times.json")
        ok = rec.keys() == RECURRENCE_TIMES.keys() and all(
            rec[k] is not None and abs(rec[k] - v) <= 1e-9
            for k, v in RECURRENCE_TIMES.items())
        expect("fig1 recurrence times", ok, rec)
    if "table1" in codes:
        rows = _load(data / "delocalization_table.json")
        counts = [(r["single_count"], r["pair_count"]) for r in rows]
        expect("table1 counts", counts == TABLE1_COUNTS, counts)
    if "sweep" in codes:
        slope = _load(data / "sweep.json")["log_log_slope"]
        expect("sweep slope", abs(slope - SWEEP_SLOPE) <= 1e-9, slope)
    for path in sorted(data.glob("dynamics_summary_*.json")):
        s = _load(path)
        gap = _max_abs_diff(s["long_time_avg"], s["gge_n"])
        expect(f"{path.name} long_time_avg vs gge_n", gap <= 1e-12, gap)
        spec = q.model.QuenchSpec.build(s["n_left"], s["n_right"],
                                        occupations=s["occupations"])
        bog = q.bogoliubov.build_bogoliubov(spec)
        name = f"dynamics_N{s['n_left']}_M{s['n_right']}.csv"
        _check_occupations(expect, name, _csv(data / name), bog.alpha,
                           bog.beta, bog.omega_joint, s["occupations"])


# -- wide-chain: large K, kernel and covariance windows --------------------

def run_wide_chain(q, seed, reduced, work, data):
    N, M, steps = (8, 12, 11) if reduced else (80, 120, 101)
    modes = excited_modes(seed, N + M)
    cfg = _write_config(work / "run.cfg", N, M, modes, t_max=2000,
                        t_steps=steps,
                        analyses="dynamics, gge, covariance")
    code = q.cli.main(["--config", cfg, "--out", str(data),
                       "--dump-bogoliubov"])
    return {"code": code, "cfg": cfg, "tag": f"N{N}_M{M}", "K": N + M}


def _symplectic_defect(a, b):
    eye = np.eye(a.shape[0])
    return float(max(np.max(np.abs(a @ a.T - b @ b.T - eye)),
                     np.max(np.abs(a @ b.T - b @ a.T)),
                     np.max(np.abs(a.T @ a - b.T @ b - eye)),
                     np.max(np.abs(a.T @ b - b.T @ a))))


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_occupations(expect, name, rows, alpha, beta, w, occupations):
    """Compare n_m(t), the rows of a dynamics CSV, with an independent
    evaluation.

    For a Fock initial state n_m(t) = sum_j |U_mj|^2 n_j + |V_mj|^2 (n_j+1)
    with U(t) = a e^{-iwt} a^T - b e^{iwt} b^T and
    V(t) = a e^{-iwt} b^T - b e^{iwt} a^T, checked at the first, middle
    and last sample.
    """
    n = np.asarray(occupations, dtype=float)
    worst = 0.0
    for row in rows[[0, len(rows) // 2, -1]]:
        em, ep = np.exp(-1j * w * row[0]), np.exp(1j * w * row[0])
        u = (alpha * em) @ alpha.T - (beta * ep) @ beta.T
        v = (alpha * em) @ beta.T - (beta * ep) @ alpha.T
        ref = np.abs(u) ** 2 @ n + np.abs(v) ** 2 @ (n + 1.0)
        worst = max(worst, _max_abs_diff(row[1:n.size + 1], ref))
    expect(f"{name} n_m(t) vs U/V reference", worst <= 1e-9, worst)


def check_wide_chain(q, ctx, data, expect):
    tag, K = ctx["tag"], ctx["K"]
    expect("main exits 0", ctx["code"] == 0, ctx["code"])
    summary = _load(data / f"dynamics_summary_{tag}.json")
    gge = _load(data / f"gge_{tag}.json")
    gap = _max_abs_diff(gge["gge_n"], summary["long_time_avg"])
    expect("gge_n vs long_time_avg", gap <= 1e-10, gap)
    e0 = q.bogoliubov.pre_quench_energy(_spec(q, ctx["cfg"]))
    rel = _rel_diff(summary["e_total_joint"], e0)
    expect("e_total_joint vs pre_quench_energy", rel <= 1e-10, rel)
    alpha = _csv(data / f"alpha_{tag}.csv")[:, 1:]
    beta = _csv(data / f"beta_{tag}.csv")[:, 1:]
    defect = _symplectic_defect(alpha, beta)
    expect("symplectic defect of dumped alpha, beta", defect <= 1e-10, defect)
    rows = _csv(data / f"dynamics_{tag}.csv")
    n_min = float(rows[:, 1:K + 1].min())
    expect("smallest n_m(t)", n_min >= -1e-8, n_min)
    _check_occupations(expect, f"dynamics_{tag}.csv", rows, alpha, beta,
                       q.model.mode_frequencies(K), summary["occupations"])


# -- oracle-2x2: the truncated-Fock oracle in its deep form ----------------

def run_oracle_2x2(q, seed, reduced, work, data):
    modes = excited_modes(seed, 4)
    cfg = _write_config(work / "run.cfg", 2, 2, modes, t_max=50,
                        t_steps=2 if reduced else 26,
                        analyses="fock-oracle", cutoff=8, order=12)
    code = q.cli.main(["--config", cfg, "--out", str(data)])
    spec = _spec(q, cfg)
    bog = q.bogoliubov.build_bogoliubov(spec)
    f = q.bogoliubov.f_matrix(bog)
    state = q.fock_oracle.expand_initial_state(spec, bog, f, order=12,
                                               cutoff=8)
    oracle = q.fock_oracle.occupation_series(state, spec, bog, spec.time_grid)
    corr = q.bogoliubov.initial_correlations(bog, spec.initial_state)
    exact = q.dynamics.evolve_occupations(spec, bog, corr).n_expect
    return {"code": code, "modes": modes, "support": state.support_size(),
            "occupation_gap": _max_abs_diff(oracle, exact)}


def check_oracle_2x2(q, ctx, data, expect):
    expect("main exits 0", ctx["code"] == 0, ctx["code"])
    out = _load(data / "oracle_N2_M2.json")
    supports = (out["support_size"], ctx["support"])
    expect("support_size", supports == (ORACLE_SUPPORT,) * 2, supports)
    expect("leakage <= 1e-2", out["leakage"] <= 1e-2, out["leakage"])
    expect("oracle vs analytic occupations", ctx["occupation_gap"] <= 2e-3,
           ctx["occupation_gap"])
    leakage, gap = ORACLE_FROZEN[ctx["modes"]]
    for key, ref in (("leakage", leakage),
                     ("correlator_gap_vs_quadratic", gap)):
        rel = _rel_diff(out[key], ref)
        expect(f"{key} frozen", rel <= 1e-9, rel)


WORKLOADS = {
    "presets": (run_presets, check_presets),
    "wide-chain": (run_wide_chain, check_wide_chain),
    "oracle-2x2": (run_oracle_2x2, check_oracle_2x2),
}
