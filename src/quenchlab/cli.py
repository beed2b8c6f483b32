"""Batch experiment runner.

Reads a key = value config or a named preset, runs the requested analyses,
and writes CSV/JSON datasets plus a manifest into the output directory.
Exit codes: 0 success, 2 bad config, 3 numeric failure, 4 I/O trouble.

The BLAS/OpenMP thread pools are sized when numpy loads; pin them by setting
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and
NUMEXPR_NUM_THREADS before the process starts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import (__version__, bogoliubov, covariance, dynamics, fock_oracle, gge,
               model)

PRESETS = ("fig1", "table1", "sweep")


# Values per block of _write_csv.  The formatter makes about 140 numpy calls
# a block whatever its size, and its work arrays peak at about 95 bytes a
# value (tracemalloc).  Writing fig1's dynamics, fluctuations and permode
# tables and wide-chain's six CSVs (best of 31 in process, medians
# in parentheses) took 34.3 (43.9) and 27.5 (33.9) ms at 2560 values a
# block, 28.8 (38.4) and 24.1 (32.8) at 4096, 30.0 (37.1) and 23.3 (30.3)
# at 8192 and 34.3 (42.3) and 27.7 (34.4) at 16384, with peaks of 253, 400,
# 793 and 1580 KB; 8192 had the lowest medians on both.
_CSV_BLOCK = 8192


def _write_csv(path, header, table):
    """Write a 2-D table as %.17g CSV under a one-line header, the bytes of
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
    header=",".join(header), comments="").  A block of whole rows at a
    time goes through the exact vectorized formatter of `_csvformat`;
    returns how many values it handed to `%` instead."""
    # imported on first use: a run that writes no CSV never builds its tables
    from ._csvformat import write_rows

    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    step = max(1, _CSV_BLOCK // cols)
    fallbacks = 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, step):
            fallbacks += write_rows(fh.write, table[start:start + step], cols)
    return fallbacks


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tagged(name, spec, ext):
    return f"{name}_N{spec.n_left}_M{spec.n_right}.{ext}"


class _Outputs:
    """What a run writes into `outdir`: the file names in the order they
    were written, how many values `_write_csv` handed to `%`, and the
    perf_counter seconds of each stage, summed over a preset's configs."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.files = []
        self.csv_fallbacks = 0
        self.timings = {}

    def csv(self, fname, header, table):
        self.csv_fallbacks += _write_csv(os.path.join(self.outdir, fname),
                                         header, table)
        self.files.append(fname)

    def json(self, fname, payload):
        _write_json(os.path.join(self.outdir, fname), payload)
        self.files.append(fname)

    @contextlib.contextmanager
    def stage(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = (self.timings.get(name, 0.0)
                                  + time.perf_counter() - start)


def _dump_bogoliubov(spec, bog, f, out):
    K = spec.total_size
    joint_cols = [f"joint_{k}" for k in range(1, K + 1)]
    modes = np.arange(1.0, K + 1)
    for name, first, mat in (("alpha", "pre_mode", bog.alpha),
                             ("beta", "pre_mode", bog.beta),
                             ("f_matrix", "joint_mode", f)):
        out.csv(_tagged(name, spec, "csv"), [first] + joint_cols,
                np.column_stack([modes, mat]))


def _run_dynamics(spec, bog, out, threshold, skip):
    corr = bogoliubov.initial_correlations(bog, spec.initial_state)
    series = dynamics.evolve_occupations(spec, bog, corr)

    K = spec.total_size
    header = (["t"] + [f"n_{m}" for m in range(1, K + 1)]
              + ["E_N", "E_M", "E_N_plus_E_M", "E_total_joint"])
    table = np.column_stack([
        series.times, series.n_expect, series.e_left, series.e_right,
        series.e_left + series.e_right,
        np.full(len(series.times), series.e_total_joint)])
    out.csv(_tagged("dynamics", spec, "csv"), header, table)

    fluct = dynamics.fluctuation_series(series, threshold=threshold,
                                        relaxation_skip=skip)
    out.csv(_tagged("fluctuations", spec, "csv"), ["t", "ratio"],
            np.column_stack([fluct.times, fluct.ratio]))

    out.csv(_tagged("permode", spec, "csv"),
            ["t", "e_left_per_site", "e_right_per_site"],
            np.column_stack([series.times, series.e_left / spec.n_left,
                             series.e_right / spec.n_right]))

    ens = gge.build_gge(
        bogoliubov.emitted_occupations(bog, spec.initial_state))
    summary = {
        "n_left": spec.n_left,
        "n_right": spec.n_right,
        "occupations": list(spec.initial_state.occupations),
        "long_time_avg": series.long_time_avg.tolist(),
        "gge_n": gge.gge_expectations(bog, ens).tolist(),
        "e_left_avg": series.e_left_avg,
        "e_right_avg": series.e_right_avg,
        "e_total_joint": series.e_total_joint,
        "first_recurrence_time": fluct.first_recurrence_time,
        "recurrence_threshold": fluct.recurrence_threshold,
        "relaxation_skip": fluct.relaxation_skip,
    }
    out.json(_tagged("dynamics_summary", spec, "json"), summary)
    return fluct.first_recurrence_time


def _run_gge(spec, bog, out):
    fname = _tagged("gge", spec, "json")
    with open(os.path.join(out.outdir, fname), "w", newline="\n") as fh:
        fh.write(gge.gge_summary_json(bog, spec.initial_state))
        fh.write("\n")
    out.files.append(fname)


def _run_covariance(spec, out):
    cov = covariance.joint_covariance(spec)
    rep = covariance.thermal_form_check(cov, spec)
    payload = {
        "passed": rep.passed,
        "windows": rep.windows.tolist(),
        "max_offdiag_avg": rep.max_offdiag_avg.tolist(),
        "decay_slope": rep.decay_slope,
        "gge_occupancies": rep.gge_occupancies.tolist(),
    }
    out.json(_tagged("covariance", spec, "json"), payload)


def _run_oracle(spec, bog, f, out, cutoff, order):
    series = fock_oracle.expand_squeezed_vacuum(f, order)
    # the annihilation identities certify the squeezed vacuum, not states
    # with creation operators stacked on top, so measure them on the
    # vacuum; its ladder images serve both, one product at a time, and the
    # moments of a vacuum run
    state = fock_oracle._project(series, cutoff)
    images = fock_oracle._images(state)
    a_resid = fock_oracle._largest_norm(images, bog.alpha, bog.beta)
    f_resid = fock_oracle._largest_norm(images, np.eye(spec.total_size), f)
    if spec.initial_state.total:
        del images, state  # freed before the excited state's images
        state = fock_oracle._project(fock_oracle._lift(series, spec, bog),
                                     cutoff)
        del series
        oracle = fock_oracle.oracle_correlators(state)
    else:
        oracle = fock_oracle._moments(images)
    exact = bogoliubov.initial_correlations(bog, spec.initial_state)
    gap = max(float(np.max(np.abs(getattr(oracle, k) - getattr(exact, k))))
              for k in ("cdag_c", "cdag_cdag", "c_c", "c_cdag"))
    payload = {
        "cutoff": cutoff,
        "order": order,
        "support_size": state.support_size(),
        "leakage": state.leakage,
        "dropped_occupation": state.dropped_occupation,
        "vacuum_annihilation_residual": a_resid,
        "vacuum_constraint_residual": f_resid,
        "correlator_gap_vs_quadratic": gap,
    }
    out.json(_tagged("oracle", spec, "json"), payload)


def _run_delocalization(spec, bog, f, out, floor):
    order = 1
    big = 4 * order + 2 * spec.initial_state.total + 2
    state = fock_oracle.expand_initial_state(spec, bog, f, order=order,
                                             cutoff=big)
    payload = {
        "count": fock_oracle.delocalization_count(state, floor),
        "floor": floor,
        "order": order,
        "support_size": state.support_size(),
        "occupations": list(spec.initial_state.occupations),
    }
    out.json(_tagged("delocalization", spec, "json"), payload)


def _run_sweep(out):
    res = gge.single_excitation_sweep()
    payload = {
        "total_sizes": list(res.sizes),
        "delta_g_at_observation_mode": list(res.delta_values),
        "log_log_slope": res.slope,
        "vacuum_densities": list(res.vacuum_densities),
        "density_rel_change_top_octave": res.density_rel_change,
        "per_mode_energy_gap": list(res.energy_gaps),
    }
    out.json("sweep.json", payload)


def _run_config(cfg, out, dump):
    """Run cfg's analyses in order, each a timed stage of `out` named after
    it, after the stages "map" (the map, its check and F) and "dump"; return
    the first recurrence time that the dynamics analysis found (None
    without it).

    The map is built and checked once, and F once if anything reads it.
    """
    spec = bog = f = t_rec = None
    if set(cfg.analyses) - {"sweep"} or dump:
        with out.stage("map"):
            spec = model.quench_from_config(cfg)
            bog = bogoliubov.build_bogoliubov(spec)
            defect = bog.symplectic_defect()
            if defect > bogoliubov.SYMPLECTIC_TOL:
                raise bogoliubov.ConsistencyError(
                    f"symplectic defect {defect:.3e} > "
                    f"{bogoliubov.SYMPLECTIC_TOL:g}")
            if dump or {"fock-oracle", "delocalization"} & set(cfg.analyses):
                f = bogoliubov.f_matrix(bog)
    if dump:
        with out.stage("dump"):
            _dump_bogoliubov(spec, bog, f, out)
    for name in cfg.analyses:
        with out.stage(name):
            if name == "dynamics":
                t_rec = _run_dynamics(spec, bog, out,
                                      cfg.recurrence_threshold,
                                      cfg.relaxation_skip)
            elif name == "gge":
                _run_gge(spec, bog, out)
            elif name == "covariance":
                _run_covariance(spec, out)
            elif name == "fock-oracle":
                _run_oracle(spec, bog, f, out, cfg.cutoff, cfg.order)
            elif name == "delocalization":
                _run_delocalization(spec, bog, f, out, cfg.floor)
            elif name == "sweep":
                _run_sweep(out)
    return t_rec


def _run_preset(name, out, dump):
    """Run a preset: fig1 as three configs, table1's delocalization table
    as a "delocalization" stage, and sweep as a "sweep" stage."""
    if name == "fig1":
        recurrences = {}
        for M in (10, 16, 20):
            cfg = model.RunConfig(N=5, M=M,
                                  occupations=(0, 0, 1, 1, 0) + (0,) * M)
            recurrences[f"M={M}"] = _run_config(cfg, out, dump)
        out.json("recurrence_times.json", recurrences)
    elif name == "table1":
        with out.stage("delocalization"):
            rows = fock_oracle.delocalization_table()
            out.json("delocalization_table.json", rows)
            out.csv("delocalization_table.csv",
                    ["n_left", "n_right", "single_count", "pair_count"],
                    [[r["n_left"], r["n_right"], r["single_count"],
                      r["pair_count"]] for r in rows])
    elif name == "sweep":
        with out.stage("sweep"):
            _run_sweep(out)


def _versions():
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "quenchlab": __version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quenchlab",
        description="Coupled-chain quench simulator: batch datasets from "
                    "configs or presets.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a key = value config file")
    source.add_argument("--preset", choices=PRESETS, help="named batch run")
    parser.add_argument("--out", help="output directory (falls back to "
                        "QUENCHLAB_OUT, then the working directory)")
    parser.add_argument("--dump-bogoliubov", action="store_true",
                        help="also write alpha, beta and F matrices as CSV")
    args = parser.parse_args(argv)

    outdir = args.out or os.environ.get("QUENCHLAB_OUT") or "."
    t0 = time.perf_counter()
    out = _Outputs(outdir)
    manifest = {
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "preset": args.preset,
        "config_path": args.config,
        "config": None,
        "outputs": out.files,
        "versions": _versions(),
        "tolerances": {
            "floor": None,
            "imag_tol": bogoliubov.IMAG_TOL,
            "symplectic_tol": bogoliubov.SYMPLECTIC_TOL,
            "alpha_condition_limit": bogoliubov.COND_LIMIT,
            "decay_margin": covariance.DECAY_MARGIN,
        },
        "status": "error",
        "error": None,
        "timings": out.timings,
        "csv_fallbacks": 0,
        "wall_time_s": None,
    }

    code = 0
    try:
        os.makedirs(outdir, exist_ok=True)
        cfg = model.RunConfig()
        if args.config:
            with open(args.config) as fh:
                cfg = model.parse_config(fh.read())
            manifest["config"] = asdict(cfg)
        manifest["tolerances"]["floor"] = cfg.floor
        if args.preset:
            _run_preset(args.preset, out, args.dump_bogoliubov)
        else:
            _run_config(cfg, out, args.dump_bogoliubov)
        manifest["status"] = "ok"
    except Exception as exc:
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = _exit_code_for(exc)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        manifest["csv_fallbacks"] = out.csv_fallbacks
        manifest["wall_time_s"] = time.perf_counter() - t0
        try:
            _write_json(os.path.join(outdir, "manifest.json"), manifest)
        except OSError as exc:
            print(f"error: cannot write manifest: {exc}", file=sys.stderr)
            code = code or 4
    return code


def _exit_code_for(exc) -> int:
    if isinstance(exc, model.ConfigError):
        return 2
    if isinstance(exc, OSError):
        return 4
    if isinstance(exc, (ArithmeticError, ValueError, KeyError,
                        np.linalg.LinAlgError)):
        return 3
    return 1


if __name__ == "__main__":
    sys.exit(main())
