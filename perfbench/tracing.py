"""Span tracing of quenchlab from outside the package.

`Tracer.install` replaces every public function of the quenchlab
submodules by a wrapper that records one span per call: name, start, end,
parent span, the rise of the process's peak RSS across the call and, for a
few functions, a work count read off the result.  A function is replaced
in every submodule namespace that binds it (``gge`` binds
``build_bogoliubov`` at import time, for instance), so a call is traced
whichever module makes it.  The package source is not touched.

`layer_metrics` turns the spans of one run into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time
from collections import Counter, defaultdict

LAYERS = ("model", "bogoliubov", "dynamics", "gge", "covariance",
          "fock_oracle", "cli")

# Work counts read off a call's result: K*T occupation samples for the
# kernel, stored amplitudes for the oracle expansion.
_WORK = {
    "dynamics.evolve_occupations": lambda res: int(res.n_expect.size),
    "fock_oracle.expand_initial_state": lambda res: int(res.support_size()),
}


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._restore = []

    def _wrap(self, name, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            rss0 = _maxrss_kb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_rise_kb"] = _maxrss_kb() - rss0
                self._open.pop()
            if work is not None:
                span["work"] = work(result)
            return result

        return traced

    def install(self, modules):
        """Wrap the public functions of `modules`, a dict layer -> module."""
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        """Put the original functions back, so later calls are not traced."""
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore.clear()

    def export(self, origin):
        """Spans as JSON-ready dicts, times in seconds from `origin`."""
        return [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                for s in self.spans]


def layer_metrics(spans, bytes_written):
    """Per-layer metrics of one run from its spans.

    Self time is a span's duration minus the time its child spans cover;
    a layer's self time sums its spans.  Inclusive times and RSS rises
    count only the outermost call of a name, so recursion is not counted
    twice.
    """
    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]

    def outermost(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return False
            p = by_id[p]["parent"]
        return True

    self_s = dict.fromkeys(LAYERS, 0.0)
    incl, rise_kb = defaultdict(float), defaultdict(int)
    calls, work = Counter(), Counter()
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        self_s[name.split(".", 1)[0]] += dur - covered[s["id"]]
        calls[name] += 1
        work[name] += s.get("work", 0)
        if outermost(s):
            incl[name] += dur
            rise_kb[name] += s["rss_rise_kb"]

    def rate(num, seconds):
        return num / seconds if seconds > 0 else 0.0

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "dynamics.evolve_s": incl["dynamics.evolve_occupations"],
        "dynamics.mode_samples_per_s": rate(
            work["dynamics.evolve_occupations"],
            incl["dynamics.evolve_occupations"]),
        "dynamics.rss_rise_mb": rise_kb["dynamics.evolve_occupations"] / 1024,
        "covariance.thermal_s": incl["covariance.thermal_form_check"],
        "covariance.rss_rise_mb":
            rise_kb["covariance.thermal_form_check"] / 1024,
        "fock_oracle.expand_s": incl["fock_oracle.expand_initial_state"],
        "fock_oracle.series_s": incl["fock_oracle.occupation_series"],
        "fock_oracle.correlators_s": incl["fock_oracle.oracle_correlators"],
        "fock_oracle.residuals_s": (incl["fock_oracle.annihilation_residual"]
                                    + incl["fock_oracle.constraint_residual"]),
        "fock_oracle.table_s": incl["fock_oracle.delocalization_table"],
        "fock_oracle.support_states": work["fock_oracle.expand_initial_state"],
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": rate(bytes_written / 1e6, self_s["cli"]),
        "bogoliubov.build_s": incl["bogoliubov.build_bogoliubov"],
        "bogoliubov.build_calls": calls["bogoliubov.build_bogoliubov"],
        "bogoliubov.f_matrix_s": incl["bogoliubov.f_matrix"],
        "model.normal_modes_calls": calls["model.normal_modes"],
        "gge.sweep_s": incl["gge.single_excitation_sweep"],
        "gge.summary_s": incl["gge.gge_summary_json"],
    })
    return m
