"""Spans around calls into each hvsinglet layer, and the per-layer metrics
derived from them.

The child process installs a `Tracer` after importing hvsinglet.  Each
traced function is wrapped once and the wrapper is bound to every module
attribute that held the original, because `harness`, `inequalities` and the
package itself import these functions by name: patching only the defining
module would miss those calls.  Spans (name, start, end, parent, work) are
kept in flat arrays and written out once, when the child's run ends.
`span_totals` reduces one span file and `layer_metrics` turns the totals of
one pass into the metric values.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

FAMILIES = ("fhv", "shv", "thv", "qm")
MARGIN_KINDS = ("chsh", "leggett", "branciard")
SEARCHES = ("violation_window", "threshold", "max_violation")
AUDITS = ("bhv_chsh_search", "lhv_leggett_search", "lhv_branciard_search")
SAMPLERS = ("sample_unit_batch", "sample_cap_batch")
ENTRIES = ("run_verify", "run_scan", "run_single")


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# (module, function, span label from the call or None, work count or None)
TRACED = (
    ("cli", "main", None, None),
    *(("harness", f, None, None) for f in ENTRIES),
    ("inequalities", "margin", lambda a, k: _arg(a, k, 0, "name"), None),
    *(("inequalities", f, None, None) for f in SEARCHES + AUDITS),
    ("correlators", "plane_avg_correlator", None, None),
    ("correlators", "analytic_correlator", None, None),
    ("correlators", "mc_correlator", lambda a, k: _arg(a, k, 0, "params").family.value,
     "mc"),
    ("correlators", "sphere_moment_oracle", None, None),
    ("models", "thv_positivity_margin", None, None),
    ("models", "outcome_dependence_witness", None, None),
    ("models", "joint", None, None),
    ("geometry", "sample_unit_batch", None, lambda a, k: _arg(a, k, 1, "n")),
    ("geometry", "sample_cap_batch", None, lambda a, k: _arg(a, k, 3, "n")),
)


class Tracer:
    """Span recorder for one child run of `hv`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.largest_shard = 0
        self._open = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _mc_work(self, args: tuple, kwargs: dict) -> int:
        n = _arg(args, kwargs, 2, "n")
        shards = _arg(args, kwargs, 4, "shards", 1)
        self.largest_shard = max(self.largest_shard, -(-n // shards))
        return n

    def wrap(self, fn, name: str, label=None, work=None):
        """`fn` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(self._name_id(name if label is None
                                           else f"{name}.{label(args, kwargs)}"))
            self.parent.append(self._open[-1])
            self.work.append(work(args, kwargs) if work is not None else 0.0)
            self.end.append(0.0)
            self._open.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self) -> None:
        """Wrap every function in `TRACED`, on every hvsinglet module
        attribute bound to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hvsinglet" or key.startswith("hvsinglet.")]
        for module, function, label, work in TRACED:
            original = getattr(sys.modules[f"hvsinglet.{module}"], function)
            traced = self.wrap(original, f"{module}.{function}", label,
                               self._mc_work if work == "mc" else work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def write(self, path) -> None:
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            work=np.frombuffer(self.work),
        )


# ----------------------------- analysis ------------------------------------


def _under(parent: list[int], flag: list[bool]) -> list[bool]:
    """For each span, whether some ancestor is flagged.  A parent always
    opens before its children, so one forward pass suffices."""
    under = [False] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            under[i] = flag[p] or under[p]
    return under


def span_totals(path) -> dict[str, float]:
    """Raw sums from one span file: per-name calls, seconds, self seconds
    and work, plus the nesting counts the ratios need."""
    with np.load(path) as z:
        names = [str(s) for s in z["names"]]
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
        work = z["work"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = dur - child_time
    totals: dict[str, float] = {}
    for i, n in enumerate(names):
        sel = name == i
        totals[f"{n}:calls"] = float(np.count_nonzero(sel))
        totals[f"{n}:s"] = float(dur[sel].sum())
        totals[f"{n}:self_s"] = float(self_time[sel].sum())
        totals[f"{n}:work"] = float(work[sel].sum())

    def flags(prefixes: tuple[str, ...]) -> list[bool]:
        hit = [n.startswith(prefixes) for n in names]
        return [hit[i] for i in name.tolist()]

    parents = parent.tolist()
    search = flags(tuple(f"inequalities.{s}" for s in SEARCHES))
    margin = flags(("inequalities.margin",))
    mc = flags(("correlators.mc_correlator",))
    sampler = flags(tuple(f"geometry.{s}" for s in SAMPLERS))
    under_search = _under(parents, search)
    under_mc = _under(parents, mc)
    totals["top_searches"] = float(sum(s and not u for s, u in zip(search, under_search)))
    totals["margins_in_search"] = float(sum(m and u for m, u in zip(margin, under_search)))
    totals["sampler_in_mc_s"] = float(sum(d for d, s, u in zip(dur.tolist(), sampler, under_mc)
                                          if s and u))
    return totals


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer metric values of one traced pass.

    Each entry of `children` holds the `totals` of its span file and the
    child's `extras` (cache misses, RSS baseline and peak, largest shard).
    """
    t: dict[str, float] = {}
    for child in children:
        for key, value in child["totals"].items():
            t[key] = t.get(key, 0.0) + value

    def g(key: str) -> float:
        return t.get(key, 0.0)

    m: dict[str, float] = {}
    margins = [f"inequalities.margin.{k}" for k in MARGIN_KINDS]
    m["inequalities.margin.calls"] = sum(g(f"{n}:calls") for n in margins)
    for k, n in zip(MARGIN_KINDS, margins):
        m[f"inequalities.margin.{k}.us"] = _ratio(g(f"{n}:s"), g(f"{n}:calls"), 1e6)
    m["inequalities.margin.self_s"] = sum(g(f"{n}:self_s") for n in margins)
    for s in SEARCHES:
        m[f"inequalities.{s}.calls"] = g(f"inequalities.{s}:calls")
        m[f"inequalities.{s}.s"] = g(f"inequalities.{s}:s")
    m["inequalities.margin_per_search"] = _ratio(g("margins_in_search"), g("top_searches"))
    m["inequalities.audit.s"] = sum(g(f"inequalities.{a}:s") for a in AUDITS)
    for f in ("plane_avg_correlator", "analytic_correlator"):
        n = f"correlators.{f}"
        m[f"{n}.calls"] = g(f"{n}:calls")
        m[f"{n}.us"] = _ratio(g(f"{n}:s"), g(f"{n}:calls"), 1e6)
    mcs = [f"correlators.mc_correlator.{f}" for f in FAMILIES]
    m["correlators.mc_correlator.calls"] = sum(g(f"{n}:calls") for n in mcs)
    m["correlators.mc_correlator.samples"] = sum(g(f"{n}:work") for n in mcs)
    m["correlators.mc_correlator.self_s"] = sum(g(f"{n}:self_s") for n in mcs)
    for f, n in zip(FAMILIES, mcs):
        m[f"{n}.ns_per_sample"] = _ratio(g(f"{n}:s"), g(f"{n}:work"), 1e9)
    widest = max(children, key=lambda c: c["extras"]["largest_shard"])["extras"]
    m["correlators.mc_correlator.rss_bytes_per_sample"] = _ratio(
        1024.0 * (widest["peak_rss_kb"] - widest["baseline_rss_kb"]), widest["largest_shard"])
    m["correlators.sphere_moment_oracle.s"] = g("correlators.sphere_moment_oracle:s")
    n = "models.thv_positivity_margin"
    m[f"{n}.calls"] = g(f"{n}:calls")
    m[f"{n}.misses"] = float(sum(c["extras"]["thv_cache_misses"] for c in children))
    m[f"{n}.s"] = g(f"{n}:s")
    m["models.outcome_dependence_witness.s"] = g("models.outcome_dependence_witness:s")
    m["models.joint.calls"] = g("models.joint:calls")
    for s in SAMPLERS:
        n = f"geometry.{s}"
        m[f"{n}.rows"] = g(f"{n}:work")
        m[f"{n}.ns_per_row"] = _ratio(g(f"{n}:s"), g(f"{n}:work"), 1e9)
    m["mc.hidden_share"] = _ratio(g("sampler_in_mc_s"), sum(g(f"{n}:s") for n in mcs))
    m["cli.main.self_s"] = g("cli.main:self_s")
    for e in ENTRIES:
        m[f"harness.{e}.self_s"] = g(f"harness.{e}:self_s")
    return m
