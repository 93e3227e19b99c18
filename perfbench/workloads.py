"""Workload definitions and the output checks that count failed operations.

A workload is a list of `Call`s, each one `hv` command run as a fresh child
process through `hvsinglet.cli.main`; one pass runs every call once, in
order.  All inputs come from the workload seed.  An operation is a verify
claim, a scan row or a Monte-Carlo call; each check returns
(attempted, failed) for one call's output.

Why these workloads, and which layers each loads or bypasses:

* `verify` -- the default-size 38-claim suite, i.e. the paper reproduction
  itself and the main user-facing cost.  It loads the search stack
  (windows, thresholds, maximizers over margins and plane-average
  quadrature, about 55% of its time) and Monte-Carlo in many small calls
  (400 calls of 10^5 samples, about 45%).  Kernel and search optimisations
  must both show here, and so would any per-call overhead that chunked
  Monte-Carlo adds.
* `scan` -- `hv scan` sweeps: the two sample scan configs plus Leggett and
  Branciard margins of `fhv` over eta with phi maximized per row, and a
  Branciard zeta sweep of `thv` at a fixed phi (one positivity audit per
  row).  All of its time is search, margin and quadrature; it bypasses
  Monte-Carlo, so a Monte-Carlo change must show no change here.
* `mc` -- one `hv correlator` Monte-Carlo call per family, including
  `configs/shv_correlator_mc.json`; the fhv and thv calls each hold 10^6
  samples in one shard.  A few large calls and no search: it carries
  per-sample throughput and peak memory, and bypasses the search layer.

Not workloads: the Tier-1 pytest run (about 95 s, mostly four or five
`run_verify` calls over the same code `verify` already times) and
tiny-knob verify (its search-only load is what `scan` covers).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hvsinglet.inequalities import branciard_fhv_max_margin, leggett_fhv_max_margin

VERIFY_CLAIMS = 38
FLAGGED = frozenset({"branciard.fhv.window_center_quoted", "chsh.thv.quoted_slope"})
SCAN_CSV_HEADER = "variable,value_of_variable,inequality,value,bound,margin,violated"
MC_SIGMA = 4.0
MC_N = 1_000_000


@dataclass(frozen=True)
class Call:
    """One `hv` command.  `config`, when set, is written to `config.json` in
    the child's working directory and passed with --config; --out is
    always appended by the runner."""

    label: str
    argv: tuple[str, ...]
    config: dict | None
    check: Callable[[int, str], tuple[int, int]]


# ------------------------------- checks ------------------------------------


def check_verify(rc: int, text: str) -> tuple[int, int]:
    """Every claim passes except exactly the two flagged ones; missing
    claims count as failed."""
    try:
        claims = json.loads(text)["claims"]
    except (ValueError, KeyError, TypeError):
        return VERIFY_CLAIMS, VERIFY_CLAIMS
    failed = 0
    for claim in claims:
        status = claim.get("status")
        expected = "discrepancy-flagged" if claim.get("id") in FLAGGED else "pass"
        failed += status != expected
    failed += max(0, VERIFY_CLAIMS - len(claims))
    if rc != 0 and failed == 0:
        failed = 1
    return max(VERIFY_CLAIMS, len(claims)), failed


def _row_ok(row: dict, x: float, inequality: str, variable: str,
            closed: Callable[[float], float], column: str, tol: float,
            bound: Callable[[float], float] | None) -> bool:
    try:
        value, got_bound, margin = (float(row[k]) for k in ("value", "bound", "margin"))
        return (
            row["variable"] == variable
            and row["inequality"] == inequality
            and float(row["value_of_variable"]) == x
            and margin == value - got_bound
            and row["violated"] == ("true" if margin > 0.0 else "false")
            and abs({"value": value, "margin": margin}[column] - closed(x)) <= tol
            and (bound is None or abs(got_bound - bound(x)) <= 1e-12)
        )
    except (KeyError, TypeError, ValueError):
        return False


def check_scan(rc: int, text: str, *, inequality: str, variable: str,
               grid: tuple[float, ...], closed: Callable[[float], float],
               column: str, tol: float,
               bound: Callable[[float], float] | None = None) -> tuple[int, int]:
    """One operation per grid node: the row at that node must carry the
    node value, a consistent margin and flag, and `column` within `tol` of
    the closed form (and, at fixed phi, the classical bound)."""
    lines = text.splitlines()
    if rc != 0 or not lines or lines[0] != SCAN_CSV_HEADER:
        return len(grid), len(grid)
    rows = list(csv.DictReader(io.StringIO(text)))
    failed = abs(len(rows) - len(grid))
    for row, x in zip(rows, grid):
        failed += not _row_ok(row, x, inequality, variable, closed, column, tol, bound)
    return max(len(grid), len(rows)), failed


def check_mc(rc: int, text: str, *, n: int, shards: int) -> tuple[int, int]:
    """The estimate lands within MC_SIGMA standard errors of the analytic
    correlator, from the requested sample and shard counts."""
    try:
        doc = json.loads(text)
        mc = doc["mc"]
        ok = (
            rc == 0
            and mc["n"] == n
            and mc["shards"] == shards
            and mc["stderr"] > 0.0
            and abs(mc["mean"] - doc["analytic"]) <= MC_SIGMA * mc["stderr"]
        )
    except (ValueError, KeyError, TypeError):
        ok = False
    return 1, int(not ok)


# ------------------------------ workloads ----------------------------------


def _leggett_bound(phi: float) -> float:
    return 4.0 - (4.0 / math.pi) * math.sin(abs(phi) / 2.0)


def _branciard_bound(phi: float) -> float:
    return 2.0 - (2.0 / 3.0) * math.sin(abs(phi) / 2.0)


def _thv_branciard(zeta: float, phi: float) -> float:
    """2|C(cos(phi/2))| with the cubic correlator C(x) = -(1 - 3z/35) x + (2z/35) x^3."""
    c = math.cos(phi / 2.0)
    return 2.0 * abs(-(1.0 - 3.0 * zeta / 35.0) * c + (2.0 * zeta / 35.0) * c**3)


def _scan_call(label: str, config_path: str | None, doc: dict, closed, column: str,
               tol: float, bound=None) -> Call:
    scan = doc["scan"]
    grid = tuple(float(x) for x in np.linspace(scan["start"], scan["stop"], scan["steps"]))
    check = functools.partial(
        check_scan, inequality=scan["inequality"], variable=scan["variable"],
        grid=grid, closed=closed, column=column, tol=tol, bound=bound,
    )
    if config_path is not None:
        return Call(label, ("scan", "--config", config_path), None, check)
    return Call(label, ("scan",), doc, check)


def verify_calls(rng: random.Random, configs) -> list[Call]:
    seed = rng.randrange(2**31)
    return [Call("verify", ("verify", "--seed", str(seed)), None, check_verify)]


def scan_calls(rng: random.Random, configs) -> list[Call]:
    """Row counts are fixed; the seed moves the grids and the fixed phi."""
    leggett_phi = json.loads((configs / "leggett_phi_scan.json").read_text())
    chsh_eta = json.loads((configs / "chsh_eta_scan.json").read_text())
    fhv_leggett = {"model": {"family": "fhv"}, "scan": {
        "inequality": "leggett", "variable": "eta",
        "start": rng.uniform(0.0, 0.005), "stop": rng.uniform(0.02, 0.05), "steps": 16}}
    fhv_branciard = {"model": {"family": "fhv"}, "scan": {
        "inequality": "branciard", "variable": "eta",
        "start": rng.uniform(0.0, 0.01), "stop": rng.uniform(0.05, 0.1), "steps": 24}}
    phi = rng.uniform(0.2, 2.8)
    thv_zeta = {"model": {"family": "thv"}, "phi": phi, "scan": {
        "inequality": "branciard", "variable": "zeta",
        "start": 0.0, "stop": rng.uniform(1.0, 1.8), "steps": 100}}
    return [
        _scan_call("leggett_phi", str(configs / "leggett_phi_scan.json"), leggett_phi,
                   lambda x: 2.0 * (1.0 + math.cos(x)), "value", 1e-9, _leggett_bound),
        _scan_call("chsh_eta", str(configs / "chsh_eta_scan.json"), chsh_eta,
                   lambda x: 2.0 * math.sqrt(2.0) / (1.0 + x), "value", 1e-12,
                   lambda x: 2.0),
        _scan_call("fhv_leggett_eta", None, fhv_leggett, leggett_fhv_max_margin,
                   "margin", 1e-8),
        _scan_call("fhv_branciard_eta", None, fhv_branciard, branciard_fhv_max_margin,
                   "margin", 1e-8),
        _scan_call("thv_branciard_zeta", None, thv_zeta,
                   lambda z: _thv_branciard(z, phi), "value", 1e-10,
                   lambda z: _branciard_bound(phi)),
    ]


def _unit(rng: random.Random) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in v))
    return [c / norm for c in v]


def mc_calls(rng: random.Random, configs) -> list[Call]:
    shv_path = configs / "shv_correlator_mc.json"
    shv = json.loads(shv_path.read_text())["sampling"]
    calls = [Call("shv", ("correlator", "--config", str(shv_path),
                          "--seed", str(rng.randrange(2**31))),
                  None, functools.partial(check_mc, n=shv["n"], shards=shv["shards"]))]
    for model in ({"family": "fhv", "eta": rng.uniform(0.0, 1.0)},
                  {"family": "thv", "zeta": rng.uniform(0.0, 1.8)},
                  {"family": "qm"}):
        doc = {"task": "correlator", "model": model,
               "settings": {"a": _unit(rng), "b": _unit(rng)},
               "sampling": {"n": MC_N, "seed": rng.randrange(2**31), "shards": 1}}
        calls.append(Call(model["family"], ("correlator",), doc,
                          functools.partial(check_mc, n=MC_N, shards=1)))
    return calls


WORKLOADS = {"verify": verify_calls, "scan": scan_calls, "mc": mc_calls}
