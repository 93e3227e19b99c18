"""Tests of the benchmark's output checks, determinism check and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from hvsinglet.cli import main as hv  # noqa: E402
from tracing import layer_metrics  # noqa: E402

CONFIGS = ROOT / "configs"


def _hv(call: wl.Call, tmp: Path) -> str:
    argv = list(call.argv)
    if call.config is not None:
        (tmp / "config.json").write_text(json.dumps(call.config))
        argv += ["--config", str(tmp / "config.json")]
    out = tmp / "out.txt"
    assert hv([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _verify_report() -> dict:
    ids = [f"claim.{i}" for i in range(wl.VERIFY_CLAIMS - len(wl.FLAGGED))]
    claims = [{"id": i, "status": "pass"} for i in ids]
    claims += [{"id": i, "status": "discrepancy-flagged"} for i in sorted(wl.FLAGGED)]
    return {"claims": claims}


def test_verify_check_passes_the_expected_report():
    assert wl.check_verify(0, json.dumps(_verify_report())) == (wl.VERIFY_CLAIMS, 0)


@pytest.mark.parametrize("tamper", ["fail", "unflag", "flag", "drop"])
def test_verify_check_counts_a_tampered_claim(tamper):
    doc = _verify_report()
    claims = doc["claims"]
    if tamper == "fail":
        claims[0]["status"] = "fail"
    elif tamper == "unflag":
        claims[-1]["status"] = "pass"
    elif tamper == "flag":
        claims[0]["status"] = "discrepancy-flagged"
    else:
        del claims[3]
    assert wl.check_verify(0, json.dumps(doc)) == (wl.VERIFY_CLAIMS, 1)


def test_verify_check_fails_everything_without_a_report():
    assert wl.check_verify(1, "") == (wl.VERIFY_CLAIMS, wl.VERIFY_CLAIMS)


def _tamper_row(text: str, index: int, delta: float) -> str:
    """Shift one row's value and margin together, keeping the row
    self-consistent so that only the closed-form comparison can catch it."""
    rows = list(csv.reader(io.StringIO(text)))
    row = rows[index + 1]
    value = float(row[3]) + delta
    row[3], row[5] = repr(value), repr(value - float(row[4]))
    row[6] = "true" if value - float(row[4]) > 0.0 else "false"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("index", range(5))
def test_scan_check_counts_a_tampered_row(index, tmp_path):
    call = wl.scan_calls(random.Random(7), CONFIGS)[index]
    text = _hv(call, tmp_path)
    rows = len(text.splitlines()) - 1
    assert call.check(0, text) == (rows, 0)
    assert call.check(0, _tamper_row(text, 2, 1e-6)) == (rows, 1)
    assert call.check(0, "\n".join(text.splitlines()[:-1]) + "\n") == (rows, 1)


def test_mc_check_counts_a_tampered_estimate(tmp_path):
    call = wl.mc_calls(random.Random(7), CONFIGS)[1]
    call = wl.Call(call.label, call.argv, {**call.config, "sampling": {
        **call.config["sampling"], "n": 20_000}},
        lambda rc, text: wl.check_mc(rc, text, n=20_000, shards=1))
    text = _hv(call, tmp_path)
    assert call.check(0, text) == (1, 0)
    doc = json.loads(text)
    doc["mc"]["mean"] = doc["analytic"] + 5.0 * doc["mc"]["stderr"]
    assert call.check(0, json.dumps(doc)) == (1, 1)


def _context(tmp_path: Path) -> run.Context:
    return run.Context(ROOT, tmp_path, "scan", 0, time.monotonic() + 120.0, "key", {})


def test_output_differing_from_an_earlier_run_counts_as_failed(tmp_path):
    ctx = _context(tmp_path)
    call = wl.scan_calls(random.Random(7), CONFIGS)[1]
    first = run.run_call(ctx, call, False, "")
    assert (first.attempted, first.failed) == (81, 0)
    assert run.run_call(ctx, call, False, "").failed == 0
    (key,) = ctx.digests
    ctx.digests[key] = "0" * 64
    assert run.run_call(ctx, call, False, "").failed == 1


def test_traced_child_sees_calls_made_through_imported_names(tmp_path):
    """`harness` imports `margin` by name, so the 81 CHSH margins of the
    sample eta scan are only seen if that binding was wrapped too."""
    ctx = _context(tmp_path)
    call = wl.scan_calls(random.Random(7), CONFIGS)[1]
    plain = run.run_call(ctx, call, False, "")
    traced = run.run_call(ctx, call, True, "test")
    assert plain.failed == traced.failed == 0  # traced output is byte-identical
    m = layer_metrics([traced.layer])
    assert m["inequalities.margin.calls"] == 81
    assert m["correlators.analytic_correlator.calls"] == 4 * 81
    assert m["correlators.mc_correlator.calls"] == 0
    assert m["harness.run_scan.self_s"] > 0.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty = {"totals": {}, "extras": {"largest_shard": 0, "peak_rss_kb": 0,
                                      "baseline_rss_kb": 0, "thv_cache_misses": 0}}
    names = [*layer_metrics([empty]), "trace.overhead_ratio"]
    assert names == [m["name"] for m in spec["per_layer"]]
    assert spec["workloads"] == [{"name": w, "why": spec["workloads"][i]["why"]}
                                 for i, w in enumerate(wl.WORKLOADS)]
