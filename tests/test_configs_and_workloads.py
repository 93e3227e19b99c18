"""Every sample config, and every `scan` and `mc` call the benchmark builds,
runs through `hv` and passes its check, so a new config rejection cannot
silently turn benchmark operations into failures.  The benchmark's workload
module is loaded by path and only read."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from hvsinglet.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_sample_config_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a config may name a relative output path
    doc = json.loads(path.read_text())
    task = doc.get("task", "scan" if "scan" in doc else None)
    assert main([task, "--config", str(path), "--out", "out.txt"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("workload", ["scan", "mc"])
@pytest.mark.parametrize("seed", [1, 602])
def test_benchmark_calls_run_and_pass_their_checks(workload, seed, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    calls = WORKLOADS.WORKLOADS[workload](random.Random(seed), CONFIGS)
    for call in calls:
        argv = list(call.argv)
        if call.config is not None:
            Path("config.json").write_text(json.dumps(call.config))
            argv += ["--config", "config.json"]
        rc = main([*argv, "--out", "out.txt"])
        attempted, failed = call.check(rc, Path("out.txt").read_text())
        assert (call.label, rc, failed) == (call.label, 0, 0)
        assert attempted > 0
    capsys.readouterr()
