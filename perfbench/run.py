"""Benchmark of the `hv` command line, end to end and per layer.

    python3 perfbench/run.py --workload {verify,scan,mc} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (it needs `src/hvsinglet`,
`configs/` and `BENCHMARK.json` there).  A closed loop with one client: each
`hv` command of the workload runs as a fresh child process, one at a time,
in its own temporary working directory under `.perfbench_work/` with --out
set there.  Passes over the workload repeat while the next one is expected
to finish within S seconds (at least one pass).

--trace 0 reports the end-to-end metrics: median over passes of wall_s (sum
of the seconds inside `cli.main`), cpu_s (user plus system CPU of the
children) and peak_rss_mb (largest child), and setup_s (median over
import-only children of the seconds from spawn until `hvsinglet` is
imported).  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of `tracing.py`, medians over traced passes.

Every output is checked (see `workloads.py`) and compared byte for byte
with the first output of the same command, seed and source tree, in this
run and in earlier runs from the same checkout; a mismatch counts as a
failed operation.  The last line of standard output is the result JSON; the
line before it records the machine and the per-pass samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import layer_metrics, span_totals

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
BUDGET_S = 170.0  # the whole run, children included, must end within 180 s
SETUP_PROBES = 9
POLL_S = 0.01
# One thread per child: the loop has one client and adds no threads.  A BLAS
# thread pool would also make set-up time depend on how busy the second CPU
# is; importing numpy took 0.17 s with OpenBLAS's default pool and 0.09 s
# with one thread on the 2-CPU machine the baseline was measured on.
BLAS_ENV = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    attempted: int
    failed: int
    layer: dict = field(default_factory=dict)


@dataclass
class Context:
    root: Path
    work: Path
    workload: str
    seed: int
    deadline: float
    source_key: str
    digests: dict


def _spawn(args: list[str], cwd: Path, deadline: float):
    """Run child.py to completion, killing it at the deadline; returns the
    monotonic spawn time and the child's resource usage."""
    spawned = time.monotonic()
    with open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=cwd,
                                env={**os.environ, **BLAS_ENV}, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawned, usage


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def setup_probe(ctx: Context) -> float:
    tmp = Path(tempfile.mkdtemp(dir=ctx.work))
    try:
        spawned, _ = _spawn([str(ctx.root / "src"), "record.json"], tmp, ctx.deadline)
        record = _read_json(tmp / "record.json")
        if record is None:
            sys.exit(f"error: set-up probe failed: {(tmp / 'stderr.txt').read_text()[-2000:]}")
        return record["imported"] - spawned
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_call(ctx: Context, call, traced: bool, run_id: str) -> Child:
    tmp = Path(tempfile.mkdtemp(dir=ctx.work))
    try:
        argv = list(call.argv)
        if call.config is not None:
            (tmp / "config.json").write_text(json.dumps(call.config), encoding="utf-8")
            argv += ["--config", "config.json"]
        argv += ["--out", "out.txt"]
        spans = ["--spans", "spans.npz", "--run-id", run_id] if traced else []
        spawned, usage = _spawn([str(ctx.root / "src"), "record.json", *spans, "--", *argv],
                                tmp, ctx.deadline)
        record = _read_json(tmp / "record.json") or {}
        out = tmp / "out.txt"
        text = out.read_bytes() if out.exists() else b""
        attempted, failed = call.check(record.get("rc", -1), text.decode("utf-8", "replace"))
        key = f"{ctx.source_key}:{ctx.workload}:{ctx.seed}:{call.label}"
        digest = hashlib.sha256(text).hexdigest()
        if ctx.digests.setdefault(key, digest) != digest:
            failed = min(attempted, failed + 1)
        if failed:
            err = (tmp / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"{call.label}: {failed}/{attempted} failed\n{err}", file=sys.stderr)
        child = Child(
            wall_s=record.get("wall_s", time.monotonic() - spawned),
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            attempted=attempted,
            failed=failed,
        )
        if traced and "extras" in record:
            child.layer = {"totals": span_totals(tmp / "spans.npz"), "extras": record["extras"]}
        return child
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def source_key(root: Path) -> str:
    """Digest of everything that decides the outputs: the package source,
    the sample configs and the interpreter and numpy versions."""
    import numpy as np

    h = hashlib.sha256(f"{sys.version}|{np.__version__}".encode())
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "configs").glob("*.json")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine(root: Path, key: str) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "commit": commit,
        "source_sha256": key,
    }


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    missing = [p for p in ("src/hvsinglet/cli.py", "configs", "BENCHMARK.json")
               if not (root / p).exists()]
    if missing:
        print(f"error: run from a source checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    store = work / "digests.json"
    key = source_key(root)
    ctx = Context(root, work, args.workload, args.seed, started + BUDGET_S, key,
                  _read_json(store) or {})
    calls = WORKLOADS[args.workload](random.Random(args.seed), root / "configs")

    setup = [] if args.trace else [setup_probe(ctx) for _ in range(SETUP_PROBES)]
    passes: list[list[Child]] = []
    traced: list[list[Child]] = []
    t0 = time.monotonic()
    while True:
        begun = time.monotonic()
        passes.append([run_call(ctx, c, False, "") for c in calls])
        if args.trace:
            n = len(traced)
            traced.append([run_call(ctx, c, True, f"{args.workload}-{args.seed}-{n}-{c.label}")
                           for c in calls])
        now = time.monotonic()
        if now - t0 + (now - begun) > args.seconds or now + (now - begun) > ctx.deadline:
            break

    tmp_store = store.with_suffix(".tmp")
    tmp_store.write_text(json.dumps(ctx.digests, indent=1), encoding="utf-8")
    os.replace(tmp_store, store)

    children = [c for p in passes + traced for c in p]
    walls = [sum(c.wall_s for c in p) for p in passes]
    if args.trace:
        layers = [layer_metrics([c.layer for c in p]) for p in traced
                  if all(c.layer for c in p)]
        if layers:
            samples = {n: [m[n] for m in layers] for n in layers[0]}
        else:  # every traced pass failed; the failures are counted
            samples = {n: [0.0] for n in units}
        produced = {*samples, "trace.overhead_ratio"}
        # each traced pass against the untraced pass just before it
        samples["trace.overhead_ratio"] = [sum(c.wall_s for c in p) / wall - 1.0
                                           for p, wall in zip(traced, walls)]
    else:
        samples = {
            "wall_s": walls,
            "cpu_s": [sum(c.cpu_s for c in p) for p in passes],
            "peak_rss_mb": [max(c.rss_mb for c in p) for p in passes],
            "setup_s": setup,
        }
        produced = set(samples)
    if produced != set(units):
        print(f"error: metrics {sorted(produced ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "passes": len(passes), "machine": machine(root, key),
                      "samples": samples}))
    attempted = sum(c.attempted for c in children)
    failed = sum(c.failed for c in children)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _median(samples[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
