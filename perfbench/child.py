"""One benchmark child process: import hvsinglet from a source tree, run one
`hv` command through `hvsinglet.cli.main`, and write a JSON record.

    python3 child.py SRC RECORD [--spans FILE --run-id ID] [-- HV_ARGS...]

Without HV_ARGS the child only imports the package (a set-up probe).  With
--spans it installs the tracer first and writes the span file afterwards.
The record holds the monotonic time at which the import finished, the
seconds spent inside `cli.main`, its exit code, and RSS figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("record")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    hv_args = argv[split + 1:]

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import hvsinglet
    import hvsinglet.cli

    imported = time.monotonic()
    if not Path(hvsinglet.__file__).resolve().is_relative_to(src):
        print(f"error: imported hvsinglet from {hvsinglet.__file__}, not {src}",
              file=sys.stderr)
        return 2
    record: dict = {"imported": imported}
    if hv_args:
        tracer = None
        if args.spans:
            from tracing import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
        baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        started = time.perf_counter()
        try:
            rc = hvsinglet.cli.main(hv_args)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        record["wall_s"] = time.perf_counter() - started
        record["rc"] = rc
        if tracer is not None:
            record["extras"] = {
                "baseline_rss_kb": baseline_kb,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "largest_shard": tracer.largest_shard,
                "thv_cache_misses": hvsinglet.models.thv_positivity_margin.__wrapped__
                .cache_info().misses,
            }
            tracer.write(args.spans)
    Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
