"""Command-line front end: ``hv <task> [--config file.json] [overrides]``.

Exit codes: 0 success, 1 verification claim failure, 2 invalid configuration,
3 I/O or memory failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .harness import (
    SCAN_CSV_HEADER,
    TASKS,
    ConfigError,
    RunConfig,
    parse_config,
    report_to_json,
    run_scan,
    run_single,
    run_verify,
    scan_rows_to_csv,
)
from .models import InvalidModelError

# Each value flag: the config entry it sets (block, or None at the top level,
# and key) and its help.  Values stay strings, so the entry's own parser
# checks them and a flag accepts what the config file accepts.  --pm is not
# here: it rescales whichever p-field the model has, so `parse_config`
# takes it on its own.
FLAGS = {
    "model": ("model", "family", "model family: fhv, shv, thv, or qm"),
    "eta": ("model", "eta", "first-family damping parameter"),
    "zeta": ("model", "zeta", "cubic-family strength"),
    "phi": (None, "phi", "relative angle (radians; 'deg' suffix allowed)"),
    "n": ("sampling", "n", "Monte-Carlo sample count"),
    "seed": ("sampling", "seed", "stream seed (default 0)"),
    "shards": ("sampling", "shards", "Monte-Carlo substream count"),
    "out": ("output", "path", "output file path (default stdout)"),
    "format": ("output", "format", "output format: json or csv"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hv",
        description=(
            "Hidden-variable singlet models: probabilities, correlators, "
            "inequality margins, parameter scans, and the verification suite."
        ),
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", help="JSON config file")
    for flag, (_, _, text) in FLAGS.items():
        parser.add_argument(f"--{flag}", help=text)
    parser.add_argument("--pm", help="sup norm of the p-field (shv)")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Write each flag given into the config document as the entry it sets,
    then parse once, so flags and file entries pass the same checks."""
    doc: dict = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    for flag, (block, key, _) in FLAGS.items():
        value = getattr(args, flag)
        if value is None or not isinstance(doc, dict):  # parse_config rejects a non-object
            continue
        target = doc if block is None else doc.setdefault(block, {})
        if isinstance(target, dict):
            target[key] = value
    return parse_config(doc, task=args.task, pm=args.pm)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if config.task == "verify":
            started = time.perf_counter()
            report = run_verify(config)
            elapsed = time.perf_counter() - started
            for claim in report.claims:
                line = f"[{claim.status}] {claim.id}: {claim.computed!r}"
                if claim.status != "pass":
                    line += f" (reference {claim.reference!r})"
                print(line, file=sys.stderr)
            print(
                f"{report.n_passed} passed, {report.n_failed} failed, "
                f"{report.n_flagged} flagged in {elapsed:.1f}s",
                file=sys.stderr,
            )
            _emit(report_to_json(report.as_dict()), config.out)
            return 0 if report.n_failed == 0 else 1

        if config.task == "scan":
            rows = run_scan(config)
            if (config.fmt or "csv") == "json":
                _emit(report_to_json({"header": SCAN_CSV_HEADER, "rows": rows}), config.out)
            else:
                _emit(scan_rows_to_csv(rows), config.out)
            return 0

        doc = run_single(config)
        _emit(report_to_json(doc), config.out)
        return 0
    except (ConfigError, InvalidModelError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: memory failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
