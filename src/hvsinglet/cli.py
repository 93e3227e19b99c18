"""Command-line front end: ``hv <task> [--config file.json] [overrides]``.

Exit codes: 0 success, 1 verification claim failure, 2 invalid configuration,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .harness import (
    OUTPUT_FORMATS,
    SCAN_CSV_HEADER,
    TASKS,
    ConfigError,
    RunConfig,
    check_parameter_family,
    parse_config,
    report_to_json,
    run_scan,
    run_single,
    run_verify,
    scan_rows_to_csv,
)
from .models import InvalidModelError


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
    parser.add_argument("--model", help="model family: fhv, shv, thv, or qm")
    parser.add_argument("--eta", type=float, help="first-family damping parameter")
    parser.add_argument("--zeta", type=float, help="cubic-family strength")
    parser.add_argument("--pm", type=float, help="sup norm of the p-field (shv)")
    parser.add_argument("--phi", help="relative angle (radians; 'deg' suffix allowed)")
    parser.add_argument("--n", type=int, help="Monte-Carlo sample count")
    parser.add_argument("--seed", type=int, help="stream seed (default 0)")
    parser.add_argument("--shards", type=int, help="Monte-Carlo substream count")
    parser.add_argument("--out", help="output file path (default stdout)")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, dest="fmt")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Merge flag overrides into the raw config document, then parse once so
    all validation sees the final values."""
    doc: dict = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")

    def block(key: str) -> dict:
        sub = doc.setdefault(key, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"config key {key!r} must be an object")
        return sub

    if args.model is not None:
        block("model")["family"] = args.model.lower()
    if args.eta is not None:
        block("model")["eta"] = args.eta
    if args.zeta is not None:
        block("model")["zeta"] = args.zeta
    if args.phi is not None:
        doc["phi"] = args.phi
    if args.n is not None:
        block("sampling")["n"] = args.n
    if args.seed is not None:
        block("sampling")["seed"] = args.seed
    if args.shards is not None:
        block("sampling")["shards"] = args.shards
    if args.out is not None:
        block("output")["path"] = args.out
    if args.fmt is not None:
        block("output")["format"] = args.fmt
    for key in ("model", "sampling", "output"):
        if key in doc and not doc[key]:
            del doc[key]

    config = parse_config(doc, task=args.task)
    if args.pm is not None:
        check_parameter_family("p_m", config.params.family)
        config = replace(config, params=config.params.with_pm(args.pm))
    return config


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ConfigError, InvalidModelError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2

    try:
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


if __name__ == "__main__":
    sys.exit(main())
