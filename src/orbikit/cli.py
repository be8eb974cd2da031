"""Command line front end for the scenario harness."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import SCHEMA_VERSION, ConfigError, list_scenarios, run_scenario


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orbikit",
        description="Run catalog scenarios: groupoid equivalences, transported "
        "cocycles and truncated Dirac spectral triples.",
    )
    p.add_argument("--scenario", help="name of a built-in or registered scenario")
    p.add_argument("--config", help="JSON config file (overrides --scenario)")
    p.add_argument("--modes", type=int, help="mode cutoff override")
    p.add_argument("--buffer", type=int, help="interior-band buffer override")
    p.add_argument("--out", help="directory for report.json, spectra.csv, summary.md")
    p.add_argument("--list", action="store_true", help="list available scenarios")
    p.add_argument("--registry", help="directory of user scenario files")
    p.add_argument(
        "--force",
        action="store_true",
        help="allow tolerances loosened beyond ten times their defaults",
    )
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        try:
            rows = list_scenarios(args.registry)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for name, desc in rows:
            print(f"{name:24s} {desc}")
        return 0

    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
    elif args.scenario:
        config = {"schema_version": SCHEMA_VERSION, "scenario": args.scenario}
    else:
        print("error: need --scenario, --config or --list", file=sys.stderr)
        return 2

    if isinstance(config, dict):  # run_scenario rejects any other config
        if args.modes is not None:
            config["modes"] = args.modes
        if args.buffer is not None:
            config["buffer"] = args.buffer

    try:
        code, report = run_scenario(
            config, out_dir=args.out, force=args.force, registry_dir=args.registry
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for chk in report["checks"]:
        mark = "PASS" if chk["passed"] else "FAIL"
        print(f"[{mark}] {report['scenario']}: {chk['name']}")
    print("overall:", "PASS" if report["passed"] else "FAIL")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
