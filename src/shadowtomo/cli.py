"""Command-line entry point.

    shadowtomo run --config path [--set key=value ...] [--out-dir dir] [--workers n]
    shadowtomo list-scenarios
    shadowtomo validate-config path

Override precedence, weakest first: config file, then --set flags (with
--out-dir / --workers acting as --set shorthand).
`run` exits 0 only when the scenario's acceptance thresholds are met, 1 when
they are not, 2 on a config error, and 3 when a run raises: a package error,
or a ValueError from a value the scenario cannot use.
"""

from __future__ import annotations

import argparse
import sys

from .config import DEFAULT_CONSTANTS
from .errors import ConfigError, ShadowTomoError
from .scenarios import (
    SCENARIOS,
    build_config,
    file_key,
    load_config_pairs,
    resolve,
    run_scenario,
)


def _apply_overrides(pairs: dict[str, str], args) -> dict[str, str]:
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if not key or not value:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        pairs[key] = value
    if args.out_dir is not None:
        pairs["out_dir"] = args.out_dir
    if getattr(args, "workers", None) is not None:
        pairs["workers"] = str(args.workers)
    return pairs


def _cmd_run(args) -> int:
    pairs = _apply_overrides(load_config_pairs(args.config), args)
    cfg = resolve(build_config(pairs))
    outcome = run_scenario(cfg)
    agg = outcome.summary["aggregate"]
    print(
        f"{cfg.scenario}: {agg['successes']}/{agg['trials']} trials succeeded "
        f"(rate {agg['success_rate']:.3f})"
    )
    for key, value in outcome.summary["thresholds"].items():
        print(f"  {key}: {value}")
    print(f"  wrote {outcome.csv_path} and {outcome.summary_path}")
    print(f"thresholds {'met' if outcome.thresholds_met else 'NOT met'}")
    return 0 if outcome.thresholds_met else 1


def _cmd_list(_args) -> int:
    width = max(len(name) for name in SCENARIOS)
    for name, scenario in SCENARIOS.items():
        print(f"{name:<{width}}  {scenario.blurb}")
    return 0


def _cmd_validate(args) -> int:
    pairs = _apply_overrides(load_config_pairs(args.config), args)
    cfg = resolve(build_config(pairs))
    print(f"config ok: scenario={cfg.scenario}")
    # every key the scenario reads; an optional key left unset shows None
    for name in ("seed", *SCENARIOS[cfg.scenario].defaults, "out_dir", "workers"):
        print(f"  {file_key(name)}={getattr(cfg, name)}")
    print(f"  constants={DEFAULT_CONSTANTS.as_dict()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowtomo",
        description="Seeded simulation scenarios for measurement-frugal state estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a config file")
    run_p.add_argument("--config", required=True, help="flat key=value config file")
    run_p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable; strongest precedence)",
    )
    run_p.add_argument("--out-dir", help="directory for results.csv / summary.json")
    run_p.add_argument("--workers", type=int, help="concurrent trial workers")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list-scenarios", help="list scenario names")
    list_p.set_defaults(func=_cmd_list)

    val_p = sub.add_parser("validate-config", help="parse and validate a config file")
    val_p.add_argument("config", help="flat key=value config file")
    val_p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a key")
    val_p.add_argument("--out-dir", help="override out_dir")
    val_p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ShadowTomoError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
