"""Batch experiment runner: every check suite as a subcommand-style config entry.

Usage: ``pivotal --config cfg.json --out results/ [--seed N] [--suite name ...]``

The config is JSON with top-level keys ``seed`` (required), ``reps``,
``suites`` (list), ``tolerances`` (optional overrides) and one optional block
per suite with suite-specific parameters; ``load_config`` rejects unknown
keys, wrong types and out-of-range values.  One CSV row is written per check
plus a JSON summary, both replacing any earlier reports in the output
directory; reruns with the same config and seed produce byte-identical
output.  Exit codes are listed in ``EXIT_CODES``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .point_process import DeclarationError
from .quadrature import QuadratureError
from .stable import EnvelopeError
from .suites import SUITES, CheckResult, SuiteConfig, number_in

CSV_HEADER = ["suite", "check_id", "param_json", "lhs", "rhs",
              "lhs_stderr", "rhs_stderr", "z_or_gap", "threshold", "pass"]

_TOLERANCE_KEYS = {
    "identity": "tol_identity",
    "relative": "tol_relative",
    "ode": "tol_ode",
    "quadrature": "tol_quadrature",
    "stable_quadrature": "tol_stable_quad",
    "golden_gap": "golden_gap",
    "z": "zmax",
    "ks_p": "ks_floor",
}


EXIT_CODES = """exit codes:
  0  all checks passed
  1  some check failed
  2  usage or configuration error
  3  a check could not be computed: a declared bound or envelope was broken
     (DeclarationError, EnvelopeError) or a quadrature missed its tolerance
     (QuadratureError)"""


class ConfigError(ValueError):
    pass


def load_config(path: str | Path, seed_override: int | None = None,
                suites_override: list[str] | None = None) -> tuple[SuiteConfig, list[str]]:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("a seed is required (config key 'seed' or --seed)")
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")

    reps = raw.get("reps", 20000)
    if not (isinstance(reps, int) and number_in(reps, 2)):
        raise ConfigError("reps must be an integer >= 2")

    names = suites_override if suites_override else raw.get("suites", [])
    if isinstance(names, str):
        names = [names]
    if not isinstance(names, list):
        raise ConfigError("suites must be a list of suite names")
    if "all" in names:
        names = list(SUITES)
    if not names:
        raise ConfigError("no suites selected")
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; available: {sorted(SUITES)}")

    cfg = SuiteConfig(seed=seed, reps=reps,
                      options={k: v for k, v in raw.items()
                               if k not in ("seed", "reps", "suites", "tolerances")})
    try:
        cfg.validate_options()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object")
    for key, value in tolerances.items():
        if key not in _TOLERANCE_KEYS:
            raise ConfigError(f"unknown tolerance {key!r}")
        if not number_in(value):
            raise ConfigError(f"tolerance {key!r} must be a nonnegative number")
        setattr(cfg, _TOLERANCE_KEYS[key], float(value))
    return cfg, list(names)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_reports(rows: list[CheckResult], out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "results.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([
                r.suite, r.check_id,
                json.dumps(r.params, sort_keys=True, separators=(",", ":")),
                _fmt(r.lhs), _fmt(r.rhs), _fmt(r.lhs_stderr), _fmt(r.rhs_stderr),
                _fmt(r.z_or_gap), _fmt(r.threshold), str(r.passed).lower(),
            ])
    summary = {
        "checks": len(rows),
        "failures": [r.check_id for r in rows if not r.passed],
        "passed": int(sum(1 for r in rows if r.passed)),
        "suites": sorted({r.suite for r in rows}),
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def run(config_path: str | Path, out_dir: str | Path, seed: int | None = None,
        suites: list[str] | None = None, verbose: bool = True) -> int:
    try:
        cfg, names = load_config(config_path, seed_override=seed, suites_override=suites)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    rows: list[CheckResult] = []
    for name in names:
        try:
            suite_rows = SUITES[name](cfg)
        except (DeclarationError, EnvelopeError, QuadratureError) as exc:
            print(f"check error in suite {name}: {exc}", file=sys.stderr)
            return 3
        rows.extend(suite_rows)
        if verbose:
            bad = [r for r in suite_rows if not r.passed]
            print(f"[{name}] {len(suite_rows) - len(bad)}/{len(suite_rows)} checks passed")
            for r in bad:
                print(f"  FAIL {r.check_id} {r.params}: "
                      f"{r.z_or_gap!r} vs threshold {r.threshold!r}")
    write_reports(rows, out_dir)
    return 0 if all(r.passed for r in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pivotal",
        description="Run identity and derivative-formula check suites.",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output directory for CSV/JSON reports")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--suite", action="append", default=None,
                        help="suite to run (repeatable); overrides the config list")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2  # --help exits 0
    return run(args.config, args.out, seed=args.seed, suites=args.suite)


if __name__ == "__main__":
    sys.exit(main())
