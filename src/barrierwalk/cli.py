"""Command-line interface.

Subcommands: simulate (one discrete-walk curve), sweep (grid of runs),
verify (cross-module invariant suite), ctqw (continuous-time curve), and
plan (print the phase-matching quantities for an instance).

Every option can also come from a config file of `key = value` lines
(--config PATH, `#` starts a comment, hyphens and underscores in keys are
interchangeable); explicit flags take precedence over the file.  CSV goes
to --out when given, otherwise to standard output with the summary moved to
standard error so piped CSV stays clean.

Exit codes: 0 success, 1 verification found violations, 2 invalid
arguments/spec/config, 3 output path not writable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable

from .experiments import (
    DEFAULT_MAX_FULL_N,
    VERIFY_DEFAULT_NS,
    VERIFY_DEFAULT_PHIS,
    _FLOAT_FMT,
    CtqwSpec,
    WalkSpec,
    phi_from_beta,
    refuse_above_cap,
    run_experiment,
    run_sweep,
    run_verification,
    summary_line,
    write_curve_csv,
    write_sweep_csv,
)
from .phases import build_phase_plan

__all__ = [
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_USAGE",
    "EXIT_IO",
    "load_config",
    "build_parser",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _list_parser(item: Callable[[str], Any], items: str) -> Callable[[str], list]:
    def parse(text: str) -> list:
        tokens = text.replace(",", " ").split()
        if not tokens:
            raise ValueError(f"expected a comma-separated list of {items}")
        return [item(token) for token in tokens]

    return parse


_parse_int_list = _list_parser(int, "integers")
_parse_float_list = _list_parser(float, "numbers")


def load_config(path: str) -> dict[str, str]:
    """Read `key = value` lines; keys are normalized to underscores."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    config: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        config[key.strip().replace("-", "_")] = value.strip()
    return config


@dataclass(frozen=True)
class _Option:
    """One option: flag --name on the command line, key name in a config file.

    parse turns the text of either into a value, in _resolve only (a
    _parse_bool option is a bare switch on the command line); default applies
    when neither sets it.
    """

    name: str
    parse: Callable[[str], Any]
    default: Any
    help: str
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _resolve(
    options: tuple[_Option, ...], args: argparse.Namespace, config: dict[str, str]
) -> argparse.Namespace:
    """Parse each option's text from its flag, else its config key; else default.

    A bad value reads `argument --flag: <text>` or `config key 'name': <text>`,
    with the same <text> from either source.
    """
    values = {}
    for option in options:
        text, source = getattr(args, option.name), f"argument {option.flag}"
        if text is None and option.name in config:
            text, source = config[option.name], f"config key {option.name!r}"
        if text is None:
            if option.required:
                raise ValueError(f"missing required option {option.flag}")
            values[option.name] = option.default
        elif text is True:  # a switch given on the command line
            values[option.name] = True
        else:
            try:
                values[option.name] = option.parse(text)
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
    unknown = sorted(set(config) - set(values))
    if unknown:
        raise ValueError(
            f"unknown config keys for this subcommand: {', '.join(unknown)}"
        )
    return argparse.Namespace(**values)


def _write_csv(out: str | None, write: Callable, data: Any, summary=None) -> None:
    """CSV to out, summary(data) to stdout; or CSV to stdout, summary to stderr."""
    if out is None:
        write(data, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            write(data, handle)
    if summary is not None:
        print(summary(data), file=sys.stderr if out is None else sys.stdout)


# One row per option, in --help order: name, parse, default, help.
_N = _Option("n", int, None, "number of vertices (N >= 3)", required=True)
_BETA = _Option("beta", float, 0.0, "barrier strength |beta| in [0, 1] (default 0)")
_OUT = _Option("out", str, None, "CSV path (default: standard output)")
_CONFIG = _Option("config", str, None, "key = value config file")

_SIMULATE = (
    _N,
    _BETA,
    _Option("corrected", _parse_bool, False, "apply the phase-matched eta correction"),
    _Option("steps", int, None, "step count (default: window covering the peak)"),
    _Option("mode", str, "dtqw-full",
            "dtqw-full (statevector engine) or dtqw-reduced (exact 3x3 reduced"
            " model); default dtqw-full"),
    _Option("marked", int, 0, "marked vertex index (default 0)"),
    _Option("max_full_n", int, DEFAULT_MAX_FULL_N,
            f"cap on full-space N (default {DEFAULT_MAX_FULL_N})"),
    _OUT,
)


def _cmd_simulate(o: argparse.Namespace) -> int:
    if o.mode == "ctqw":
        raise ValueError("continuous-time runs have their own subcommand: ctqw")
    if o.mode == "dtqw-full":
        refuse_above_cap(o.n, o.max_full_n,
                         "use --mode dtqw-reduced or raise --max-full-n")
    spec = WalkSpec(o.n, o.beta, o.corrected, o.steps, marked=o.marked, mode=o.mode)
    _write_csv(o.out, write_curve_csv, run_experiment(spec), summary_line)
    return EXIT_OK


_SWEEP = (
    _Option("n", _parse_int_list, None, "comma-separated vertex counts", required=True),
    _Option("beta", _parse_float_list, None, "comma-separated barrier strengths",
            required=True),
    _Option("corrected", _parse_bool, False,
            "apply the eta correction at every grid point"),
    _Option("steps", int, None, "step count per point (default auto)"),
    _Option("max_full_n", int, DEFAULT_MAX_FULL_N,
            "N above this runs the reduced model (noted in the mode column)"),
    _Option("workers", int, 1,
            "no effect: grid points run one at a time (must be >= 1)"),
    _OUT,
)


def _cmd_sweep(o: argparse.Namespace) -> int:
    if o.workers < 1:
        raise ValueError(f"workers must be >= 1, got {o.workers}")
    rows = run_sweep(o.n, o.beta, o.corrected, o.steps, o.max_full_n)
    _write_csv(o.out, write_sweep_csv, rows)
    return EXIT_OK


_VERIFY = (
    _Option("n", _parse_int_list, VERIFY_DEFAULT_NS, "comma-separated vertex counts"
            f" (default {','.join(map(str, VERIFY_DEFAULT_NS))})"),
    _Option("phi", _parse_float_list, VERIFY_DEFAULT_PHIS,
            "comma-separated barrier phases in radians (default 0,0.3,arcsin(0.8))"),
    _Option("steps", int, 200, "trajectory length per check (default 200)"),
    _Option("force_eta_zero", _parse_bool, False,
            "negative control: use eta = 0 in the Hoyer-residual check, which"
            " must then fail for any phi > 0"),
)


def _cmd_verify(o: argparse.Namespace) -> int:
    checks = run_verification(
        o.n, o.phi, steps=o.steps, force_eta_zero=o.force_eta_zero
    )
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"{check.name}: max deviation {check.deviation:.3e}"
            f" (tolerance {check.tolerance:.0e}): {verdict}"
        )
    failed = [check.name for check in checks if not check.passed]
    if failed:
        print(f"verify: FAIL ({len(checks) - len(failed)}/{len(checks)} checks)")
        print(f"failed invariants: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"verify: PASS ({len(checks)}/{len(checks)} checks)")
    return EXIT_OK


_CTQW = (
    _Option("n", int, None, "number of vertices (N >= 2)", required=True),
    _Option("epsilon", float, 0.0, "hop attenuation in [0, 1) (default 0)"),
    _Option("gamma", float, None,
            "explicit jumping rate (default 1/N; incompatible with --corrected)"),
    _Option("corrected", _parse_bool, False, "use the corrected rate 1/(N(1-epsilon))"),
    _Option("t_max", float, None,
            "evolution-time horizon (default 1.5x the predicted peak time)"),
    _Option("samples", int, 401, "number of time samples (default 401)"),
    _OUT,
)


def _cmd_ctqw(o: argparse.Namespace) -> int:
    spec = CtqwSpec(o.n, o.epsilon, o.gamma, o.corrected, o.t_max, o.samples)
    _write_csv(o.out, write_curve_csv, run_experiment(spec), summary_line)
    return EXIT_OK


def _plan_lines(n: int, beta: float) -> list[str]:
    plan = build_phase_plan(n, phi_from_beta(beta))

    def show(value: float | None, none: str = "infinite", spec: str = _FLOAT_FMT):
        # a blocked plan has no eta and infinite runtimes
        return none if value is None else format(value, spec)

    return [
        f"n = {plan.n_vertices}",
        f"beta = {beta + 0.0:{_FLOAT_FMT}}",  # -0.0 prints as 0
        f"phi = {plan.phi:{_FLOAT_FMT}}",
        f"theta = {plan.theta:{_FLOAT_FMT}}",
        f"delta = {plan.delta:{_FLOAT_FMT}}",
        f"blocked = {'true' if plan.blocked else 'false'}",
        f"eta = {show(plan.eta, 'none')}",
        f"sigma = {plan.sigma:{_FLOAT_FMT}}",
        f"t_star = {show(plan.t_star, spec='d')}",
        f"t_star_exact = {show(plan.t_star_exact)}",
        f"t_star_large_n = {show(plan.t_star_large_n)}",
    ]


_PLAN = (_N, _BETA)


def _cmd_plan(o: argparse.Namespace) -> int:
    for line in _plan_lines(o.n, o.beta):
        print(line)
    return EXIT_OK


# subcommand -> (help, options, handler); every subcommand also takes --config
_COMMANDS = {
    "simulate": ("run one discrete-walk curve and emit step,probability CSV",
                 _SIMULATE, _cmd_simulate),
    "sweep": ("run an (N, beta) grid and emit one summary row per point",
              _SWEEP, _cmd_sweep),
    "verify": ("run the cross-module invariant suite and report deviations",
               _VERIFY, _cmd_verify),
    "ctqw": ("run a continuous-time curve and emit time,probability CSV",
             _CTQW, _cmd_ctqw),
    "plan": ("print theta, eta, sigma, t* and friends for an instance",
             _PLAN, _cmd_plan),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrierwalk",
        description=(
            "Quantum-walk search on the complete graph with potential-barrier"
            " errors and phase-matched correction."
        ),
        epilog=(
            "exit codes: 0 ok, 1 verification failed, 2 invalid"
            " arguments/spec/config, 3 unwritable output path"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option in (*options, _CONFIG):
            # argparse only splits the command line; _resolve parses each value
            switch = {"action": "store_true"} if option.parse is _parse_bool else {}
            command.add_argument(option.flag, default=None, help=option.help, **switch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    _, options, handler = _COMMANDS[args.command]
    try:
        config = load_config(args.config) if args.config else {}
        return handler(_resolve(options, args, config))
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # MemoryError is a backstop: every subcommand refuses a run past the
        # host's physical memory before allocating, but an array can still
        # fail to allocate under a limit that refusal does not read, such as
        # a cgroup's.  io.UnsupportedOperation is a ValueError and an
        # OSError, and counts as a usage error.
        return EXIT_USAGE if isinstance(exc, (ValueError, MemoryError)) else EXIT_IO
