"""Command-line driver: simulate | estimate | posterior | experiment | check.

Exit codes: 0 success, 2 usage/validation, 3 input parse, 4 resource guard.
Flags override config-file keys (--config, flat `key = value` lines, keys are
flag names with dashes as underscores), which override built-in defaults.
argparse finds --config in any spelling it accepts, and the last one given
is the file read; 'config' and 'help' are not keys.
Given identical flags and seed, every output file is byte-identical across
runs: floats are printed with shortest round-trip repr and runtimes go to
stdout only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .basis import BasisSystem, Window
from .errors import (
    InputParseError,
    LevyGibbsError,
    ParameterError,
    ResourceGuardError,
    WindowError,
)
from .estimator import DEFAULT_GRID_POINTS, empirical_coefficients, l2_error_on_D
from .experiment import (
    DEFAULT_ALPHA_ASSUMED,
    DEFAULT_BAND_LEVEL,
    DEFAULT_NUM_DRAWS,
    DEFAULT_VG_PARAMS,
    RegimeSpec,
    delta_condition,
    read_coefficients_json,
    run_regime,
    write_band_csv,
    write_band_table,
    write_coefficients_json,
    write_draws_jsonl,
    write_errors_csv,
    write_k_posterior_csv,
    write_k_table,
    write_report_json,
)
from .posterior import (
    ConfigDiagnostics,
    GibbsConfig,
    MarginalK,
    _leading_coefficients,
    credible_band,
    marginal_k,
    sample_posterior,
    validate_config,
)
from .processes import (
    ProcessModel,
    SamplingScheme,
    TrueLevyDensity,
    PROCESS_FORMS,
    VarianceGammaParams,
    parse_process,
    read_increments,
    simulate,
    write_increments,
)
from .util import check_count, check_real, fmt_float, open_ascii


def _parse_window(text: str) -> Window:
    """The window 'lo,hi'; argparse prints an ArgumentTypeError's reason with the flag."""
    try:
        lo, hi = (float(tok) for tok in text.split(","))
        return Window(lo, hi)
    except WindowError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a window as 'lo,hi', got {text!r}") from exc


def _parse_process(text: str) -> ProcessModel:
    """A process spec (parse_process); argparse prints an ArgumentTypeError's reason with the flag."""
    try:
        return parse_process(text)
    except InputParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _truth_from_args(args: argparse.Namespace) -> TrueLevyDensity | None:
    """The Levy density of --truth, under --truth-convention for a vg: truth; None without --truth."""
    if args.truth_convention is None:
        return None if args.truth is None else args.truth.levy_density()
    if not isinstance(args.truth, VarianceGammaParams):
        raise ParameterError("--truth-convention applies only to a vg: --truth")
    return args.truth.levy_density(decaying=args.truth_convention == "decaying")


def _config_from_args(args: argparse.Namespace, **fixed) -> GibbsConfig:
    """GibbsConfig from the hyperparameter and window flags; a flag left unset keeps its default."""
    names = ("omega", "sigma0", "beta", "k_max", "D", "D_prime")
    return GibbsConfig(**(_given(args, **dict(zip(names, names))) | fixed))


def _given(args: argparse.Namespace, **flags: str) -> dict:
    """Library keyword -> flag value for the flags that were given; the others keep library defaults."""
    values = {kw: getattr(args, dest, None) for kw, dest in flags.items()}
    return {kw: value for kw, value in values.items() if value is not None}


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"missing required option --{name.replace('_', '-')}")


def _scheme_from_args(args: argparse.Namespace) -> SamplingScheme:
    if args.j is not None:
        if args.delta is not None or args.n is not None:
            raise ParameterError("pass either --j or --delta/--n, not both")
        return RegimeSpec.from_j(args.j).scheme()
    _require(args, "delta", "n")
    return SamplingScheme(args.delta, args.n)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, "out")
    scheme = _scheme_from_args(args)
    series = simulate(args.process, scheme, args.seed, materialize=False)
    write_increments(args.out, series)
    print(
        f"simulate: wrote n={scheme.n} increments "
        f"(delta={fmt_float(scheme.delta)}, t_n={fmt_float(scheme.t_n)}, seed={args.seed}) to {args.out}"
    )
    return 0


def _basis_from_args(args: argparse.Namespace, t_n: float) -> BasisSystem:
    window = args.window if args.window is not None else GibbsConfig.D_prime
    for name in ("J", "L") if args.family == "trig" else ("K",):
        if getattr(args, name) is not None:
            raise ParameterError(f"--{name} does not apply to --family {args.family}")
    if args.family == "trig":
        K = args.K if args.K is not None else GibbsConfig().k_max_for(t_n)
        return BasisSystem.trigonometric(window, K)
    _require(args, "J", "L")
    return BasisSystem.piecewise_legendre(window, args.J, args.L)


def cmd_estimate(args: argparse.Namespace) -> int:
    _require(args, "increments", "out")
    truth = _truth_from_args(args)
    if truth is None and (args.D is not None or args.grid_points is not None):
        raise ParameterError("--D and --grid-points apply only with --truth")
    series = read_increments(args.increments, delta=args.delta)
    basis = _basis_from_args(args, series.scheme.t_n)
    # D is checked against the basis window only, so its default comes off GibbsConfig, unvalidated.
    D = args.D if args.D is not None else GibbsConfig.D
    grid_points = args.grid_points if args.grid_points is not None else DEFAULT_GRID_POINTS
    if truth is not None:  # so a refused error summary costs no fold
        basis.window.check_contains(D, "the basis window")
        basis.check_rows(check_count(grid_points, "grid_points", lo=2))
    theta_hat = empirical_coefficients(series, basis)
    err = None if truth is None else l2_error_on_D(theta_hat, truth, D, grid_points)
    write_coefficients_json(args.out, theta_hat)
    print(f"estimate: K={basis.K} t_n={fmt_float(series.scheme.t_n)} in-window estimator written to {args.out}")
    if err is not None:
        convention = f", {args.truth_convention or 'decaying'}" if isinstance(args.truth, VarianceGammaParams) else ""
        print(f"estimate: l2_error_on_D={fmt_float(err)} (truth {args.truth.spec()}{convention})")
    return 0


def cmd_posterior(args: argparse.Namespace) -> int:
    _require(args, "coeffs", "out_dir")
    # The level before the draws, so a bad --level costs nothing and writes nothing.
    level = check_real(args.level if args.level is not None else DEFAULT_BAND_LEVEL, "level", "(0, 1)")
    theta_hat = read_coefficients_json(args.coeffs)
    t_n = theta_hat.t_n if theta_hat.t_n is not None else args.t_n
    if t_n is None:
        raise ParameterError("coefficient file carries no t_n; pass --t-n")
    if theta_hat.t_n is not None and args.t_n is not None and args.t_n != t_n:
        raise ParameterError(f"--t-n {fmt_float(args.t_n)} differs from t_n = {fmt_float(t_n)} in {args.coeffs}")
    t_n = check_real(t_n, "t_n", "> 0")
    truth = _truth_from_args(args)
    k_max = args.k_max if args.k_max is not None else min(theta_hat.basis.K, GibbsConfig().k_max_for(t_n))
    config = _config_from_args(args, k_max=k_max, D_prime=theta_hat.basis.window)
    _leading_coefficients(theta_hat, k_max)  # so a --k-max past the coefficients exits 2 before any point mass is built
    marginal = (
        MarginalK.point_mass(args.fixed_K, k_max)
        if args.fixed_K is not None
        else marginal_k(theta_hat, t_n, config)
    )
    num_draws = args.draws if args.draws is not None else DEFAULT_NUM_DRAWS
    draws = sample_posterior(
        theta_hat, t_n, config, num_draws, args.seed, marginal=marginal, **_given(args, grid_points="grid_points")
    )
    band = credible_band(draws, level, **_given(args, metric="metric"))
    psi_true = truth(draws.grid) if truth is not None else None

    out = functools.partial(os.path.join, args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    write_draws_jsonl(out("draws.jsonl"), draws)
    write_k_table(out("k_posterior.csv"), [(args.label_j, marginal.probs)])
    write_band_table(out("band.csv"), draws.grid, psi_true, band.center, band.lo, band.hi)
    print(
        f"posterior: {len(draws)} draws (k_max={k_max}, seed={args.seed}) -> {args.out_dir}; "
        f"band radius ({band.metric}, level={fmt_float(level)}) = {fmt_float(band.radius)}"
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    _require(args, "out_dir")
    if not args.j_list:
        raise ParameterError("pass at least one regime index via --j")
    if len(set(args.j_list)) < len(args.j_list):
        raise ParameterError(f"each regime index may be passed once, got --j {args.j_list}")
    if args.alpha is not None:  # before any regime runs, so a bad --alpha costs nothing and writes nothing
        check_real(args.alpha, "alpha_assumed", "> 0")
    config = _config_from_args(args)
    specs = [RegimeSpec.from_j(j) for j in args.j_list]
    reports = []
    for spec in specs:
        report = run_regime(
            spec,
            model=args.process,
            config=config,
            seed=args.seed,
            **_given(args, num_draws="draws", band_level="level", grid_points="grid_points"),
        )
        reports.append(report)
        print(
            f"experiment: j={spec.j} t_n={fmt_float(report.t_n)} k_mode={report.k_mode} "
            f"err_projection={fmt_float(report.err_projection)} "
            f"err_postmean={fmt_float(report.err_postmean)} "
            f"band_radius={fmt_float(report.band_radius)} runtime_s={report.runtime_s:.2f}"
        )
        # run_regime's grid is check's grid at the same --grid-points, so the verdicts are check's.
        _print_beta_lines("experiment", validate_config(config, float(report.psi_true.max())))
    out = functools.partial(os.path.join, args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    write_report_json(reports, out("report.json"))
    write_errors_csv(reports, out("errors.csv"), **_given(args, alpha_assumed="alpha"))
    write_k_posterior_csv(reports, out("k_posterior.csv"))
    if len(reports) == 1:
        write_band_csv(reports[0], out("band.csv"))
    else:
        for report in reports:
            write_band_csv(report, out(f"band_j{report.j}.csv"))
    print(f"experiment: wrote report.json, errors.csv, k_posterior.csv, band csv -> {args.out_dir}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    scheme = _scheme_from_args(args)
    basis = _basis_from_args(args, scheme.t_n)
    diag = delta_condition(basis.features(), scheme, **_given(args, case="case", bound="bound"))
    config = _config_from_args(args, D_prime=basis.window)
    psi = args.process.levy_density()
    grid = config.D.grid(args.grid_points if args.grid_points is not None else DEFAULT_GRID_POINTS)
    beta_diag = validate_config(config, float(np.max(psi(grid))), **_given(args, tau="tau"))

    print(f"check: spacing case={diag.case} bound={fmt_float(diag.bound)} (K={basis.K}, {basis.family})")
    for name, value in diag.values.items():
        flag = "pass" if diag.passed[name] else "FAIL"
        print(f"check:   {name} = {fmt_float(value)} [{flag}]")
    _print_beta_lines("check", beta_diag)
    return 0


def _print_beta_lines(command: str, diag: ConfigDiagnostics) -> None:
    """validate_config's two verdicts, as check and experiment print them."""
    basic = f"beta={fmt_float(diag.beta)} vs omega*C^2={fmt_float(diag.basic_threshold)}"
    strong = f"beta vs tau/(tau-1)*omega*C^2={fmt_float(diag.tau_threshold)} (tau={fmt_float(diag.tau)})"
    for text, ok in ((basic, diag.basic_ok), (strong, diag.tau_ok)):
        print(f"{command}: {text} [{'pass' if ok else 'FAIL'}]")


# ---------------------------------------------------------------------------
# Parser assembly and config-file precedence
# ---------------------------------------------------------------------------


class _AppendOverConfig(argparse._AppendAction):
    """A repeatable flag whose first use on the command line replaces a config-file list instead of extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, None) is self.default:
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--j", type=int, default=None, help="regime index (sets delta and n)")
    p.add_argument("--delta", type=float, default=None, help="sampling spacing")
    p.add_argument("--n", type=int, default=None, help="number of increments")


def _add_process_flag(p: argparse.ArgumentParser, flag: str, what: str, default: ProcessModel | None) -> None:
    shown = f"default {default.spec()}" if default is not None else "optional"
    p.add_argument(flag, type=_parse_process, default=default, help=f"{what}, {' or '.join(PROCESS_FORMS.values())} ({shown})")


def _add_rate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, default=None, help=f"learning rate (default {GibbsConfig.omega})")
    p.add_argument("--beta", type=float, default=None, help=f"K-prior penalty strength (default {GibbsConfig.beta})")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    _add_rate_flags(p)
    p.add_argument("--sigma0", type=float, default=None, help=f"prior coefficient sd (default {GibbsConfig.sigma0})")
    p.add_argument("--k-max", dest="k_max", type=int, default=None, help="prior truncation (default ceil(t_n))")


def _add_basis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["trig", "legendre"], default="trig")
    p.add_argument("--K", type=int, default=None, help="basis size (trig; default ceil(t_n))")
    p.add_argument("--J", type=int, default=None, help="degrees per piece (legendre)")
    p.add_argument("--L", type=int, default=None, help="number of pieces (legendre)")
    _add_window_flag(p, "--window", "basis window", GibbsConfig.D_prime)


def _add_grid_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None,
                   help=f"points of the grid on D (default {DEFAULT_GRID_POINTS})")


def _add_window_flag(p: argparse.ArgumentParser, flag: str, what: str, default: Window) -> None:
    p.add_argument(flag, type=_parse_window, default=None, help=f"{what} 'a,b' (default {default.a},{default.b})")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="levy-gibbs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="file of 'key = value' lines, one per flag; flags win")
    add_command = functools.partial(sub.add_parser, parents=[config])  # every subcommand takes --config

    p = add_command(
        "simulate",
        help="simulate increments and write them to a binary increments file",
        description="Simulate increments and write them to a binary increments file: one JSON header line "
        "(format, version, delta, n, seed), then n little-endian float64 values.",
    )
    _add_process_flag(p, "--process", "process to simulate", DEFAULT_VG_PARAMS)
    _add_scheme_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="increments file to write")
    p.set_defaults(func=cmd_simulate)

    p = add_command("estimate", help="estimate basis coefficients from an increments file")
    p.add_argument("--increments", default=None, help="binary increments file, or text with one value per line")
    p.add_argument("--delta", type=float, default=None, help="spacing of a text file without a header")
    _add_basis_flags(p)
    p.add_argument("--out", default=None)
    _add_process_flag(p, "--truth", "true process for an error summary", None)
    p.add_argument("--truth-convention", choices=["decaying", "printed"], default=None, help="a vg: truth's form (default decaying)")
    _add_window_flag(p, "--D", "reporting window", GibbsConfig.D)
    _add_grid_flag(p)
    p.set_defaults(func=cmd_estimate)

    p = add_command("posterior", help="sample the Gibbs posterior from saved coefficients")
    p.add_argument("--coeffs", default=None)
    p.add_argument("--t-n", dest="t_n", type=float, default=None,
                   help="observation horizon, for a coefficient file that carries none")
    _add_hyper_flags(p)
    p.add_argument("--fixed-K", dest="fixed_K", type=int, default=None, help="bypass the K prior")
    p.add_argument("--draws", type=int, default=None, help=f"posterior draws (default {DEFAULT_NUM_DRAWS})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=float, default=None, help=f"credible level of the band (default {DEFAULT_BAND_LEVEL})")
    p.add_argument("--metric", choices=["sup", "l2"], default=None)
    _add_window_flag(p, "--D", "reporting window", GibbsConfig.D)
    _add_grid_flag(p)
    _add_process_flag(p, "--truth", "true process for band.csv", None)
    p.add_argument("--truth-convention", choices=["decaying", "printed"], default=None, help="a vg: truth's form (default decaying)")
    p.add_argument("--label-j", dest="label_j", type=int, default=0, help="j column for k_posterior.csv")
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=cmd_posterior)

    p = add_command("experiment", help="run seeded regimes end to end and write report files")
    p.add_argument("--j", dest="j_list", type=int, action=_AppendOverConfig, default=None, help="regime index (repeatable)")
    _add_process_flag(p, "--process", "process to study", DEFAULT_VG_PARAMS)
    _add_hyper_flags(p)
    p.add_argument("--draws", type=int, default=None, help=f"posterior draws (default {DEFAULT_NUM_DRAWS})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=float, default=None, help=f"credible level of the band (default {DEFAULT_BAND_LEVEL})")
    p.add_argument("--alpha", type=float, default=None, help=f"assumed smoothness for eps_n (default {DEFAULT_ALPHA_ASSUMED})")
    _add_window_flag(p, "--D", "reporting window", GibbsConfig.D)
    _add_window_flag(p, "--D-prime", "window of the basis", GibbsConfig.D_prime)
    _add_grid_flag(p)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=cmd_experiment)

    p = add_command("check", help="sampling-spacing and learning-rate diagnostics (read-only)")
    _add_scheme_flags(p)
    _add_basis_flags(p)
    p.add_argument("--case", choices=["fixed-K", "prior-on-K"], default=None)
    p.add_argument("--bound", type=float, default=None)
    _add_process_flag(p, "--process", "process whose Levy density bounds beta", DEFAULT_VG_PARAMS)
    _add_rate_flags(p)  # validate_config reads omega and beta only; the basis size comes from --K
    p.add_argument("--tau", type=float, default=None)
    _add_window_flag(p, "--D", "reporting window", GibbsConfig.D)
    _add_grid_flag(p)
    p.set_defaults(func=cmd_check)

    return parser, sub.choices


def _load_config_file(path) -> dict:
    values = {}
    with open_ascii(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise InputParseError(f"{path}: line {lineno}: expected 'key = value', got {text!r}")
            key = key.strip().replace("-", "_")
            if key in values:
                raise InputParseError(f"{path}: line {lineno}: repeated config key {key!r}: {text!r}")
            values[key] = value.strip()
    return values


def _apply_config_defaults(subparser: argparse.ArgumentParser, raw: dict, path) -> None:
    dests = {}
    for action in subparser._actions:
        # A flag's key is its long name without the leading dashes, other dashes as underscores.
        key = next((o[2:].replace("-", "_") for o in action.option_strings if o.startswith("--")), None)
        # Only flags that take a value are keys; 'help' and 'config' stay in raw as unknown.
        if key not in raw or action.nargs == 0 or action.dest == "config":
            continue
        value = raw.pop(key)
        convert = action.type or str
        try:
            if isinstance(action, _AppendOverConfig):
                items = [convert(tok) for tok in value.split(",")]
            else:
                items = [convert(value)]
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise InputParseError(f"{path}: key {key}: bad value {value!r} ({exc})") from exc
        # The command line refuses a value outside a flag's choices; so does the file.
        if action.choices is not None and any(item not in action.choices for item in items):
            allowed = ", ".join(map(str, action.choices))
            raise InputParseError(f"{path}: key {key}: {value!r} is not one of {allowed}")
        dests[action.dest] = items if isinstance(action, _AppendOverConfig) else items[0]
    if raw:
        raise InputParseError(f"{path}: unknown config key(s): {', '.join(sorted(raw))}")
    subparser.set_defaults(**dests)


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Config precedence: the file's values become the subcommand's
            # defaults, and the same argv is parsed again so explicit flags win.
            _apply_config_defaults(subparsers[args.command], _load_config_file(args.config), args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InputParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except LevyGibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
