"""Command-line front end: invert shares, estimate, diagnose instruments, simulate."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, dataio, diagnostics, estimators, simulate
from .errors import (EstimationError, ExactlyIdentifiedError, LogitDemandError,
                     OrderConditionViolatedError)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3
EXIT_NO_INSTRUMENTS = 4
EXIT_BAD_PARAMS = 5

_METHOD_ALIASES = {"ols": "ols", "fe": "two_way_fe", "2sls": "tsls"}


def _write_manifest(output_path, command, spec_path=None, dataset_path=None, seed=None):
    manifest = {
        "command": command,
        "spec": str(spec_path) if spec_path else None,
        "dataset": str(dataset_path) if dataset_path else None,
        "seed": seed,
        "tool_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(str(output_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _two_sided_p(t, df, robust):
    if not math.isfinite(t):
        return float("nan")
    if robust:
        return math.erfc(abs(t) / math.sqrt(2.0))
    return diagnostics.f_upper_tail(t * t, 1, df)


def _stars(p):
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def _table(headers, rows, rule=False) -> list:
    """Columns two spaces apart, each padded to its widest cell; `rule` dashes under the headers."""
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in (headers, *rows)]
    return lines[:1] + ["-" * len(lines[0])] * rule + lines[1:]


def _block(pairs, indent="") -> list:
    """One `label: value` line per pair whose value is not None. An indented block pads
    each `label:` so that its values line up two columns after the longest."""
    pairs = [(f"{label}:", value) for label, value in pairs if value is not None]
    width = max(len(label) for label, _ in pairs) + 1 if indent else 0
    return [f"{indent}{label:<{width}} {value}" for label, value in pairs]


def format_coefficient_table(result: estimators.EstimateResult) -> str:
    robust = result.covariance_tag == "robust_hc0"
    rows = []
    for name, est, se, t in result.coefficient_rows():
        p = _two_sided_p(t, result.df_residual, robust)
        rows.append((name, f"{est:.3f}{_stars(p)}", f"({se:.3f})", f"{t:.3f}", f"{p:.3f}"))
    r2_label = "within R-squared" if result.estimator_tag == "two_way_fe" else "R-squared"
    effects = result.fixed_effect_values
    headers = ("coefficient", "estimate", "std.error", "t value", "Pr(>|t|)")
    lines = [*_table(headers, rows, rule=True), "", *_block([
        ("observations", result.n_observations),
        (r2_label, f"{result.r_squared:.3f}   adjusted: {result.adjusted_r_squared:.3f}"),
        ("residual std. error", f"{result.residual_std_error:.3f} (df = {result.df_residual})"),
        ("absorbed fixed effects", f"{len(effects['unit'])} units, {len(effects['period'])} periods"
         if effects else None),
        ("note", "* p<0.1; ** p<0.05; *** p<0.01"),
    ])]
    se_note = "normal approximation (HC0)" if robust else "Student t(n-p)"
    lines.append(f"      p-values from {se_note}")
    return "\n".join(lines) + "\n"


def _report_dropped_rows(data, spec):
    """Listwise deletion is silent in the API; the CLI reports it."""
    dropped = np.flatnonzero(~data.complete_rows(spec.required_columns())).tolist()
    if not dropped:
        return
    shown = ", ".join(data.row_label(i) for i in dropped[:8])
    more = "" if len(dropped) <= 8 else f", and {len(dropped) - 8} more"
    print(
        f"note: dropped {len(dropped)} of {data.n_rows} rows with missing values ({shown}{more})",
        file=sys.stderr,
    )


def _load(args):
    """Parse the spec, load its dataset (or `--data`) and build the dependent if the spec needs it."""
    spec, data_path = dataio.parse_spec(args.spec)
    if args.data:
        data_path = Path(args.data)
    data = dataio.load_panel(data_path)
    dataio.check_columns(spec, data)
    if not data.has_column(spec.dependent):
        data = dataio.compute_dependent(data)
    return spec, data, data_path


def cmd_invert(args) -> int:
    data = dataio.compute_dependent(dataio.load_panel(args.data))
    shares = dataio.outside_shares(data)
    dataio.write_panel_csv(data, args.output)
    _write_manifest(args.output, _command_line(args), dataset_path=args.data)
    for t, s0 in sorted(shares.items()):
        print(f"period {t}: outside share {s0:.6f}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    spec, data, data_path = _load(args)
    method = _METHOD_ALIASES[args.method] if args.method else spec.estimator
    if method == "tsls" and spec.estimator == "two_way_fe":
        raise ValueError(f"the spec's estimator is {spec.estimator!r}; --method 2sls fits a pooled "
                         "2SLS, and 2SLS with fixed effects is not supported yet")
    if method != spec.estimator:
        spec = dataclasses.replace(spec, estimator=method, **estimators.estimator_defaults(method))
    if args.robust:
        spec = dataclasses.replace(spec, covariance="robust_hc0")

    result = estimators.estimate(spec, data)
    _report_dropped_rows(data, spec)

    table = dataio.results_csv_text if args.format == "csv" else format_coefficient_table
    return _emit(args, table(result), data_path)


def cmd_diagnose(args) -> int:
    spec, data, data_path = _load(args)
    if spec.estimator == "two_way_fe":
        raise ValueError(f"the spec's estimator is {spec.estimator!r}; diagnose tests a pooled "
                         "first stage, and first-stage diagnostics with fixed effects are not "
                         "supported yet")
    if not spec.instruments:
        raise OrderConditionViolatedError("spec has no instruments; nothing to diagnose")
    spec = dataclasses.replace(spec, estimator="tsls")
    f_report = diagnostics.first_stage_f(spec, data)
    verdict = "pass" if f_report.passes_rule_of_thumb else "FAIL (possible weak instruments)"
    lines = ["First-stage F test (H0: all instrument coefficients are zero)", *_block([
        ("restrictions (m)", f_report.df_numerator),
        ("Res.Df restricted", f_report.restricted_df),
        ("Res.Df unrestricted", f_report.unrestricted_df),
        ("F", f"{f_report.f_statistic:.3f}"),
        ("Pr(>F)", f"{f_report.p_value:.3f}"),
        ("rule of thumb (F>=10)", verdict),
    ], "  "), ""]

    try:
        tsls_result = estimators.estimate_tsls(spec, data)
        j_report = diagnostics.sargan_j(tsls_result, spec, data)
    except ExactlyIdentifiedError:
        lines.append("Sargan J test skipped: model is exactly identified (m = k)")
        return _emit(args, "\n".join(lines) + "\n", data_path)

    decision = "reject exogeneity" if j_report.reject_at_5pct else "fail to reject"
    lines += ["Sargan J test (H0: instruments uncorrelated with the structural error)", *_block([
        ("residual-regression F", f"{j_report.residual_regression_f:.3f}"),
        ("J = m * F", f"{j_report.j_statistic:.3f}"),
        ("df (m - k)", j_report.df),
        ("p-value", f"{j_report.p_value:.3f}"),
        ("decision at 5%", decision),
        ("cross-checks", f"instrument-block F {j_report.instrument_block_f:.3f}, "
                         f"n*R^2 {j_report.n_r_squared:.3f}"),
    ], "  ")]
    return _emit(args, "\n".join(lines) + "\n", data_path)


def _emit(args, text, data_path):
    """Write a spec command's report to `--output`, with its manifest, or else to stdout."""
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        _write_manifest(args.output, _command_line(args), spec_path=args.spec, dataset_path=data_path)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    fields = dataclasses.fields(simulate.DgpParams)
    raw = dataio.read_json_object(
        args.params, "parameter", {f.name for f in fields} | {"estimator", "covariance", "replications"},
        [f.name for f in fields if f.default is dataclasses.MISSING])
    estimator = raw.pop("estimator", "tsls")
    covariance = raw.pop("covariance", None)
    replications = raw.pop("replications", 1)
    params = simulate.DgpParams(**raw)
    if args.seed is not None:
        params = dataclasses.replace(params, seed=args.seed)
    if args.replications is not None:
        replications = args.replications
    spec = simulate.default_model_spec(params, estimator=estimator, covariance=covariance)

    summary = simulate.run_monte_carlo(params, spec, replications)
    if args.emit_dataset:
        # The Monte Carlo's first market, so with one replication the file is what it estimated.
        first = dataclasses.replace(params, seed=simulate.replication_seeds(params.seed, 1)[0])
        data, _ = simulate.generate_market(first)
        dataio.write_panel_csv(data, args.emit_dataset)
        _write_manifest(args.emit_dataset, _command_line(args), seed=first.seed)
    print(format_mc_summary(summary), end="")
    return EXIT_OK


def format_mc_summary(summary: simulate.McSummary) -> str:
    by_class = ", ".join(f"{name} {count}" for name, count in summary.failures.items())
    lines = [
        f"Monte Carlo summary: {summary.completed}/{summary.replications} replications "
        f"({summary.failed} failed{': ' + by_class if by_class else ''})"
    ]
    headers = ("coefficient", "truth", "mean bias", "bias SE", "rmse", "95% coverage")
    lines += _table(headers, [(
        name,
        f"{summary.true_values[name]:.4f}",
        f"{summary.mean_bias[name]:+.4f}",
        f"{summary.mean_bias_se[name]:.4f}",
        f"{summary.rmse[name]:.4f}",
        f"{summary.ci_coverage_95[name]:.3f}",
    ) for name in summary.coefficient_names])
    f, rate = summary.mean_first_stage_f, summary.sargan_rejection_rate
    lines += _block([
        ("mean first-stage F", None if math.isnan(f) else f"{f:.3f}"),
        ("Sargan rejection rate at 5%", None if math.isnan(rate) else f"{rate:.3f}"),
        ("re-draws", summary.redraws),
    ])
    return "\n".join(lines) + "\n"


def _command_line(args) -> list:
    return list(getattr(args, "_raw_argv", sys.argv[1:]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logitdemand",
        description="Logit demand estimation: share inversion, OLS/FE/2SLS, instrument diagnostics, synthetic markets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invert", help="add the log-share-difference column to a panel CSV")
    p.add_argument("--data", required=True, help="input panel CSV")
    p.add_argument("--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("estimate", help="run an estimation from a spec file")
    p.add_argument("--spec", required=True, help="JSON model spec")
    p.add_argument("--data", help="override the spec's dataset path")
    p.add_argument("--method", choices=sorted(_METHOD_ALIASES), help="override the spec's estimator")
    p.add_argument("--robust", action="store_true", help="force HC0 robust standard errors")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--output", help="write the table here instead of stdout")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("diagnose", help="first-stage F and Sargan J for a spec with instruments")
    p.add_argument("--spec", required=True, help="JSON model spec")
    p.add_argument("--data", help="override the spec's dataset path")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("simulate", help="run the synthetic-market Monte Carlo")
    p.add_argument("--params", required=True, help="JSON generator parameters")
    p.add_argument("--replications", type=int, help="override the params file")
    p.add_argument("--seed", type=int, help="override the params file")
    p.add_argument("--emit-dataset", help="also write one generated dataset as CSV")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._raw_argv = argv
    try:
        return args.func(args)
    except (LogitDemandError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(args.command, exc)


def _exit_code(command, exc) -> int:
    """The exit code of a failed command: by the command for `simulate`, else by error class."""
    if command == "simulate":
        return EXIT_BAD_PARAMS
    if isinstance(exc, OrderConditionViolatedError):
        return EXIT_NO_INSTRUMENTS
    return EXIT_ESTIMATION if isinstance(exc, EstimationError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
