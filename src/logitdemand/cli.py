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
from .errors import ExactlyIdentifiedError, LogitDemandError, OrderConditionViolatedError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3
EXIT_NO_INSTRUMENTS = 4
EXIT_BAD_PARAMS = 5

_METHOD_ALIASES = {"ols": "ols", "fe": "two_way_fe", "2sls": "tsls"}


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


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


def format_coefficient_table(result: estimators.EstimateResult) -> str:
    robust = result.covariance_tag == "robust_hc0"
    rows = []
    for name, est, se, t in result.coefficient_rows():
        p = _two_sided_p(t, result.df_residual, robust)
        rows.append((name, f"{est:.3f}{_stars(p)}", f"({se:.3f})", f"{t:.3f}", f"{p:.3f}"))

    headers = ("coefficient", "estimate", "std.error", "t value", "Pr(>|t|)")
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    lines.append("")
    lines.append(f"observations: {result.n_observations}")
    r2_label = "within R-squared" if result.estimator_tag == "two_way_fe" else "R-squared"
    lines.append(
        f"{r2_label}: {result.r_squared:.3f}   adjusted: {result.adjusted_r_squared:.3f}"
    )
    lines.append(
        f"residual std. error: {result.residual_std_error:.3f} (df = {result.df_residual})"
    )
    if result.fixed_effect_values:
        n_u = len(result.fixed_effect_values["unit"])
        n_t = len(result.fixed_effect_values["period"])
        lines.append(f"absorbed fixed effects: {n_u} units, {n_t} periods")
    lines.append("note: * p<0.1; ** p<0.05; *** p<0.01")
    se_note = "normal approximation (HC0)" if robust else "Student t(n-p)"
    lines.append(f"      p-values from {se_note}")
    return "\n".join(lines) + "\n"


def _report_dropped_rows(data, row_indices):
    """Listwise deletion is silent in the API; the CLI reports it."""
    unused = np.ones(data.n_rows, dtype=bool)
    unused[row_indices] = False
    dropped = np.flatnonzero(unused).tolist()
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
    try:
        data = dataio.compute_dependent(dataio.load_panel(args.data))
        shares = dataio.outside_shares(data)
        dataio.write_panel_csv(data, args.output)
    except (LogitDemandError, OSError, ValueError) as exc:
        return _fail(EXIT_VALIDATION, exc)
    _write_manifest(args.output, _command_line(args), dataset_path=args.data)
    for t, s0 in sorted(shares.items()):
        print(f"period {t}: outside share {s0:.6f}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    try:
        spec, data, data_path = _load(args)
        method = _METHOD_ALIASES[args.method] if args.method else spec.estimator
        if method == "tsls" and spec.estimator == "two_way_fe":
            return _fail(
                EXIT_VALIDATION,
                f"the spec's estimator is {spec.estimator!r}; --method 2sls fits a pooled "
                "2SLS, and 2SLS with fixed effects is not supported yet",
            )
        if method != spec.estimator:
            spec = dataclasses.replace(spec, estimator=method, **estimators.estimator_defaults(method))
    except OrderConditionViolatedError as exc:
        return _fail(EXIT_NO_INSTRUMENTS, exc)
    except (LogitDemandError, OSError, ValueError) as exc:
        return _fail(EXIT_VALIDATION, exc)
    if args.robust:
        spec = dataclasses.replace(spec, covariance="robust_hc0")

    try:
        result = estimators.estimate(spec, data)
    except LogitDemandError as exc:
        return _fail(EXIT_ESTIMATION, exc)
    _report_dropped_rows(data, result.row_indices)

    if args.format == "csv":
        return _emit(args, dataio.results_csv_text(result), data_path)
    return _emit(args, format_coefficient_table(result), data_path)


def cmd_diagnose(args) -> int:
    try:
        spec, data, data_path = _load(args)
        if spec.estimator == "two_way_fe":
            return _fail(
                EXIT_VALIDATION,
                f"the spec's estimator is {spec.estimator!r}; diagnose tests a pooled first "
                "stage, and first-stage diagnostics with fixed effects are not supported yet",
            )
        if not spec.instruments:
            return _fail(EXIT_NO_INSTRUMENTS, "spec has no instruments; nothing to diagnose")
        spec = dataclasses.replace(spec, estimator="tsls")
    except OrderConditionViolatedError as exc:
        return _fail(EXIT_NO_INSTRUMENTS, exc)
    except (LogitDemandError, OSError, ValueError) as exc:
        return _fail(EXIT_VALIDATION, exc)
    lines = []
    try:
        f_report = diagnostics.first_stage_f(spec, data)
    except LogitDemandError as exc:
        return _fail(EXIT_ESTIMATION, exc)
    lines.append("First-stage F test (H0: all instrument coefficients are zero)")
    lines.append(f"  restrictions (m):       {f_report.df_numerator}")
    lines.append(f"  Res.Df restricted:      {f_report.restricted_df}")
    lines.append(f"  Res.Df unrestricted:    {f_report.unrestricted_df}")
    lines.append(f"  F:                      {f_report.f_statistic:.3f}")
    lines.append(f"  Pr(>F):                 {f_report.p_value:.3f}")
    verdict = "pass" if f_report.passes_rule_of_thumb else "FAIL (possible weak instruments)"
    lines.append(f"  rule of thumb (F>=10):  {verdict}")
    lines.append("")

    try:
        tsls_result = estimators.estimate_tsls(spec, data)
        j_report = diagnostics.sargan_j(tsls_result, spec, data)
    except ExactlyIdentifiedError:
        lines.append("Sargan J test skipped: model is exactly identified (m = k)")
        return _emit(args, "\n".join(lines) + "\n", data_path)
    except LogitDemandError as exc:
        return _fail(EXIT_ESTIMATION, exc)

    decision = "reject exogeneity" if j_report.reject_at_5pct else "fail to reject"
    lines.append("Sargan J test (H0: instruments uncorrelated with the structural error)")
    lines.append(f"  residual-regression F:  {j_report.residual_regression_f:.3f}")
    lines.append(f"  J = m * F:              {j_report.j_statistic:.3f}")
    lines.append(f"  df (m - k):             {j_report.df}")
    lines.append(f"  p-value:                {j_report.p_value:.3f}")
    lines.append(f"  decision at 5%:         {decision}")
    lines.append(
        f"  cross-checks:           instrument-block F {j_report.instrument_block_f:.3f}, "
        f"n*R^2 {j_report.n_r_squared:.3f}"
    )
    return _emit(args, "\n".join(lines) + "\n", data_path)


def _emit(args, text, data_path):
    """Write a spec command's report to `--output`, with its manifest, or else to stdout."""
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(EXIT_VALIDATION, exc)
        _write_manifest(args.output, _command_line(args), spec_path=args.spec, dataset_path=data_path)
    else:
        print(text, end="")
    return EXIT_OK


_PARAM_KEYS = {f.name for f in dataclasses.fields(simulate.DgpParams)} | {
    "estimator", "covariance", "replications",
}


def cmd_simulate(args) -> int:
    try:
        with open(args.params, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("params file must be a JSON object")
        unknown = set(raw) - _PARAM_KEYS
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        estimator = raw.pop("estimator", "tsls")
        covariance = raw.pop("covariance", None)
        replications = int(raw.pop("replications", 1))
        for key in ("beta", "unit_effects", "time_effects"):
            if key in raw and raw[key] is not None:
                raw[key] = tuple(raw[key])
        params = simulate.DgpParams(**raw)
        if args.seed is not None:
            params = dataclasses.replace(params, seed=args.seed)
        if args.replications is not None:
            replications = args.replications
        if replications < 1:
            raise ValueError("need at least one replication")
        spec = simulate.default_model_spec(params, estimator=estimator, covariance=covariance)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        return _fail(EXIT_BAD_PARAMS, exc)

    try:
        summary = simulate.run_monte_carlo(params, spec, replications)
        if args.emit_dataset:
            # The Monte Carlo's first market, so with one replication the file is what it estimated.
            first = dataclasses.replace(params, seed=simulate.replication_seeds(params.seed, 1)[0])
            data, _ = simulate.generate_market(first)
            dataio.write_panel_csv(data, args.emit_dataset)
            _write_manifest(args.emit_dataset, _command_line(args), seed=first.seed)
    except (LogitDemandError, OSError) as exc:
        return _fail(EXIT_BAD_PARAMS, exc)
    print(format_mc_summary(summary), end="")
    return EXIT_OK


def format_mc_summary(summary: simulate.McSummary) -> str:
    by_class = ", ".join(f"{name} {count}" for name, count in summary.failures.items())
    lines = [
        f"Monte Carlo summary: {summary.completed}/{summary.replications} replications "
        f"({summary.failed} failed{': ' + by_class if by_class else ''})"
    ]
    headers = ("coefficient", "truth", "mean bias", "bias SE", "rmse", "95% coverage")
    rows = []
    for name in summary.coefficient_names:
        rows.append((
            name,
            f"{summary.true_values[name]:.4f}",
            f"{summary.mean_bias[name]:+.4f}",
            f"{summary.mean_bias_se[name]:.4f}",
            f"{summary.rmse[name]:.4f}",
            f"{summary.ci_coverage_95[name]:.3f}",
        ))
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    if not math.isnan(summary.mean_first_stage_f):
        lines.append(f"mean first-stage F: {summary.mean_first_stage_f:.3f}")
    if not math.isnan(summary.sargan_rejection_rate):
        lines.append(f"Sargan rejection rate at 5%: {summary.sargan_rejection_rate:.3f}")
    lines.append(f"re-draws: {summary.redraws}")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
