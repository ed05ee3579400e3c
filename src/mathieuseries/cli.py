"""Command-line front end: evaluate the series, dump expansion coefficients,
compute sharp constants, run verification suites, and emit plot-ready output.

Each command reads argparse's namespace.  A `--config` file of `key = value`
lines fills in the flags the command line left out: its keys are the flags'
dest names, and each value is parsed with its flag's type and choices (a
switch is on for true, 1 or yes); an explicit sweep beats a file `t`.

Exit codes: 0 success, 1 verification violations, 2 parameter/config errors
(a float overflow inside the package included), with one `error:` line on
stderr after argparse's usage line for its own errors.  A warning prints one
`warning:` line on stderr.
Streams are JSON-lines (17 significant digits) or CSV (12 significant digits);
suite reports are a single JSON document.  Identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from typing import TYPE_CHECKING

from . import mathieu, sharp
from .errors import MathieuSeriesError, ParameterError, ToleranceError

if TYPE_CHECKING:
    from . import analysis

SUITES = ("classical", "em", "asymptotic", "hermite", "hankel", "cm", "monotone", "all")


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


def _emit(stream, records: list[dict], fmt: str) -> None:
    if fmt == "json":
        for rec in records:
            parts = []
            for key, val in rec.items():
                if isinstance(val, float):
                    if math.isfinite(val):
                        parts.append(f'"{key}": {_fmt17(val)}')
                    else:
                        parts.append(f'"{key}": "{val}"')
                elif isinstance(val, bool):
                    parts.append(f'"{key}": {"true" if val else "false"}')
                elif isinstance(val, (int,)):
                    parts.append(f'"{key}": {val}')
                else:
                    parts.append(f'"{key}": {json.dumps(val)}')
            stream.write("{" + ", ".join(parts) + "}\n")
    else:
        header = list(records[0].keys())
        stream.write(",".join(header) + "\n")
        for rec in records:
            cells = []
            for key in header:
                val = rec[key]
                cells.append(_fmt12(val) if isinstance(val, float) else str(val))
            stream.write(",".join(cells) + "\n")


def _write(cfg: argparse.Namespace, records: list[dict]) -> int:
    """Emit the records to --output (stdout when absent or '-'); exit code 0."""
    if cfg.output is None or cfg.output == "-":
        _emit(sys.stdout, records, cfg.fmt)
    else:
        with open(cfg.output, "w") as fh:
            _emit(fh, records, cfg.fmt)
    return 0


def _t_values(cfg: argparse.Namespace) -> list[float]:
    if cfg.t is not None:
        return [cfg.t]
    if cfg.t_start is None or cfg.t_stop is None:
        raise ParameterError("provide --t or both --t-start and --t-stop")
    n = cfg.t_count
    if n < 2:
        raise ParameterError("--t-count must be at least 2")
    if cfg.t_log:
        if not (cfg.t_start > 0 and cfg.t_stop > 0):
            raise ParameterError("log spacing needs a positive --t-start and --t-stop")
        ratio = cfg.t_stop / cfg.t_start
        return [cfg.t_start * ratio ** (i / (n - 1)) for i in range(n)]
    step = (cfg.t_stop - cfg.t_start) / (n - 1)
    return [cfg.t_start + i * step for i in range(n)]


def cmd_eval(cfg: argparse.Namespace, alternating: bool) -> int:
    params = mathieu.MathieuParams(cfg.gamma, cfg.alpha, cfg.mu, cfg.u)
    params.require_delta(0.0 if alternating else 1.0)
    records = []
    for t in _t_values(cfg):
        if alternating:
            res = mathieu.eval_S_alt(params, t, cfg.tol)
            # eval_auto raises where no radius meets tol; eval_S_alt returns
            # its honest bracket, whose head rounding can take it past tol
            radius = max(res.err_lo, res.err_hi)
            if radius > cfg.tol:
                raise ToleranceError(f"radius {radius:.3g} at t={t:g} exceeds tol={cfg.tol:.3g}")
        else:
            res = mathieu.eval_auto(params, t, cfg.tol)
        records.append({
            "t": t, "value": res.value, "err_lo": res.err_lo, "err_hi": res.err_hi,
            "method": res.method, "terms": res.terms_used, "order": res.order,
            "rigorous": res.rigorous, "tol_met": max(res.err_lo, res.err_hi) <= cfg.tol,
        })
    return _write(cfg, records)


def cmd_asym(cfg: argparse.Namespace) -> int:
    params = mathieu.MathieuParams(cfg.gamma, cfg.alpha, cfg.mu, cfg.u)
    if cfg.t is not None and not 0.0 < cfg.t < math.inf:
        # the terms are powers of 1/t
        raise ParameterError("--t must be finite and positive")
    if cfg.alt:
        series = mathieu.asym_S_alt(params, cfg.n_terms)
        k_offset = 0  # no leading tail-integral term in the alternating expansion
    else:
        series = mathieu.asym_S(params, cfg.n_terms)
        k_offset = -1
    records = []
    for i, (p, c) in enumerate(zip(series.powers, series.coeffs)):
        rec = {"k": i + k_offset, "inv_t_power": p, "coefficient": c}
        if cfg.t is not None:
            rec["term_at_t"] = c * cfg.t ** (-p)
        records.append(rec)
    return _write(cfg, records)


def cmd_constants(cfg: argparse.Namespace) -> int:
    if not 0.0 <= cfg.u < math.inf:
        raise ParameterError("u must be finite and nonnegative")
    if cfg.inf:
        rec = {
            "u": cfg.u,
            "m_inf": sharp.m_infinity(cfg.u),
            "M_inf": sharp.M_infinity(cfg.u),
        }
    else:
        if cfg.mu <= 0:
            raise ParameterError("mu must be positive")
        fw = sharp.SharpFramework.for_s_mu(cfg.mu, cfg.u)
        consts = sharp.compute_mM(fw)
        rec = {
            "mu": cfg.mu, "u": cfg.u, "m": consts.m, "M": consts.M,
            "f_inf": consts.f_inf, "t_at_m": consts.t_at_m, "t_at_M": consts.t_at_M,
        }
    return _write(cfg, [rec])


def _suite_reports(name: str, cfg: argparse.Namespace) -> list[analysis.VerificationReport]:
    from . import analysis

    t_grid = analysis.GridSpec(points=analysis.log_grid(0.01, 100.0, 25), tolerance=1e-9)
    small_grid = analysis.GridSpec(points=analysis.log_grid(0.05, 10.0, 12), tolerance=1e-9)
    reports: list[analysis.VerificationReport] = []
    if name in ("classical", "all"):
        reports.append(analysis.classical_inequalities_check(small_grid))
        reports.append(analysis.poisson_closed_form_check())
        for p_, u_, mu_ in ((0.5, 0.0, 1.0), (1.5, 0.0, 1.0), (1.2, 0.2, 0.7)):
            reports.append(analysis.ner_check(p_, u_, mu_, small_grid))
    if name in ("em", "all"):
        reports.append(_em_suite())
    if name in ("asymptotic", "all"):
        reports.append(_asymptotic_suite())
    if name in ("hermite", "all"):
        reports.append(_hermite_suite())
    if name in ("hankel", "all"):
        for p_, a_, mu_ in ((1.0, 1.0, 1.0), (0.7, 1.3, 0.6), (1.2, 0.5, 1.5)):
            reports.append(analysis.hankel_identity_610_check(p_, a_, mu_))
        for mu_, u_, t_ in ((1.0, 0.0, 2.0), (0.6, 0.5, 1.0), (1.5, 0.0, 0.7)):
            reports.append(analysis.hankel_identity_612_check(mu_, u_, t_))
        for args in ((0.4, 0.0, 1.0, 1.0), (1.3, 0.2, 0.8, 0.5), (0.3, 0.0, 1.0, 2.0)):
            reports.append(analysis.hankel_identity_67_check(*args))
        for mu_, u_, t_ in ((1.0, 0.0, 1.0), (0.6, 0.5, 2.0), (1.0, 0.3, 0.5)):
            reports.append(analysis.derivative_69_check(mu_, u_, t_))
    if name in ("cm", "all"):
        cm_grid = analysis.GridSpec(points=analysis.log_grid(0.05, 50.0, 10), tolerance=1e-10)
        reports.append(analysis.cm_probe(2.0, 1.0, 1.0, 8, cm_grid))
        reports.append(analysis.cm_probe(1.0, 0.0, 1.0, 8, cm_grid, negate=True))
    if name in ("monotone", "all"):
        b = cfg.b_override
        if b is None:
            reports.append(analysis.monotonicity_check(1.0, 0.0, 0.0, small_grid))
            reports.append(analysis.monotonicity_check(1.0, 1.0 / 6.0, 0.0, small_grid))
            reports.append(analysis.wilkins_style_check(1.0, 0.0, small_grid))
        else:
            reports.append(analysis.monotonicity_check(1.0, b, 0.0, small_grid))
    return reports


def _em_suite() -> analysis.VerificationReport:
    """Exact finite-identity battery for the summation engines."""
    from . import analysis, emsum

    report = analysis.VerificationReport("finite-summation-identities")
    f = emsum.ExpFunction()
    for u_ in (0.0, 0.7, -0.4):
        for n_ in (0, 1, 3):
            out = emsum.em_finite_identity(f, 10, 0.1, u_, n_)
            resid = abs(out["lhs"] - out["rhs"])
            report.record(resid <= 1e-9, params={"u": u_, "n": n_}, point="em",
                          lhs=out["lhs"], rhs=out["rhs"], margin=1e-9 - resid)
    for u_, n_ in ((0.0, 2), (0.5, 1), (-0.3, 2)):
        out = emsum.boole_finite_identity(f, 6, 0.1, u_, n_)
        resid = abs(out["lhs"] - out["rhs"])
        report.record(resid <= 1e-9, params={"u": u_, "n": n_}, point="boole",
                      lhs=out["lhs"], rhs=out["rhs"], margin=1e-9 - resid)
    # remainder-bound soundness on the geometric closed form
    for eps in (0.1, 0.05, 0.025, 0.0125):
        for n_ in (1, 2, 3):
            res = emsum.em_sum(f, eps, 0.0, n_)
            truth = 1.0 / math.expm1(eps)
            err = abs(truth - res.sum_estimate)
            ok = err <= res.remainder_bound + 1e-13
            report.record(ok, params={"eps": eps, "n": n_}, point="em-bound",
                          lhs=err, rhs=res.remainder_bound, margin=res.remainder_bound - err)
            resb = emsum.boole_sum(f, eps, 0.0, n_)
            truthb = 1.0 / (math.exp(eps) + 1.0)
            errb = abs(truthb - resb.sum_estimate)
            okb = errb <= resb.remainder_bound + 1e-13
            report.record(okb, params={"eps": eps, "n": n_}, point="boole-bound",
                          lhs=errb, rhs=resb.remainder_bound, margin=resb.remainder_bound - errb)
    return report


def _asymptotic_suite() -> analysis.VerificationReport:
    """Identity and expansion checks for the series evaluators."""
    from . import analysis

    report = analysis.VerificationReport("expansion-consistency")
    # alternating = plain - 2^(1-delta) * plain at (t/2, u/2)
    for gamma_, alpha_, mu_, u_, t_ in ((1.0, 2.0, 1.0, 0.3, 3.0), (2.0, 2.0, 1.5, 0.0, 1.0)):
        p = mathieu.MathieuParams(gamma_, alpha_, mu_, u_)
        half = mathieu.MathieuParams(gamma_, alpha_, mu_, u_ / 2.0)
        lhs = mathieu.eval_S_alt(p, t_, 1e-12)
        s1 = mathieu.eval_S(p, t_, 1e-12)
        s2 = mathieu.eval_S(half, t_ / 2.0, 1e-12)
        rhs = s1.value - 2.0 ** (1.0 - p.delta) * s2.value
        resid = abs(lhs.value - rhs)
        report.record(resid <= 1e-10, params={"gamma": gamma_, "mu": mu_}, point=t_,
                      lhs=lhs.value, rhs=rhs, margin=1e-10 - resid)
    # scaled truncation residual of the plain expansion stays of the next term's size
    params = mathieu.MathieuParams(1.0, 2.0, 1.0, 0.0)
    series = mathieu.asym_S(params, 4)
    for t_ in (20.0, 40.0):
        direct = mathieu.eval_S(params, t_, 1e-14)
        resid = abs(direct.value - series.evaluate(1.0 / t_, 3))  # leading + 2 corrections
        scale = resid * t_ ** series.powers[3]
        expected = abs(series.coeffs[3])
        ok = 0.3 * expected <= scale <= 3.0 * expected
        report.record(ok, params={"n_terms": 3}, point=t_,
                      lhs=scale, rhs=expected, margin=expected - abs(scale - expected))
    # dispatcher agreement at large t (the direct oracle must out-resolve the target)
    res_auto = mathieu.eval_auto(params, 2000.0, 1e-12)
    res_direct = mathieu.eval_S(params, 2000.0, 1e-20)
    rel = abs(res_auto.value - res_direct.value) / res_direct.value
    report.record(rel <= 1e-12, params={"path": res_auto.method}, point=2000.0,
                  lhs=res_auto.value, rhs=res_direct.value, margin=1e-12 - rel)
    return report


def _hermite_suite() -> analysis.VerificationReport:
    """Convexity-based bounds over a deterministic kernel/offset sweep."""
    from . import analysis

    report = analysis.VerificationReport("convexity-bounds")
    kernels = [("power", sharp.PowerKernel(m)) for m in (0.5, 1.0, 2.0, 4.0)]
    kernels += [("exp", sharp.ExpKernel(lam)) for lam in (0.25, 1.0, 3.0)]
    for name, kernel in kernels:
        for a, b in ((0.5, 1.0), (1.0, 2.0), (2.0, 5.0)):
            report.merge(analysis.hermite_hadamard_check(kernel.g, a, b))
        for u_ in (0.0, 0.5, 1.0, -1.25):
            for y_ in (0.25, 1.0, 4.0):
                if u_ < -1.0 and name == "power" and y_ <= (1.0 + u_) ** 2:
                    continue
                report.merge(analysis.fsf_bounds_check(kernel, u_, y_))
    for u_ in (0.0, 0.5, 1.0, 2.0):
        for lam in (0.25, 1.0, 3.0):
            report.merge(analysis.exp_kernel_log_bounds_check(u_, lam))
    return report


def cmd_verify(cfg: argparse.Namespace) -> int:
    reports = _suite_reports(cfg.suite, cfg)
    all_passed = all(r.passed for r in reports)
    doc = {
        "suite": cfg.suite,
        "passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    out_path = cfg.output or f"mathieu_verify_{cfg.suite}.json"
    with open(out_path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{status:4s}  {r.check_name}  ({r.total} checks, {len(r.violations)} violations)")
    print(f"report written to {out_path}")
    return 0 if all_passed else 1


def cmd_hankel(cfg: argparse.Namespace) -> int:
    import numpy as np

    from . import analysis

    kernels = {
        "exp": lambda x: np.exp(-cfg.p * x) / x,
        "g-pu": lambda x: analysis.g_pu(cfg.p, cfg.u, x),
        "h-u-prime": lambda x: analysis.h_u_prime(cfg.u, x),
    }
    if cfg.t is None or cfg.t <= 0:
        raise ParameterError("--t must be a positive transform argument")
    for flag, value in (("m", cfg.m), ("p", cfg.p), ("cutoff", cfg.cutoff)):
        if value is not None and not 0.0 < value < math.inf:
            raise ParameterError(f"--{flag} must be finite and positive")
    if not -1.0 < cfg.u < math.inf:
        raise ParameterError("--u must be finite and exceed -1")
    if cfg.kernel == "exp" and not cfg.m > 1.0:
        # e^(-px)/x times x^(m-1) behaves like x^(m-2) at 0: integrable only for m > 1
        raise ParameterError("--m must exceed 1 for the exp kernel")
    cutoff = cfg.cutoff
    if cutoff is None:
        decay = min(cfg.p, 1.0 + cfg.u) if cfg.kernel != "h-u-prime" else 1.0 + cfg.u
        cutoff = analysis.hankel_cutoff(max(cfg.m - 1.0, 0.0), decay)
    value = analysis.hankel_transform(kernels[cfg.kernel], cfg.m, cfg.t, cutoff)
    # a quadrature with no bracket, and bessel_j is good to about 3e-12 near x = 12
    rec = {"kernel": cfg.kernel, "m": cfg.m, "t": cfg.t, "cutoff": cutoff, "value": value,
           "rigorous": False}
    return _write(cfg, [rec])


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--u", type=float, default=0.0)


def _add_t_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-start", type=float, default=None)
    p.add_argument("--t-stop", type=float, default=None)
    p.add_argument("--t-count", type=int, default=50)
    p.add_argument("--t-log", action="store_true", help="log-spaced sweep")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.add_argument("--config", default=None, help="key=value file merged under the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathieu-series",
        description="Generalized Mathieu series: evaluation, expansions, sharp "
                    "constants, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the plain series over t")
    p_alt = sub.add_parser("eval-alt", help="evaluate the alternating series over t")
    for p in (p_eval, p_alt):
        _add_param_flags(p)
        _add_t_flags(p)
        p.add_argument("--tol", type=float, default=1e-10)
        _add_io_flags(p)

    p_asym = sub.add_parser("asym", help="dump large-t expansion coefficients")
    _add_param_flags(p_asym)
    p_asym.add_argument("--n-terms", type=int, default=6)
    p_asym.add_argument("--alt", action="store_true", help="alternating-series expansion")
    p_asym.add_argument("--t", type=float, default=None, help="also evaluate each term at t")
    _add_io_flags(p_asym)

    p_const = sub.add_parser("constants", help="sharp shifts m, M for the mu family")
    p_const.add_argument("--mu", type=float, default=1.0)
    p_const.add_argument("--u", type=float, default=0.0)
    p_const.add_argument("--inf", action="store_true", help="limiting constants instead")
    _add_io_flags(p_const)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--b", dest="b_override", type=float, default=None,
                          help="override the monotonicity shift (self-test hook)")
    _add_io_flags(p_verify)

    p_hankel = sub.add_parser("hankel", help="evaluate a Hankel transform of a built-in kernel")
    p_hankel.add_argument("--kernel", choices=("exp", "g-pu", "h-u-prime"), default="exp")
    p_hankel.add_argument("--m", type=float, default=3.0)
    p_hankel.add_argument("--t", type=float, default=1.0)
    p_hankel.add_argument("--p", type=float, default=1.0)
    p_hankel.add_argument("--u", type=float, default=0.0)
    p_hankel.add_argument("--cutoff", type=float, default=None)
    _add_io_flags(p_hankel)

    return parser


def _given_dests(command: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: list[str]) -> set[str]:
    """The dests that argv sets: the command's own parser reads argv again
    into a namespace where every dest is already set, so no default fills
    one in, and each flag counts under its dest (`--format` as fmt)."""
    unset = object()
    ns = argparse.Namespace(**dict.fromkeys(vars(args), unset))
    command.parse_args(argv[argv.index(args.command) + 1:], ns)
    return {key for key, val in vars(ns).items() if val is not unset}


def _config_value(action: argparse.Action, key: str, raw: str):
    """A config file's value for one flag, parsed as the flag parses it: a
    switch is on for 1, true or yes; any other value goes through the flag's
    type and must be one of its choices."""
    if action.nargs == 0:
        return action.const if raw.lower() in ("1", "true", "yes") else action.default
    try:
        value = raw if action.type is None else action.type(raw)
    except ValueError:
        raise ParameterError(f"config value {key} = {raw!r} is not a valid "
                             f"{action.type.__name__}") from None
    if action.choices is not None and value not in action.choices:
        raise ParameterError(f"config value {key} = {raw!r} is not one of "
                             f"{', '.join(action.choices)}")
    return value


def _merge_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser,
                       argv: list[str]) -> argparse.Namespace:
    if not args.config:
        return args
    overrides = {}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"malformed config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            overrides[key.replace("-", "_")] = val
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices[args.command]
    # a file names no further file: `config` is no key
    actions = {a.dest: a for a in command._actions if hasattr(args, a.dest) and a.dest != "config"}
    given = _given_dests(command, args, argv)
    # flags win: file values only fill in what the command line left out
    for key, val in overrides.items():
        if key not in actions:
            raise ParameterError(f"unknown config key {key!r}")
        if key in given:
            continue
        if key == "t" and given & {"t_start", "t_stop"}:
            continue  # an explicit sweep beats a point value from the file
        setattr(args, key, _config_value(actions[key], key, val))
    return args


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning as one `warning:` line, without the source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        return _main(argv)


def _main(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args = _merge_config_file(args, parser, argv)
        if args.command == "eval":
            return cmd_eval(args, alternating=False)
        if args.command == "eval-alt":
            return cmd_eval(args, alternating=True)
        if args.command == "asym":
            return cmd_asym(args)
        if args.command == "constants":
            return cmd_constants(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "hankel":
            return cmd_hankel(args)
        raise ParameterError(f"unknown command {args.command!r}")
    except (MathieuSeriesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value left the float range ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
