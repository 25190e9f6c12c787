"""Batch front-end: JSON config in, machine-readable results out.

Commands
--------
solve     one resolution of a manufactured case; residual and error checks
validate  identity suite plus invertibility diagnostics for a coefficient
study     convergence ladder for a manufactured case
compare   the same ladder for both kernel families side by side

Artifacts: results.json with one {name, value, tolerance, pass} entry per
check, and errors.csv with one row per resolution.  All numbers are
printed with 17 significant digits so reruns can be diffed bitwise.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_COMMANDS = ("solve", "validate", "study", "compare")
_TOP_KEYS = {"command", "domain", "coefficient", "case", "family",
             "resolutions", "output_dir", "allow_large_domain"}
_DOMAIN_KEYS = {"kind", "center", "radius", "cos_coeffs"}
_COEFF_KEYS = {"preset", "value", "direction"}
_RES_KEYS = ("n_boundary", "n_t", "n_s")

CSV_HEADER = "n_boundary,n_t,n_s,err_u_max,err_u_l2,err_psi_max,order,cond,seconds"


@dataclass
class RunConfig:
    command: str
    domain: dict
    family: str = "x"
    case: str | None = None
    coefficient: dict | None = None
    resolutions: list = field(default_factory=list)
    output_dir: str | None = None
    allow_large_domain: bool = False

    @functools.cached_property
    def spec(self):
        """The domain, built once; raises ConfigError if it is invalid."""
        return _build_domain(self)


def _reject_unknown(d: dict, allowed, where: str):
    unknown = set(d).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    from .geometry import _count
    from .potentials import _check_family
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")

    command = raw.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"command must be one of {_COMMANDS}, got {command!r}")

    domain = raw.get("domain")
    if not isinstance(domain, dict):
        raise ConfigError("config needs a 'domain' object")
    _reject_unknown(domain, _DOMAIN_KEYS, "domain")
    if domain.get("kind") not in ("disk", "star"):
        raise ConfigError("domain.kind must be 'disk' or 'star'")
    other = {"disk": "cos_coeffs", "star": "radius"}[domain["kind"]]
    if other in domain:
        raise ConfigError(f"a {domain['kind']} domain takes no {other!r}")

    family = raw.get("family", "x")
    with _library_check("family"):
        _check_family(family)

    case = raw.get("case")
    if case is not None:
        from .verification import MANUFACTURED_NAMES
        if case not in MANUFACTURED_NAMES:
            raise ConfigError(f"unknown case {case!r}; choose from "
                              f"{MANUFACTURED_NAMES}")
    coefficient = raw.get("coefficient")
    if coefficient is not None:
        if not isinstance(coefficient, dict):
            raise ConfigError("coefficient must be a JSON object")
        _reject_unknown(coefficient, _COEFF_KEYS, "coefficient")
        _coefficient(coefficient)
    if command in ("solve", "study", "compare"):
        if case is None:
            raise ConfigError(f"command {command!r} needs a manufactured 'case' "
                              "providing exact data")
        if coefficient is not None:
            raise ConfigError(f"command {command!r} takes no 'coefficient': "
                              "its manufactured 'case' fixes it")
    if command == "validate" and (coefficient is None) == (case is None):
        raise ConfigError("validate needs exactly one of a 'coefficient' "
                          "preset and a 'case'")

    resolutions = raw.get("resolutions", [])
    if isinstance(resolutions, dict):
        resolutions = [resolutions]
    if not (isinstance(resolutions, list)
            and all(isinstance(r, dict) for r in resolutions)):
        raise ConfigError("resolutions must be an object or a list of objects")
    if command != "validate" and not resolutions:
        raise ConfigError(f"command {command!r} needs 'resolutions'")
    if command == "study" and len(resolutions) < 3:
        raise ConfigError("study needs at least 3 resolutions")
    if command in ("solve", "validate") and len(resolutions) > 1:
        raise ConfigError(f"{command} takes one resolution, got "
                          f"{len(resolutions)}")
    parsed = []
    for r in resolutions:
        _reject_unknown(r, _RES_KEYS, "resolutions entry")
        with _library_check("resolution"):
            parsed.append(tuple(_count(r.get(k), k) for k in _RES_KEYS))

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    allow_large_domain = raw.get("allow_large_domain", False)
    if not isinstance(allow_large_domain, bool):
        raise ConfigError("allow_large_domain must be true or false")

    cfg = RunConfig(command=command, domain=domain, family=family, case=case,
                    coefficient=coefficient, resolutions=parsed,
                    output_dir=output_dir,
                    allow_large_domain=allow_large_domain)
    _check_diameter(cfg)          # also validates geometry parameters
    return cfg


@contextlib.contextmanager
def _library_check(what: str):
    """Raise the ValueError of a library check inside, or the TypeError or
    OverflowError of a value of the wrong type, as ConfigError."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _build_domain(cfg: RunConfig):
    from .geometry import DomainSpec
    d = cfg.domain
    with _library_check("domain"):
        if d["kind"] == "disk":
            return DomainSpec("disk", center=d.get("center", (0.0, 0.0)),
                              radius=float(d.get("radius", 0.0)))
        return DomainSpec("star", center=d.get("center", (0.0, 0.0)),
                          cos_coeffs=d.get("cos_coeffs", ()))


def _check_diameter(cfg: RunConfig):
    from .solver import check_diameter
    spec = cfg.spec           # raises its own ConfigError, not wrapped again
    with _library_check("domain"):
        check_diameter(spec, cfg.allow_large_domain)


def _coefficient(c: dict):
    from .coefficient import make_preset
    with _library_check("coefficient"):
        return make_preset(c.get("preset"), value=c.get("value"),
                           direction=c.get("direction"))


# ---------------------------------------------------------------------------
# 17-significant-digit serialization
# ---------------------------------------------------------------------------

def fmt17(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _to_json(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 2).lstrip()}'
                 for k, v in obj.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [_to_json(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return pad + json.dumps(str(obj))
        return pad + fmt17(obj)
    if isinstance(obj, (int, str)) or obj is None:
        return pad + json.dumps(obj)
    return pad + json.dumps(str(obj))


def write_results(out_dir: Path, payload: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.json").write_text(_to_json(payload) + "\n")


def write_errors_csv(out_dir: Path, rows):
    """``errors.csv``; no caller in the package, kept for the benchmark's
    tracer, which wraps it by name."""
    write_errors_csv_named(out_dir, rows, "errors.csv")


def write_errors_csv_named(out_dir: Path, rows, name: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.n_boundary), str(r.n_t), str(r.n_s),
            fmt17(r.err_u_max), fmt17(r.err_u_l2), fmt17(r.err_psi_max),
            fmt17(r.order), fmt17(r.cond), fmt17(r.seconds)]))
    (out_dir / name).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _checks_payload(checks):
    return [{"name": c.name, "value": float(c.value),
             "tolerance": float(c.tolerance), "pass": bool(c.passed)}
            for c in checks]


def _run_solve(cfg: RunConfig):
    import numpy as np
    from . import verification
    from .geometry import build_curve, build_domain_grid

    case = verification.manufactured_case(cfg.case)
    nb, nt, ns = cfg.resolutions[0]
    curve = build_curve(cfg.spec, nb)
    grid = build_domain_grid(cfg.spec, nt, ns)
    sol, row = verification.solve_case(
        case, curve, grid, cfg.family,
        allow_large_domain=cfg.allow_large_domain)

    checks = verification.SuiteReport()
    checks.add("linear_solve_residual", sol.residual, 1e-12)
    checks.add("err_u_max_rel", row.err_u_max, 1e-3)
    checks.add("err_psi_max", row.err_psi_max, 1e-2)
    checks.add("trace_defect", row.trace_defect, 1e-5)

    diag = verification.fredholm_diagnostic(sol)
    body = {
        "experimental": cfg.family == "y",
        "diagnostics": {
            "cond": sol.system.cond,
            "sigma_min": sol.system.sigma_min,
            "u_max": float(np.abs(sol.u.values).max()),
            "psi_max": float(np.abs(sol.psi.values).max()),
            **diag,
        },
    }
    return checks, body, {"errors.csv": [row]}


def _run_validate(cfg: RunConfig):
    import numpy as np
    from . import verification
    from .coefficient import DERIVATIVE_TOL, validate_derivatives
    from .geometry import build_curve, build_domain_grid

    spec = cfg.spec
    if cfg.coefficient is not None:
        coeff = _coefficient(cfg.coefficient)
    else:
        coeff = verification.manufactured_case(cfg.case).coeff
    nb, nt, ns = cfg.resolutions[0] if cfg.resolutions else (128, 32, 12)
    curve = build_curve(spec, nb)
    grid = build_domain_grid(spec, nt, ns)

    rng = np.random.default_rng(3)
    samples = spec.center + 0.4 * spec.diameter() * (
        rng.random((64, 2)) - 0.5)
    deriv = validate_derivatives(coeff, samples)

    report = verification.identity_suite(curve, grid, coeff, cfg.family)
    report.add("coefficient_derivative_dev",
               max(deriv.max_rel_grad_dev, deriv.max_rel_lap_dev),
               DERIVATIVE_TOL)
    inv = verification.invertibility_report(curve, coeff, cfg.family)
    report.add("sigma_min_single_layer_above_floor",
               1e-8 - inv["sigma_min_single_layer"], 0.0)
    decay = verification.remainder_spectrum_decay(grid, coeff, cfg.family)
    body = {"diagnostics": {
        **inv,
        "remainder_spectrum_decay_ratio": decay["decay_ratio"],
        "remainder_spectrum_head": decay["sigma"][:8]}}
    return report, body, {}


def _run_study(cfg: RunConfig):
    from . import verification

    case = verification.manufactured_case(cfg.case)
    report = verification.convergence_study(
        case, cfg.spec, (cfg.family,), cfg.resolutions,
        allow_large_domain=cfg.allow_large_domain)[cfg.family]

    checks = verification.SuiteReport()
    checks.add("final_errors_monotone",
               0.0 if report.final_pair_monotone else 1.0, 0.5)
    if len(report.rows) >= 2:
        checks.add("final_order_at_least_2", 2.0 - report.final_order, 0.0)
    body = {"experimental": cfg.family == "y",
            "rows": [vars(r) for r in report.rows]}
    return checks, body, {"errors.csv": report.rows}


def _run_compare(cfg: RunConfig):
    from . import verification

    case = verification.manufactured_case(cfg.case)
    reports = verification.convergence_study(
        case, cfg.spec, ("x", "y"), cfg.resolutions,
        allow_large_domain=cfg.allow_large_domain)

    checks = verification.SuiteReport()
    rep_x = reports["x"]
    checks.add("family_x_final_errors_monotone",
               0.0 if rep_x.final_pair_monotone else 1.0, 0.5)
    if len(rep_x.rows) >= 2:
        checks.add("family_x_final_order_at_least_2",
                   2.0 - rep_x.final_order, 0.0)
    body = {
        "family_x_rows": [vars(r) for r in reports["x"].rows],
        "family_y_rows": [vars(r) for r in reports["y"].rows],
        "family_y_note": "experimental path, reported without assertions",
    }
    return checks, body, {"errors.csv": reports["x"].rows,
                          "errors_family_y.csv": reports["y"].rows}


def _echo(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "domain": cfg.domain,
        "coefficient": cfg.coefficient,
        "case": cfg.case,
        "family": cfg.family,
        "resolutions": [list(r) for r in cfg.resolutions],
        "allow_large_domain": cfg.allow_large_domain,
    }


def run(cfg: RunConfig, out_dir=None) -> int:
    """Execute a validated config; returns the process exit status.

    Each handler returns its checks, its own results.json keys and its CSV
    tables by file name.  ``total_seconds`` covers the whole handler;
    config loading and file writing are outside it.
    """
    out = Path(out_dir or cfg.output_dir or ".")
    handler = {"solve": _run_solve, "validate": _run_validate,
               "study": _run_study, "compare": _run_compare}[cfg.command]
    t0 = time.perf_counter()
    checks, body, tables = handler(cfg)
    elapsed = time.perf_counter() - t0
    write_results(out, {"command": cfg.command, "config": _echo(cfg),
                        "checks": _checks_payload(checks.checks), **body,
                        "timings": {"total_seconds": elapsed}})
    for name, rows in tables.items():
        write_errors_csv_named(out, rows, name)
    return 0 if checks.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bdies2d",
        description="Boundary-domain integral equation solver for the 2D "
                    "variable-coefficient Dirichlet problem")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.command != args.command:
        print(f"config error: config command {cfg.command!r} does not match "
              f"CLI command {args.command!r}", file=sys.stderr)
        return 2
    try:
        status = run(cfg, args.out)
    except Exception as exc:          # surface module errors with context
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
