"""Command-line front end: scenario configs, result tables, oracle reports.

Subcommands:
  amplitudes      energy sweep of the scattering amplitudes and probabilities
  density         space-time density tables from the spectral evolution
  dwell           inner-level sweep of dwell times
  oracle-compare  grid-solver cross-check with a JSON report

Configuration is a flat key-value text format with dotted keys
(``potential.u_tilde = 10``).  Precedence: built-in defaults, then a named
--preset, then the --config file, then --set overrides.  Output is CSV
(UTF-8, '.' decimal, 17 significant digits, '#' metadata comments) or a
JSON report; identical configs produce byte-identical output.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 comparison failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .dwell import dwell_total, relative_dwell_asymptotic
from .evolution import density as density_split
from .evolution import evolve
from .grid import GridConfigError, compare, evolve_grid, grid_for_scenario
from .model import PotentialSpec
from .packet import PacketSpec
from .presets import preset
from .quadrature import QuadratureError, QuadratureSpec
from .scattering import amplitude_table

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_COMPARISON = 3


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "packet.e_perp_tilde": "100",
    "packet.sigma_tilde": "0.1",
    "packet.x_i_tilde": "-10",
    "packet.t0_tilde": "0",
    "potential.u_tilde": "10",
    "potential.delta_tilde": "0",
    "quad.rel_tol": "1e-8",
    "quad.abs_tol": "1e-12",
    "quad.window_w": "8",
    "quad.max_panels": "100000",
    "grid.x_min": "-2",
    "grid.x_max": "2",
    "grid.x_count": "121",
    "grid.t_min": "0.1",
    "grid.t_max": "1.5",
    "grid.t_count": "121",
    "amplitudes.e_min": "1",
    "amplitudes.e_max": "200",
    "amplitudes.e_count": "121",
    "dwell.u_min": "-2000",
    "dwell.u_max": "200",
    "dwell.u_count": "121",
    "oracle.times": "0.25,0.5,1.0",
    "oracle.threshold": "1e-3",
    "oracle.dx_refine": "1.6",
    "oracle.dt_refine": "1.0",
    "oracle.window_w": "5",
    "oracle.max_compare_points": "4001",
    "sweep.key": "",
    "sweep.values": "",
}

_KNOWN_KEYS = set(_DEFAULTS) | {"output.path"}


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def merge_config(preset_name=None, config_path=None, overrides=()) -> dict:
    cfg = dict(_DEFAULTS)
    if preset_name:
        try:
            cfg.update(preset(preset_name))
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
    if config_path:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        cfg.update(parse_config_text(text))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        cfg[key] = value
    return cfg


def _get_float(cfg, key) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: not a number: {cfg[key]!r}") from None


def _get_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {cfg[key]!r}") from None


def _get_floats(cfg, key) -> list[float]:
    try:
        return [float(tok) for tok in cfg[key].split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{key}: not a comma list of numbers: {cfg[key]!r}") from None


def _axis(cfg, prefix) -> np.ndarray:
    lo = _get_float(cfg, prefix + "_min")
    hi = _get_float(cfg, prefix + "_max")
    n = _get_int(cfg, prefix + "_count")
    if hi < lo:
        raise ConfigError(f"{prefix} range is empty ({lo} > {hi})")
    if hi > lo and n < 2:
        raise ConfigError(f"{prefix}_count must be >= 2 for a non-degenerate range")
    if hi == lo:
        return np.array([lo])
    return np.linspace(lo, hi, n)


def _build_objects(cfg):
    try:
        potential = PotentialSpec(
            u_tilde=_get_float(cfg, "potential.u_tilde"),
            delta_tilde=_get_float(cfg, "potential.delta_tilde"),
        )
        packet = PacketSpec(
            e_perp_tilde=_get_float(cfg, "packet.e_perp_tilde"),
            sigma_tilde=_get_float(cfg, "packet.sigma_tilde"),
            x_i_tilde=_get_float(cfg, "packet.x_i_tilde"),
            t0_tilde=_get_float(cfg, "packet.t0_tilde"),
        )
        quad = QuadratureSpec(
            rel_tol=_get_float(cfg, "quad.rel_tol"),
            abs_tol=_get_float(cfg, "quad.abs_tol"),
            window_w=_get_float(cfg, "quad.window_w"),
            max_panels=_get_int(cfg, "quad.max_panels"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None
    return potential, packet, quad


def _fmt(x) -> str:
    return format(float(x), ".17g")


def config_hash(cfg: dict) -> str:
    # the output destination is not part of the scenario, so writing the
    # same run to two paths yields byte-identical files
    canon = "".join(
        f"{k} = {cfg[k]}\n" for k in sorted(cfg) if k != "output.path"
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _metadata_lines(cfg, command) -> list[str]:
    return [
        f"# mstwell {__version__}",
        f"# command = {command}",
        f"# config_sha256 = {config_hash(cfg)}",
    ]


def _emit(lines, cfg, out_path=None):
    text = "\n".join(lines) + "\n"
    path = out_path or cfg.get("output.path")
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def cmd_amplitudes(cfg):
    potential, _, _ = _build_objects(cfg)
    e = _axis(cfg, "amplitudes.e")
    if np.any(e <= 0):
        raise ConfigError("amplitude sweep energies must be positive")
    t, tp, rp, r, _ = amplitude_table(e, potential)
    # below the exit threshold the transmitted channel carries no flux
    closed = e <= potential.delta_tilde
    t_prob = np.where(closed, 0.0, np.abs(t) ** 2)
    r_prob = np.where(closed, 1.0, np.abs(r) ** 2)
    resid = np.abs(t_prob + r_prob - 1.0)
    lines = _metadata_lines(cfg, "amplitudes")
    lines.append(
        "E_tilde,t_re,t_im,tprime_re,tprime_im,rprime_re,rprime_im,"
        "r_re,r_im,T_prob,R_prob,unitarity_residual"
    )
    for i, ev in enumerate(e):
        row = [
            ev,
            t[i].real, t[i].imag, tp[i].real, tp[i].imag,
            rp[i].real, rp[i].imag, r[i].real, r[i].imag,
            t_prob[i], r_prob[i], resid[i],
        ]
        lines.append(",".join(_fmt(v) for v in row))
    return lines, EXIT_OK


def _density_lines(cfg, potential, packet, quad):
    x = _axis(cfg, "grid.x")
    t = _axis(cfg, "grid.t")
    field = evolve(packet, potential, x, t, quad)
    split = density_split(field)
    lines = _metadata_lines(cfg, "density")
    lines.append("x_tilde,t_tilde,density,fwd,bwd,interference,error")
    for it in range(t.size):
        for ix in range(x.size):
            row = [
                x[ix], t[it],
                split.total[it, ix], split.fwd[it, ix],
                split.bwd[it, ix], split.interference[it, ix],
                field.error_estimate[it, ix],
            ]
            lines.append(",".join(_fmt(v) for v in row))
    code = EXIT_OK if bool(np.all(field.converged)) else EXIT_NUMERICAL
    return lines, code


def cmd_density(cfg):
    potential, packet, quad = _build_objects(cfg)
    sweep_key = cfg.get("sweep.key", "")
    if not sweep_key:
        lines, code = _density_lines(cfg, potential, packet, quad)
        _emit(lines, cfg)
        return code
    if sweep_key not in _KNOWN_KEYS:
        raise ConfigError(f"sweep.key: unknown key {sweep_key!r}")
    values = _get_floats(cfg, "sweep.values")
    if not values:
        raise ConfigError("sweep.values is empty")
    base = cfg.get("output.path")
    if not base:
        raise ConfigError("sweep runs need an output path (per-value files)")
    base = Path(base)
    worst = EXIT_OK
    for value in values:
        sub = dict(cfg)
        sub[sweep_key] = repr(value)
        potential, packet, quad = _build_objects(sub)
        lines, code = _density_lines(sub, potential, packet, quad)
        tag = sweep_key.rsplit(".", 1)[-1]
        target = base.with_name(f"{base.stem}_{tag}{value:g}{base.suffix}")
        _emit(lines, sub, str(target))
        worst = max(worst, code)
    return worst


def cmd_dwell(cfg):
    _, packet, quad = _build_objects(cfg)
    u_vals = _axis(cfg, "dwell.u")
    delta = _get_float(cfg, "potential.delta_tilde")
    lines = _metadata_lines(cfg, "dwell")
    lines.append(
        "U_tilde,relative_dwell_asymptotic,tau_fwd,tau_bwd,"
        "tau_interference,tau_total"
    )
    code = EXIT_OK
    for u_t in u_vals:
        potential = PotentialSpec(u_tilde=float(u_t), delta_tilde=delta)
        rel = relative_dwell_asymptotic(packet.e_perp_tilde, potential)
        breakdown = dwell_total(packet, potential, quad)
        row = [
            u_t, rel,
            breakdown.tau_fwd, breakdown.tau_bwd,
            breakdown.tau_interference, breakdown.tau_total,
        ]
        if not (breakdown.converged and np.all(np.isfinite(row))):
            code = EXIT_NUMERICAL
        lines.append(",".join(_fmt(v) for v in row))
    return lines, code


def cmd_oracle_compare(cfg, scenario_name="custom"):
    potential, packet, quad = _build_objects(cfg)
    times = _get_floats(cfg, "oracle.times")
    if not times or any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("oracle.times must be a non-empty increasing list")
    threshold = _get_float(cfg, "oracle.threshold")
    max_points = _get_int(cfg, "oracle.max_compare_points")
    if max_points < 1:
        raise ConfigError(f"oracle.max_compare_points must be >= 1, got {max_points}")
    t_max = times[-1] - packet.t0_tilde

    grid = grid_for_scenario(
        packet, potential, t_max,
        dx_refine=_get_float(cfg, "oracle.dx_refine"),
        dt_refine=_get_float(cfg, "oracle.dt_refine"),
        window_w=_get_float(cfg, "oracle.window_w"),
    )
    oracle_field = evolve_grid(packet, potential, grid, times)

    stride = max(1, oracle_field.x_grid.size // max_points)
    x_sub = oracle_field.x_grid[::stride]
    sub = SimpleNamespace(
        x_grid=x_sub, t_grid=oracle_field.t_grid, psi=oracle_field.psi[:, ::stride]
    )
    mst_field = evolve(packet, potential, x_sub, np.asarray(times), quad)
    if not bool(np.all(mst_field.converged)):
        raise QuadratureError("spectral evolution did not converge on the comparison grid")

    distances = []
    passed = True
    for i, tv in enumerate(times):
        l2 = compare(sub, mst_field, "L2_rel", time_index=i)
        linf = compare(sub, mst_field, "Linf_rel", time_index=i)
        distances.append({"t": tv, "l2": l2, "linf": linf})
        if l2 > threshold:
            passed = False

    report = {
        "scenario": scenario_name,
        "grid": {
            "x_min": grid.x_min, "x_max": grid.x_max,
            "dx": grid.dx, "dt": grid.dt, "boundary": "hard_wall",
        },
        "distances": distances,
        "norm_drift": oracle_field.norm_drift,
        "time_steps": oracle_field.time_steps,
        "passed": passed,
        "threshold": threshold,
        "config_sha256": config_hash(cfg),
        "version": __version__,
    }
    return report, (EXIT_OK if passed else EXIT_COMPARISON)


@functools.cache  # one parser per process: building it costs about a millisecond
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mstwell",
        description="Semi-analytic scattering of a Gaussian packet by a "
        "two-step potential profile, with a grid-solver cross check.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("amplitudes", "density", "dwell", "oracle-compare"):
        p = sub.add_parser(name)
        p.add_argument("--preset", help="named parameter set")
        p.add_argument("--config", help="key-value config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("-o", "--output", help="output file (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = merge_config(args.preset, args.config, args.set)
        if args.output:
            cfg["output.path"] = args.output

        if args.command == "amplitudes":
            lines, code = cmd_amplitudes(cfg)
            _emit(lines, cfg)
            return code
        if args.command == "density":
            return cmd_density(cfg)
        if args.command == "dwell":
            lines, code = cmd_dwell(cfg)
            _emit(lines, cfg)
            return code
        report, code = cmd_oracle_compare(cfg, args.preset or "custom")
        _emit([json.dumps(report, sort_keys=True, indent=2)], cfg)
        return code
    except (ConfigError, GridConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
