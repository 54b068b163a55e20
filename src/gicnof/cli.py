"""Command-line front end.

Subcommands: region, gap, sweep, classify, simulate.  Parameter files are
JSON with the six power ratios plus a units field ("db" or "linear"); dB
values are converted here and nowhere else in the package.  Outputs are
deterministic (byte-identical for identical inputs, flags and seeds) and all
numeric fields are fixed to six decimal places.

Exit codes: 0 success, 1 input validation error, 2 degenerate channel.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import achievability, converse, gap
from .channel import (
    ChannelCoefficients,
    ChannelParameters,
    SimulationConfig,
    estimate_parameters,
    params_from_coefficients,
    simulate_block,
)
from .errors import DegenerateChannelError
from .geometry import GridSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2

PARAM_FIELDS = tuple(f.name for f in fields(ChannelParameters))
COEFF_FIELDS = tuple(f.name for f in fields(ChannelCoefficients))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; raise ValueError instead, which main exits 1 for
    def error(self, message):
        raise ValueError(message)


def _db_to_linear(db: float, what: str) -> float:
    """db in linear scale; what names the field or flag it came from."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{what}: {db} dB is too large for a float in linear scale") from None


def _fmt(x: float) -> str:
    return f"{float(x):.6f}"


def _round6(x: float) -> float:
    return float(f"{float(x):.6f}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path} must contain a JSON object")
    return data


def _load_params_file(path: str) -> ChannelParameters:
    """Read the six-ratio parameter file, converting dB to linear if needed."""
    data = _load_json(path)
    units = data.get("units")
    if units not in ("db", "linear"):
        raise ValueError(f"field 'units' must be 'db' or 'linear', got {units!r}")
    values = {}
    for name in PARAM_FIELDS:
        if name not in data:
            raise ValueError(f"missing field '{name}'")
        v = data[name]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(f"field '{name}' must be a finite number, got {v!r}")
        values[name] = _db_to_linear(float(v), f"field '{name}'") if units == "db" else float(v)
    for name, v in values.items():
        if v < 0.0:
            raise ValueError(f"field '{name}' must be >= 0 in linear scale, got {v}")
    return ChannelParameters(**values)


def _load_coeffs_file(path: str) -> ChannelCoefficients:
    data = _load_json(path)
    values = {}
    for name in COEFF_FIELDS:
        if name not in data:
            raise ValueError(f"missing field '{name}'")
        v = data[name]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v) or v < 0:
            raise ValueError(f"field '{name}' must be a finite number >= 0, got {v!r}")
        values[name] = float(v)
    return ChannelCoefficients(**values)


def _parse_range(spec: str, flag: str) -> np.ndarray:
    """Parse start:stop:step, inclusive of stop within half a step."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"flag '{flag}' expects start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise ValueError(f"flag '{flag}': non-numeric range component in {spec!r}") from None
    if step <= 0 or stop < start:
        raise ValueError(f"flag '{flag}': need stop >= start and step > 0 in {spec!r}")
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    return start + step * np.arange(count)


def _grids_from_args(args) -> tuple[GridSpec, GridSpec]:
    """Each bound's default grid, with the grid flags given; a flag's dest is its field."""
    given = {f.name: getattr(args, f.name) for f in fields(GridSpec)
             if getattr(args, f.name) is not None}
    return replace(achievability.DEFAULT_GRID, **given), replace(converse.DEFAULT_GRID, **given)


def _write(out_path: str | None, text: str) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _region_rows(which: str, region) -> list[str]:
    rows = [
        f"{which},vertex,{_fmt(v[0])},{_fmt(v[1])}" for v in region.vertices
    ]
    rows += [
        f"{which},frontier,{_fmt(r1)},{_fmt(r2)}"
        for r1, r2 in zip(region.frontier_r1, region.frontier_r2)
    ]
    return rows


def _cmd_region(args) -> int:
    p = _load_params_file(args.params)
    ach_grid, conv_grid = _grids_from_args(args)
    rows = ["which,kind,r1,r2"]
    if args.which in ("achievable", "both"):
        rows += _region_rows("achievable", achievability.achievable_region(p, ach_grid))
    if args.which in ("converse", "both"):
        rows += _region_rows("converse", converse.converse_region(p, conv_grid))
    _write(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_gap(args) -> int:
    p = _load_params_file(args.params)
    ach_grid, conv_grid = _grids_from_args(args)
    report = gap.exact_gap(p, ach_grid, conv_grid)
    ev = converse.classify_events(p)
    payload = {
        "exact_gap": _round6(report.exact_gap),
        "analytic_bound": _round6(report.analytic_bound),
        "witness_r1": _round6(report.witness[0]),
        "witness_r2": _round6(report.witness[1]),
        "delta_components": [_round6(d) for d in report.delta_components],
        "event_pair": f"S{ev.l_1},S{ev.l_2}",
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    alphas = _parse_range(args.alpha, "--alpha")
    betas = _parse_range(args.beta, "--beta")
    snr = _db_to_linear(args.snr_db, "flag '--snr-db'")
    if snr <= 1.0:
        raise ValueError("flag '--snr-db': the symmetric sweep needs snr > 1 (0 dB)")
    ach_grid, conv_grid = _grids_from_args(args)
    surface = gap.sweep_symmetric(snr, alphas, betas, ach_grid, conv_grid)
    rows = ["alpha,beta,exact_gap,status"]
    for ia, alpha in enumerate(surface.alpha_grid):
        for ib, beta in enumerate(surface.beta_grid):
            status = "ok"
            if (ia, ib) in surface.missing:
                status = f"missing:{surface.missing[(ia, ib)]}"
            rows.append(f"{_fmt(alpha)},{_fmt(beta)},{_fmt(surface.gaps[ia, ib])},{status}")
    _write(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_classify(args) -> int:
    p = _load_params_file(args.params)
    ev = converse.classify_events(p)
    v6 = converse.k6_variant(ev)
    v71 = converse.k7_variant(ev, 1)
    v72 = converse.k7_variant(ev, 2)
    sys.stdout.write(f"S{ev.l_1},S{ev.l_2}\n")
    sys.stdout.write(f"kappa6_variant={v6}\n")
    sys.stdout.write(f"kappa7_variants={v71},{v72}\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    c = _load_coeffs_file(args.coeffs)
    mode = "fully-correlated" if args.mode == "correlated" else "independent"
    cfg = SimulationConfig(block_length=args.samples, delay=1, seed=args.seed, input_mode=mode)
    block = simulate_block(c, cfg)
    est = estimate_parameters([block], c, delay=cfg.delay)
    derived = params_from_coefficients(c)
    payload = {
        "mode": args.mode,
        "samples": args.samples,
        "seed": args.seed,
        "derived": {k: _round6(getattr(derived, k)) for k in PARAM_FIELDS},
        "empirical": {k: _round6(getattr(est.params, k)) for k in PARAM_FIELDS},
        "stderr": {k: _round6(getattr(est.stderr, k)) for k in PARAM_FIELDS},
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _add_grid_flags(sp) -> None:
    sp.add_argument("--rho-steps", dest="rho_points", metavar="RHO_STEPS", type=int,
                    default=None, help="correlation grid points")
    sp.add_argument("--mu-steps", dest="mu_points", metavar="MU_STEPS", type=int, default=None,
                    help="power-split grid points (inner sweep only: the converse has no splits)")
    sp.add_argument("--frontier-samples", type=int, default=None, help="frontier sampling resolution")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gicnof", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("region", help="emit region vertices and frontier as CSV")
    sp.add_argument("--params", required=True, help="JSON parameter file")
    sp.add_argument("--which", choices=("achievable", "converse", "both"), default="both")
    _add_grid_flags(sp)
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.set_defaults(func=_cmd_region)

    sp = sub.add_parser("gap", help="exact and analytic gap as JSON")
    sp.add_argument("--params", required=True)
    _add_grid_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_gap)

    sp = sub.add_parser("sweep", help="symmetric (alpha, beta) gap surface as CSV")
    sp.add_argument("--snr-db", type=float, required=True, help="forward SNR in dB")
    sp.add_argument("--alpha", required=True, help="range start:stop:step")
    sp.add_argument("--beta", required=True, help="range start:stop:step")
    _add_grid_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("classify", help="print the scenario pair and cap variants")
    sp.add_argument("--params", required=True)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("simulate", help="Monte-Carlo check of the parameter definitions")
    sp.add_argument("--coeffs", required=True, help="JSON coefficient file")
    sp.add_argument("--samples", type=int, required=True, help="block length in channel uses")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", choices=("independent", "correlated"), default="correlated")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DegenerateChannelError as exc:
        sys.stderr.write(f"degenerate channel: {exc}\n")
        return EXIT_DEGENERATE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
