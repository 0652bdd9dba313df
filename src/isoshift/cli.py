"""Command-line front end: catalog listing, extension tables, certification.

Subcommands:
  catalog      list the four superpotential branches of a family
  extend       sample V-, V~-, V~+ and closed-form eigenfunctions to CSV
  certify      run the full invariant suite and emit a JSON report
  interpolate  rational extensions at arbitrary shift constants R

Outputs are deterministic for a fixed configuration: floats are serialized
with their shortest round-trip decimal representation, CSV uses LF line
endings and UTF-8, and JSON keys appear in a stable order.  Exit codes:
0 success, 1 certification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import deform, eop, spectral
from .catalog import FAMILIES, RadialOscillator, branches, partner_potentials
from .errors import ConfigurationError, IsoshiftError


def _fmt(x):
    """Shortest round-trip decimal for floats; pass everything else through."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _finite(obj):
    """obj with every non-finite float replaced by its repr ("nan", "inf"),
    which JSON has no number for."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _family_from_args(args):
    cls = FAMILIES[args.family]  # argparse and the config file check the name
    return cls(*(getattr(args, f.name) for f in dataclasses.fields(cls)))


def _csv_text(header, rows):
    """The header and rows as comma-separated lines, each ending in LF."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header, rows):
    path.write_text(_csv_text(header, rows), encoding="utf-8", newline="\n")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8", newline="\n")


def _sample_grid(family, args):
    n = 400 if args.grid_points is None else args.grid_points
    return np.linspace(*family.sample_interval(args.rmax), n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_catalog(args):
    family = _family_from_args(args)
    rows = [dataclasses.asdict(b) for b in branches(family)]
    if args.format == "json":
        print(json.dumps({"family": args.family, "branches": rows}, indent=2))
    else:
        print(_csv_text(list(rows[0]), (r.values() for r in rows)), end="")
    return 0


def cmd_extend(args):
    family = _family_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _sample_grid(family, args)
    warnings = []

    for m in args.m:
        notes = []  # this m's warnings, for its sidecar
        d = deform.seed_polynomial(family, args.branch, m)
        pair = deform.extend(d)
        v_minus = partner_potentials(d.w0)[0].f(grid)

        header = ["r", "V_minus", "V_tilde_minus", "V_tilde_plus"]
        cols = [grid, v_minus, pair.V_tilde_minus.f(grid), pair.V_tilde_plus.f(grid)]

        series = family.exceptional_series.get(args.branch)
        if series is not None and not d.singular_points:
            for n in range(args.nmax + 1):
                psi = eop.eigenfunction_closed_form(eop.EOPSpec(series, n, m, family))
                header.append(f"psi_{n}")
                cols.append(psi.f(grid))
        elif d.singular_points:
            notes.append(
                f"m={m}: singular extension (points {d.singular_points}); "
                "eigenfunction tables skipped"
            )
        elif series is None:
            notes.append(
                f"m={m}: no closed-form eigenfunction family for this branch; "
                "eigenfunction tables skipped"
            )

        stem = f"extend_{args.family}_b{args.branch}_m{m}"
        _write_csv(out_dir / f"{stem}.csv", header, zip(*cols))
        sidecar = {
            "family": args.family,
            "branch": args.branch,
            "m": m,
            "params": dataclasses.asdict(family),
            "shift": pair.shift,
            "singular_points": list(d.singular_points),
            "series": series,
            "warnings": notes,
        }
        _write_json(out_dir / f"{stem}.json", sidecar)
        warnings += notes
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_certify(args):
    report = spectral.certify(
        _family_from_args(args), args.branches, args.m, nmax=args.nmax,
        grid_points=args.grid_points, skip_gram=args.skip_gram,
        skip_spectral=args.skip_spectral)
    text = json.dumps(_finite(report), indent=2, default=_fmt, allow_nan=False)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "certify.json").write_text(text + "\n", encoding="utf-8", newline="\n")
    print(text)
    if report["failures"]:
        print(f"FAILED: {report['failures'][0]}", file=sys.stderr)
        return 1
    return 0


def cmd_interpolate(args):
    family = RadialOscillator.check(_family_from_args(args))
    if not args.R:
        raise ConfigurationError("interpolate requires at least one R value")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _sample_grid(family, args)
    rmax = family.sample_interval(args.rmax)[1]

    header = ["r"]
    cols = [grid]
    meta = {"family": args.family, "branch": args.branch,
            "params": dataclasses.asdict(family), "columns": []}
    for R in args.R:
        pair = deform.extend_general_R(family, args.branch, R, r_max=1.2 * rmax)
        name = f"V_tilde_minus_R={_fmt(R)}"
        header.append(name)
        cols.append(pair.V_tilde_minus.f(grid))
        meta["columns"].append(
            {
                "R": R,
                "singular": bool(pair.singular_points),
                "singular_points": list(pair.singular_points),
            }
        )
    _write_csv(out_dir / "interpolate.csv", header, zip(*cols))
    _write_json(out_dir / "interpolate.json", meta)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(p, family_positional=False):
    if family_positional:
        p.add_argument("family", choices=list(FAMILIES))
    else:
        p.add_argument("--family", choices=list(FAMILIES), default="radial_oscillator")
    for cls in FAMILIES.values():
        for param in dataclasses.fields(cls):
            p.add_argument(f"--{param.name}", type=float, default=1.0)
    p.add_argument("--config", type=str, default=None,
                   help="JSON config file; command-line flags override it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isoshift",
        description="rational extensions of shape-invariant potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only its own flags, and whole: an abbreviation
    # would escape the config file's explicit-flag scan
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("catalog", help="list the superpotential branches")
    _add_common(p, family_positional=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_catalog)

    p = add("extend", help="sample extended potentials and eigenfunctions")
    _add_common(p)
    p.add_argument("--branch", type=int, choices=[1, 2, 3, 4], default=2)
    p.add_argument("--m", type=int, nargs="+", default=[1])
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--out", type=str, default="isoshift_out")
    p.set_defaults(func=cmd_extend)

    p = add("certify", help="run the invariant suite")
    _add_common(p)
    p.add_argument("--branches", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--m", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--skip-spectral", action="store_true", dest="skip_spectral")
    p.add_argument("--skip-gram", action="store_true", dest="skip_gram")
    p.set_defaults(func=cmd_certify)

    p = add("interpolate", help="extensions at arbitrary shift R")
    _add_common(p)
    p.add_argument("--branch", type=int, choices=[1, 2, 3, 4], default=2)
    p.add_argument("--R", type=float, nargs="+", default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--out", type=str, default="isoshift_out")
    p.set_defaults(func=cmd_interpolate)
    return parser


def _coerce_config_value(action, key, value):
    """A config value checked and converted as argparse treats its flag."""
    bad = ConfigurationError(f"invalid value {value!r} for config key {key!r}")
    if action.nargs == 0:  # store_true flags
        if not isinstance(value, bool):
            raise bad
        return value
    many = action.nargs == "+"
    if many and (not isinstance(value, list) or not value):
        raise bad
    out = []
    for item in value if many else [value]:
        if isinstance(item, (bool, dict, list)) or item is None:
            raise bad
        try:
            # argparse applies `type` to the text of the flag
            item = action.type(str(item)) if action.type is not None else item
        except ValueError:
            raise bad from None
        if action.choices is not None and item not in action.choices:
            raise bad
        out.append(item)
    return out if many else out[0]


def _apply_config_file(parser, args, argv):
    if not args.config:
        return args
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {args.config}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigurationError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
    # a positional argument is always on the command line
    explicit.update(dest for dest, a in actions.items() if not a.option_strings)
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        action = actions.get(attr)
        if action is None:
            raise ConfigurationError(f"unknown config key {key!r}")
        if attr not in explicit:
            setattr(args, attr, _coerce_config_value(action, key, value))
    return args


def _validate(args):
    if getattr(args, "nmax", 0) < 0:
        raise ConfigurationError("nmax must be nonnegative")
    if getattr(args, "grid_points", None) is not None and args.grid_points <= 0:
        raise ConfigurationError("grid_points must be positive")
    if getattr(args, "rmax", None) is not None and not 0.0 < args.rmax < math.inf:
        raise ConfigurationError(f"rmax must be finite and positive, got {args.rmax}")
    if any(m < 0 for m in getattr(args, "m", ())):
        raise ConfigurationError("m values must be nonnegative integers")


@functools.cache
def _parser():
    """build_parser(), once per process: parse_args leaves the parser unchanged."""
    return build_parser()


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(parser, args, argv)
        _validate(args)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IsoshiftError as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
