"""Command-line front end.

Subcommands:

* ``run`` -- execute one experiment config and print the aggregate metrics;
* ``sweep`` -- execute a grid of configs and print the consolidated CSV;
* ``inspect-channel`` -- generate a channel, print its spec with the
  defaults filled in (itself a valid ``channel`` config value), a singular
  spectrum summary, and (for fading channels) the Rayleigh amplitude fit.

Configs are flat ``key=value`` text (dots nest, values parse as JSON when
possible) or a JSON object; sweep grids are JSON lists or ``{"base": {...},
"points": [{...}]}``.  The environment variable ``RMOAMP_OUTPUT_ROOT``
prefixes relative output directories.
"""

import argparse
import json
import sys

import numpy as np

from . import channel as channel_mod
from .errors import RmOampError
from .experiment import (ExperimentConfig, OUTPUT_ROOT_ENV, _noise_variance,
                         run_experiment, sweep)
from .fileio import csv_text
from .specs import CHANNEL_KEYS, read_spec, spec_integer

_CONFIG_FIELDS = {f for f in ExperimentConfig.__dataclass_fields__}


def _parse_scalar(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _set_dotted(data, item):
    """Store ``key=value`` into nested dicts; dots in the key nest.

    A dotted key under a key that holds something other than an object
    raises ValueError naming both.
    """
    key, value = item.split("=", 1)
    key = key.strip()
    parts = key.split(".")
    node = data
    for depth, part in enumerate(parts[:-1], 1):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(
                f"cannot set {key!r}: {'.'.join(parts[:depth])!r} holds "
                f"{node!r}, not an object")
    node[parts[-1]] = _parse_scalar(value.strip())


def parse_config_text(text):
    """Parse flat key=value lines (or a JSON object) into a config dict."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        _set_dotted(cfg, line)
    return cfg


def config_from_dict(data, output_dir=None):
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if output_dir is not None:
        data = dict(data, output_dir=output_dir)
    return ExperimentConfig(**data)


def _load_config_file(path):
    with open(path) as fh:
        return parse_config_text(fh.read())


def _apply_overrides(data, overrides):
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        _set_dotted(data, item)
    return data


def _cmd_run(args):
    data = _apply_overrides(_load_config_file(args.config), args.set)
    cfg = config_from_dict(data, output_dir=args.output_dir)
    report = run_experiment(cfg)
    print(report.aggregate_csv(), end="")
    return 0 if report.num_errors < len(report.trials) else 1


def _grid_points(data):
    """The config dicts of a sweep grid: a JSON list of objects, or
    ``{"base": {...}, "points": [{...}]}`` with base merged into each point.
    Any other shape raises ValueError."""
    base, points = {}, data
    if isinstance(data, dict):
        base, points = data.get("base", {}), data.get("points", [])
    if not isinstance(base, dict) or not isinstance(points, list):
        raise ValueError('a sweep grid is a JSON list of objects or '
                         '{"base": {...}, "points": [{...}]}')
    for i, point in enumerate(points):
        if not isinstance(point, dict):
            raise ValueError(f"sweep grid point {i} must be a JSON object, "
                             f"got {point!r}")
    return [dict(base, **point) for point in points]


def _cmd_sweep(args):
    with open(args.grid) as fh:
        data = json.load(fh)
    grid = [config_from_dict(point) for point in _grid_points(data)]
    text, _ = sweep(grid, output_dir=args.output_dir)
    print(text, end="")
    return 0


def _cmd_inspect_channel(args):
    seed = spec_integer(args.seed, "--seed", 0, "inspect-channel")
    samples = spec_integer(args.samples, "--samples", 1, "inspect-channel")
    kind, values = read_spec(_apply_overrides({"kind": args.kind}, args.set),
                             CHANNEL_KEYS, "channel")
    spec = dict(values, kind=kind)
    ch = channel_mod.build_channel(spec, args.dim,
                                   _noise_variance(args.sigma), seed)
    print(channel_mod.spec_key(spec))
    s = ch.s
    print(f"singular values: count={s.size} min={s.min():.6g} "
          f"max={s.max():.6g} condition={ch.condition_number():.6g} "
          f"mean_power={float(np.mean(s * s)):.6g}")
    if kind == "tdl-fading":
        stat, pvalue = channel_mod.rayleigh_fit_statistic(
            channel_mod.FadingProfile(**values), num_samples=samples,
            seed=seed)
        print(f"rayleigh_ks_statistic={stat!r} pvalue={pvalue!r}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(csv_text(("index", "singular_value"), enumerate(s)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rmoamp",
        description="Random-multiplexed transmission with an iterative "
                    "LMMSE/denoiser receiver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="key=value or JSON config file")
    p_run.add_argument("--output-dir", default=None,
                       help=f"artifact directory (relative paths join "
                            f"${OUTPUT_ROOT_ENV})")
    p_run.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a config key (dots nest)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a JSON grid of configs")
    p_sweep.add_argument("grid", help="JSON grid file")
    p_sweep.add_argument("--output-dir", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ins = sub.add_parser("inspect-channel",
                           help="emit spectrum and fading-fit statistics")
    p_ins.add_argument("--kind", default="conditioned",
                       choices=list(CHANNEL_KEYS))
    p_ins.add_argument("--dim", type=int, default=256)
    p_ins.add_argument("--sigma", type=float, default=0.0)
    p_ins.add_argument("--seed", type=int, default=0)
    p_ins.add_argument("--samples", type=int, default=100000,
                       help="amplitude samples for the Rayleigh fit")
    p_ins.add_argument("--output", default=None,
                       help="write the singular spectrum CSV here")
    p_ins.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="extra channel spec keys")
    p_ins.set_defaults(func=_cmd_inspect_channel)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RmOampError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"rmoamp: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
