"""Command-line interface: scenario runs, presets, Walker TLE generation,
report tables, grid exports, and config validation."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (
    ConfigError,
    _naming,
    config_from_dict,
    load_config,
    parse_epoch,
    read_config,
    validate,
)
from .constants import DEFAULT_EPOCH, VERSION
from .engine import _write_grid, run, user_json
from .metrics import CoverageSummary, bin_grid
from .propagation import PropagationError
from .tle import dump_tle_file, elements_to_tle
from .walker import ShellSpec, build_walker


def _add_common(p: argparse.ArgumentParser) -> None:
    # no defaults here: a flag that is not given leaves the scenario's value
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="scenario seed (echoed to outputs; default 0)")
    p.add_argument("--threads", type=int, help="worker threads over users (default 1)")
    p.add_argument("--policy", choices=["random", "closest"], help="serving-satellite policy")
    p.add_argument("--min-elev", type=float, help="minimum elevation angle [deg]")
    p.add_argument("--freq", type=float, help="carrier frequency [Hz]")
    p.add_argument("--duration", type=float, help="window length [s]")
    p.add_argument("--step", type=float, help="time step [s]")
    p.add_argument("--epoch", help="scenario start (ISO-8601 UTC)")
    p.add_argument("--reporting", choices=["all_visible", "serving_only"], help="statistics mode")


def _with_flags(raw: dict, args) -> dict:
    """The raw scenario document with each common flag that was given in
    place of its key."""
    given = {
        "output_dir": args.out,
        "seed": args.seed,
        "threads": args.threads,
        "min_elevation": args.min_elev,
        "carrier_frequency": args.freq,
        "duration": args.duration,
        "step": args.step,
        "epoch": args.epoch,
        "reporting_mode": args.reporting,
    }
    raw = {**raw, **{k: v for k, v in given.items() if v is not None}}
    # a policy that is not an object is left for config_from_dict to reject
    if args.policy and isinstance(raw.get("policy", {}), dict):
        policy = {**raw.get("policy", {}), "kind": args.policy}
        if args.policy == "random" and policy.get("seed") is None:
            policy["seed"] = raw.get("seed", 0)
        raw["policy"] = policy
    return raw


def _cmd_run(args) -> int:
    raw = _with_flags(read_config(args.config), args)
    manifest = run(config_from_dict(raw, base_dir=Path(args.config).parent))
    print(f"run complete: {manifest.n_steps} steps, "
          f"{sum(manifest.constellation_counts.values())} satellites, "
          f"{len(manifest.users)} users, {manifest.wallclock_s:.1f} s")
    if manifest.output_dir:
        print(f"outputs in {manifest.output_dir}")
    return 0


def _cmd_preset(args) -> int:
    raw = {
        "constellations": [{"name": n.strip()} for n in args.constellations.split(",")],
        "users": {"preset": args.name, "raan": args.raan, "mean_anomaly": args.ma},
    }
    cfg = config_from_dict(_with_flags(raw, args))
    manifest = run(cfg)
    name_list = [c.name for c in cfg.constellations]
    table = _summary_table(
        {"users": [user_json(manifest.users[0])], "reporting_mode": cfg.reporting_mode},
        constellations=name_list + (["combined"] if len(name_list) > 1 else []),
    )
    print(table)
    if manifest.output_dir:
        print(f"outputs in {manifest.output_dir}")
    return 0


def _cmd_walker(args) -> int:
    with _naming("walker shell"):
        shell = ShellSpec(
            altitude=args.alt,
            inclination=args.inc,
            plane_count=args.planes,
            sats_per_plane=args.per_plane,
            raan_span=args.raan_span,
            inter_plane_phase=args.phase,
        )
    epoch = parse_epoch(args.epoch or DEFAULT_EPOCH, "--epoch")
    elements = build_walker(shell, epoch)
    records = [
        elements_to_tle(el, catalog_id=k + 1, name=f"{args.name}-{k}")
        for k, el in enumerate(elements)
    ]
    dump_tle_file(records, args.out_file)
    print(f"wrote {len(records)} records to {args.out_file}")
    return 0


def _fmt(v, digits=2) -> str:
    if v is None:
        return "-"
    return f"{v:.{digits}f}"


def _summary_table(summary_doc: dict, constellations: list[str] | None = None, user_id=None) -> str:
    """Aligned text table over one user's summaries (Table-style rows)."""
    users = summary_doc["users"]
    if user_id is None:
        if len(users) != 1:
            raise ConfigError(
                f"summary holds {len(users)} users; pick one with --user"
            )
        user = users[0]
    else:
        matches = [u for u in users if u["user_id"] == user_id]
        if not matches:
            raise ConfigError(f"no user {user_id} in summary")
        user = matches[0]
    mode = summary_doc.get("reporting_mode", "all_visible")
    summaries = user["summaries"]
    if constellations is None:
        constellations = [k for k in summaries if k != "combined"]
        if len(constellations) > 1:
            constellations = constellations + ["combined"]
    cols = [c for c in constellations if c in summaries]

    def fspl_keys(s):
        if mode == "serving_only":
            return s["serving_fspl_min_db"], s["serving_fspl_avg_db"], s["serving_fspl_max_db"], s["serving_max_doppler_khz"]
        return s["fspl_min_db"], s["fspl_avg_db"], s["fspl_max_db"], s["max_doppler_khz"]

    rows = [
        ("Coverage Probability [%]", [_fmt(summaries[c]["coverage_probability"] * 100.0) for c in cols]),
        ("Avg. Access [min]", [_fmt(summaries[c]["avg_access_min"]) for c in cols]),
        ("# Visible Satellites", [f"[{summaries[c]['visible_min']}, {summaries[c]['visible_max']}]" for c in cols]),
        ("Avg. # Visible Satellites", [_fmt(summaries[c]["visible_avg"]) for c in cols]),
        ("FSPL [dB]", [
            f"[{_fmt(fspl_keys(summaries[c])[0])}, {_fmt(fspl_keys(summaries[c])[2])}]" for c in cols
        ]),
        ("Avg. FSPL [dB]", [_fmt(fspl_keys(summaries[c])[1]) for c in cols]),
        ("Max. Doppler [kHz]", [_fmt(fspl_keys(summaries[c])[3]) for c in cols]),
    ]
    label_w = max(len(r[0]) for r in rows)
    col_w = max([len(c) for c in cols] + [len(v) for _, vals in rows for v in vals]) + 2
    header = " " * label_w + "".join(c.rjust(col_w) for c in cols)
    lines = [header]
    for label, vals in rows:
        lines.append(label.ljust(label_w) + "".join(v.rjust(col_w) for v in vals))
    return "\n".join(lines)


def _cmd_report(args) -> int:
    path = Path(args.summary)
    if not path.exists():
        print(f"error: summary file {path} not found", file=sys.stderr)
        return 1
    doc = json.loads(path.read_text())
    if args.mode:
        doc["reporting_mode"] = args.mode
    print(_summary_table(doc, user_id=args.user))
    return 0


def _cmd_grid(args) -> int:
    path = Path(args.summary)
    if not path.exists():
        print(f"error: summary file {path} not found", file=sys.stderr)
        return 1
    doc = json.loads(path.read_text())
    users = doc["users"]

    summaries = []
    for u in users:
        s = u["summaries"].get(args.constellation)
        if s is None:
            print(f"error: constellation {args.constellation!r} not in summary", file=sys.stderr)
            return 1
        summaries.append(CoverageSummary(**s))
    grid = bin_grid(
        [u["alt_km"] for u in users],
        [u["inc_deg"] for u in users],
        summaries,
        args.alt_bin,
        args.inc_bin,
        args.metric,
    )
    _write_grid(grid, Path(args.out_file))
    print(f"wrote grid to {args.out_file}")
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 1
    diags = validate(cfg)
    if not diags:
        print("ok: no findings")
        return 0
    for level, msg in diags:
        print(f"{level}: {msg}")
    return 1 if any(lvl == "error" for lvl, _ in diags) else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="leolink",
        description="Mega-constellation link characterization for space users",
    )
    ap.add_argument("--version", action="version", version=f"leolink {VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a scenario configuration file")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("preset", help="run a named use-case scenario")
    p.add_argument("name", choices=["iss", "sso_eo"])
    p.add_argument("--constellations", default="oneweb,starlink",
                   help="comma list of bundled fleets")
    p.add_argument("--raan", type=float, default=0.0, help="user RAAN [deg]")
    p.add_argument("--ma", type=float, default=0.0, help="user mean anomaly [deg]")
    _add_common(p)
    p.set_defaults(fn=_cmd_preset)

    p = sub.add_parser("walker", help="synthesize a Walker shell TLE file")
    p.add_argument("--alt", type=float, required=True)
    p.add_argument("--inc", type=float, required=True)
    p.add_argument("--planes", type=int, required=True)
    p.add_argument("--per-plane", type=int, required=True, dest="per_plane")
    p.add_argument("--raan-span", type=float, default=360.0)
    p.add_argument("--phase", type=float, default=None,
                   help="inter-plane phase [deg]; default 360/(planes*per_plane)")
    p.add_argument("--epoch", default=None)
    p.add_argument("--name", default="walker")
    p.add_argument("--out", dest="out_file", required=True)
    p.set_defaults(fn=_cmd_walker)

    p = sub.add_parser("report", help="render a summary JSON as a text table")
    p.add_argument("summary")
    p.add_argument("--user", type=int, default=None)
    p.add_argument("--mode", choices=["all_visible", "serving_only"], default=None)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("grid", help="bin per-user summaries into a heatmap CSV")
    p.add_argument("summary")
    p.add_argument("--metric", default="coverage_probability")
    p.add_argument("--constellation", default="combined")
    p.add_argument("--alt-bin", type=float, default=25.0)
    p.add_argument("--inc-bin", type=float, default=5.0)
    p.add_argument("--out", dest="out_file", required=True)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("validate", help="check a configuration file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.fn(args)
    except (ConfigError, PropagationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
