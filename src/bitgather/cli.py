"""Command-line front end: reproducible, scriptable runs.

Subcommands: bits, sweep, evaluate, optimize, simulate, stats. Options can
come from a flat key=value config file (--config); command-line flags win.
Every run prints its fully resolved configuration as comment lines, so any
output file documents how to regenerate itself. All randomness flows from
explicit seeds; nothing reads the clock.

Exit codes: 0 success, 2 configuration error, 3 input/output error,
4 infeasible request (e.g. exhaustive enumeration on a large topology).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from .correlation import (
    ConditioningRule,
    GaussianDecayModel,
    PowerLawModel,
    pairwise_bits,
)
from .schedule import InfeasibleError, evaluate, optimize, schedule_stats
from .simulator import fidelity_sweep
from .topology import TopologyError, load_topology

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4


class ConfigError(ValueError):
    pass


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _bool(text: Any) -> bool:
    if isinstance(text, bool):
        return text
    return str(text).lower() in ("1", "true", "yes", "on")


# (name, converter, default); default None with no config value means required
_COMMON_MODEL = [
    ("model", int, 1),
    ("n", int, 5),
    ("alpha", float, 1.0),
    ("beta", float, 1.0),
]
_OPTIONS: dict[str, list[tuple[str, Callable[[Any], Any], Any]]] = {
    "bits": [("topology", str, None)] + _COMMON_MODEL,
    "sweep": _COMMON_MODEL
    + [("d_min", float, 0.0), ("d_max", float, 8.0), ("d_step", float, 0.1)],
    "evaluate": [("topology", str, None)]
    + _COMMON_MODEL
    + [("rule", str, "min"), ("order", _int_list, None)],
    "optimize": [("topology", str, None)]
    + _COMMON_MODEL
    + [
        ("rule", str, "min"),
        ("objective", str, "minimize"),
        ("strategy", str, "brute_force"),
        ("restarts", int, 100),
        ("seed", int, 0),
        ("force_greedy", _bool, False),
    ],
    "simulate": [("topology", str, None)]
    + _COMMON_MODEL
    + [
        ("rule", str, "min"),
        ("order", _int_list, "identity"),
        ("smoothness", _float_list, [0.0]),
        ("seeds", _int_list, [0]),
    ],
    "stats": [("topology", str, None)]
    + _COMMON_MODEL
    + [
        ("rule", str, "min"),
        ("mode", str, "sampled"),
        ("samples", int, 1000),
        ("seed", int, 0),
        ("workers", int, 1),
    ],
}
_REQUIRED = {"topology", "order"}  # `order` only where its default is None


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _resolve(command: str, args: argparse.Namespace) -> dict[str, Any]:
    """Merge CLI flags over config-file values over defaults."""
    cfg = _read_config(args.config) if args.config else {}
    unknown = set(cfg) - {name for name, _, _ in _OPTIONS[command]}
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    resolved = {}
    for name, conv, default in _OPTIONS[command]:
        cli_value = getattr(args, name)
        if cli_value is not None:
            resolved[name] = cli_value
        elif name in cfg:
            resolved[name] = conv(cfg[name])
        elif default is None and name in _REQUIRED:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")
        else:
            resolved[name] = default
    return resolved


def _build_model(cfg: dict[str, Any]):
    cls = {1: PowerLawModel, 2: GaussianDecayModel}.get(cfg["model"])
    if cls is None:
        raise ConfigError(f"model must be 1 or 2, got {cfg['model']}")
    try:
        return cls(n=cfg["n"], alpha=cfg["alpha"], beta=cfg["beta"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_rule(cfg: dict[str, Any]) -> ConditioningRule:
    try:
        return ConditioningRule(cfg["rule"])
    except ValueError:
        raise ConfigError(f"rule must be min, max, or additive, got {cfg['rule']!r}") from None


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def _header(command: str, cfg: dict[str, Any]) -> list[str]:
    pairs = " ".join(f"{k}={_fmt(v)}" for k, v in cfg.items())
    return [f"# bitgather {command} {pairs}"]


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_bits(cfg: dict[str, Any]) -> list[str]:
    model = _build_model(cfg)
    topo = load_topology(cfg["topology"])
    lines = _header("bits", cfg)
    for i in range(topo.size):
        lines.append(
            ",".join(
                str(pairwise_bits(model, topo.distance(i, j)))
                for j in range(topo.size)
            )
        )
    return lines


def _cmd_sweep(cfg: dict[str, Any]) -> list[str]:
    model = _build_model(cfg)
    if cfg["d_step"] <= 0:
        raise ConfigError("d_step must be positive")
    lines = _header("sweep", cfg) + ["d\tbudget"]
    k = 0
    while True:
        d = cfg["d_min"] + k * cfg["d_step"]
        if d > cfg["d_max"] + 1e-12:
            break
        lines.append(f"{d:.6g}\t{pairwise_bits(model, d)}")
        k += 1
    return lines


def _report_lines(order: Sequence[int], report) -> list[str]:
    lines = [f"# order={'-'.join(str(v) for v in order)}", f"# total={report.total}"]
    lines.append("position,node,bits")
    for pos, (node, bits) in enumerate(report.per_node):
        lines.append(f"{pos},{node},{bits}")
    return lines


def _cmd_evaluate(cfg: dict[str, Any]) -> list[str]:
    model = _build_model(cfg)
    rule = _build_rule(cfg)
    topo = load_topology(cfg["topology"])
    report = evaluate(model, rule, topo, cfg["order"])
    return _header("evaluate", cfg) + _report_lines(cfg["order"], report)


def _cmd_optimize(cfg: dict[str, Any]) -> list[str]:
    model = _build_model(cfg)
    rule = _build_rule(cfg)
    topo = load_topology(cfg["topology"])
    order, report = optimize(
        model,
        rule,
        topo,
        objective=cfg["objective"],
        strategy=cfg["strategy"],
        count=cfg["restarts"],
        seed=cfg["seed"],
        force=cfg["force_greedy"],
    )
    return _header("optimize", cfg) + _report_lines(order, report)


def _cmd_simulate(cfg: dict[str, Any]) -> list[str]:
    model = _build_model(cfg)
    rule = _build_rule(cfg)
    topo = load_topology(cfg["topology"])
    order = cfg["order"]
    if order == "identity":
        order = list(range(topo.size))
        cfg = dict(cfg, order=order)
    rows = fidelity_sweep(model, rule, topo, order, cfg["smoothness"], cfg["seeds"])
    lines = _header("simulate", cfg) + ["L\tseed\ttotal_bits\texact_count\tmax_abs_error"]
    for smoothness, seed, total, exact, err in rows:
        lines.append(f"{smoothness:.6g}\t{seed}\t{total}\t{exact}\t{err}")
    return lines


def _cmd_stats(cfg: dict[str, Any]) -> list[str]:
    model = _build_model(cfg)
    rule = _build_rule(cfg)
    topo = load_topology(cfg["topology"])
    if cfg["mode"] not in ("exhaustive", "sampled"):
        raise ConfigError(f"mode must be exhaustive or sampled, got {cfg['mode']!r}")
    stats = schedule_stats(
        model,
        rule,
        topo,
        cfg["mode"],
        count=cfg["samples"],
        seed=cfg["seed"],
        workers=cfg["workers"],
    )
    lines = _header("stats", cfg) + ["metric,value"]
    lines.append(f"mean_total,{stats.mean_total!r}")
    lines.append(f"min_total,{stats.min_total}")
    lines.append(f"max_total,{stats.max_total}")
    lines.append(f"argmin,{'-'.join(str(v) for v in stats.argmin)}")
    lines.append(f"argmax,{'-'.join(str(v) for v in stats.argmax)}")
    lines.append(f"sample_count,{stats.sample_count}")
    lines.append(f"exhaustive,{_fmt(stats.exhaustive)}")
    return lines


_COMMANDS = {
    "bits": _cmd_bits,
    "sweep": _cmd_sweep,
    "evaluate": _cmd_evaluate,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
}

_HELP = {
    "bits": "pairwise budget matrix (CSV) for a topology",
    "sweep": "distance-vs-budget table (TSV) for plotting the model curve",
    "evaluate": "per-node budgets and total bits for one polling order",
    "optimize": "search for a best polling order",
    "simulate": "generate fields, gather, and report fidelity (TSV)",
    "stats": "min/mean/max total bits over schedules",
}

_FLAG_HELP = {
    "topology": "path to id,x,y placement file",
    "model": "1 = power-law staircase, 2 = Gaussian decay",
    "n": "bits per reading",
    "alpha": "model scale parameter (alpha1 or alpha2)",
    "beta": "model exponent parameter (beta1 or beta2)",
    "rule": "conditioning rule: min, max, or additive",
    "order": "comma-separated polling order, e.g. 0,2,1",
    "smoothness": "comma-separated field smoothness values (L)",
    "seeds": "comma-separated field seeds",
    "seed": "seed for sampled/randomized search",
    "mode": "exhaustive or sampled",
    "samples": "number of sampled schedules",
    "workers": "parallel evaluation workers (output independent of this)",
    "objective": "minimize or maximize",
    "strategy": "brute_force, greedy_prim, or random_restart",
    "restarts": "restarts for random_restart",
    "force_greedy": "run greedy_prim as a heuristic outside its exact regime",
    "d_min": "sweep start distance",
    "d_max": "sweep end distance",
    "d_step": "sweep step (must be positive)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitgather",
        description="Bit-budget models, schedule search, and gathering simulation "
        "for correlated sensor fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=_HELP[command])
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--out", help="write output to this path instead of stdout")
        for name, conv, _default in options:
            flag = "--" + name.replace("_", "-")
            if conv is _bool:
                p.add_argument(
                    flag, dest=name, action="store_const", const=True, default=None,
                    help=_FLAG_HELP.get(name),
                )
            else:
                p.add_argument(
                    flag, dest=name, type=conv, default=None, help=_FLAG_HELP.get(name)
                )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args.command, args)
        lines = _COMMANDS[args.command](cfg)
        _emit(lines, args.out)
    except (ConfigError, ValueError) as exc:
        if isinstance(exc, TopologyError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
