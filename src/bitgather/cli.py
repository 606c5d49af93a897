"""Command-line front end: reproducible, scriptable runs.

Subcommands: bits, sweep, evaluate, optimize, simulate, stats. One table,
_COMMANDS, declares each: its handler, its help line and its option rows
(name, converter, default, help); the parser and the config reader read only
that. Options can come from a flat key=value config file (--config);
command-line flags win. main then builds the model, the rule and the
topology (each for the commands that take it), calls the handler and puts
the fully resolved configuration above its output as a comment line, so
any output file documents how to regenerate itself. All randomness flows
from explicit seeds; nothing reads the clock.

Exit codes: 0 success (also when stdout's reader closes early), 2
configuration error, 3 input/output error, 4 infeasible request (e.g.
exhaustive enumeration on a large topology). The topology is read before
any request is judged feasible, so an unreadable topology exits 3, never 4.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import shlex
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .correlation import (
    ConditioningRule,
    GaussianDecayModel,
    PowerLawModel,
    pairwise_bits,
)
from .schedule import SAMPLE_LIMIT, InfeasibleError, evaluate, mirrored, optimize, pair_tails, schedule_stats
from .simulator import fidelity_sweep
from .topology import TopologyError, load_topology

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
SWEEP_ROW_LIMIT = 10**6
SIMULATE_WIDTH_LIMIT = 2**16  # simulate holds every n-bit reading in memory


class ConfigError(ValueError):
    pass


def _list_of(conv: Callable[[str], Any], what: str) -> Callable[[str], list]:
    def parse(text: str) -> list:
        try:
            return [conv(part) for part in text.split(",") if part.strip() != ""]
        except ValueError:  # argparse shows this message, not the function name
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from None

    return parse


_int_list = _list_of(int, "integers")
_float_list = _list_of(float, "numbers")


def _bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")


# (name, converter, default, help); default None means required
_Option = tuple[str, Callable[[str], Any], Any, str]
_TOPOLOGY: _Option = ("topology", str, None, "path to id,x,y placement file")
_MODEL: list[_Option] = [
    ("model", int, 1, "1 = power-law staircase, 2 = Gaussian decay"),
    ("n", int, 5, f"bits per reading (at most 2**53; simulate: at most {SIMULATE_WIDTH_LIMIT})"),
    ("alpha", float, 1.0, "model scale parameter (alpha1 or alpha2)"),
    ("beta", float, 1.0, "model exponent parameter (beta1 or beta2)"),
]
_RULE: _Option = ("rule", str, "min", "conditioning rule: min, max, or additive")
_RULED = [_TOPOLOGY, *_MODEL, _RULE]  # how every command that takes --rule begins
_SEED: _Option = ("seed", int, 0, "seed for sampled/randomized search")


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    options = _COMMANDS[command][2]
    cfg = _read_config(args.config) if args.config else {}
    unknown = set(cfg) - {name for name, *_ in options}
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    resolved = {}
    for name, conv, default, _help in options:
        cli_value = getattr(args, name)
        if cli_value is not None:
            resolved[name] = cli_value
        elif name in cfg:
            try:
                resolved[name] = conv(cfg[name])
            except (ValueError, argparse.ArgumentTypeError) as exc:  # naming the text it refused
                raise ConfigError(f"config key {name}: {exc}") from None
        elif default is None:
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


def _header(command: str, cfg: dict[str, Any]) -> str:
    # shell-quoted, so a value with a space still reads back as one word
    words = (f"{k}={shlex.quote(_fmt(v))}" for k, v in cfg.items())
    return f"# bitgather {command} " + " ".join(words)


def _emit(header: str, lines: Iterable[str], out: str | None) -> None:
    """Writes each line as `lines` gives it; `out` is opened only now, once
    the handler that made `lines` has returned with every check done."""
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _cmd_bits(cfg: dict[str, Any], model, topo) -> Iterator[str]:
    # each distinct budget's text is made once; every error is raised here
    tails = pair_tails(model, ConditioningRule.MIN, topo, functools.cache(str))
    return map(",".join, mirrored(tails, topo.size, "0"))


def _cmd_sweep(cfg: dict[str, Any], model) -> list[str]:
    d_min, d_max, d_step = cfg["d_min"], cfg["d_max"], cfg["d_step"]
    for name in ("d_min", "d_max", "d_step"):
        if not math.isfinite(cfg[name]):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {cfg[name]!r}")
    if d_step <= 0:
        raise ConfigError("--d-step must be positive")
    # rows - 1, up to rounding; may be +-inf when the span overflows
    steps = (d_max + 1e-12 - d_min) / d_step
    if steps >= SWEEP_ROW_LIMIT:
        raise InfeasibleError(f"sweep refused: more than {SWEEP_ROW_LIMIT} rows")
    lines = ["d\tbudget"]
    # capped, and rows whose distance did not grow are skipped, because
    # d_min + k * d_step can stall where d_step is below d_min's precision
    last, last_text = -math.inf, ""
    for k in range(int(max(steps, 0.0)) + 2):
        d = d_min + k * d_step
        if d > d_max + 1e-12:
            break
        if d > last:
            text = f"{d:.6g}"
            # a distance that .6g cannot tell from the row before prints in full
            shown = repr(d) if text == last_text else text
            lines.append(f"{shown}\t{pairwise_bits(model, d)}")
            last, last_text = d, text
    return lines


def _report_lines(order: Sequence[int], report) -> list[str]:
    lines = [f"# order={'-'.join(str(v) for v in order)}", f"# total={report.total}"]
    lines.append("position,node,bits")
    for pos, (node, bits) in enumerate(report.per_node):
        lines.append(f"{pos},{node},{bits}")
    return lines


def _cmd_evaluate(cfg: dict[str, Any], model, rule: ConditioningRule, topo) -> list[str]:
    return _report_lines(cfg["order"], evaluate(model, rule, topo, cfg["order"]))


def _cmd_optimize(cfg: dict[str, Any], model, rule: ConditioningRule, topo) -> list[str]:
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
    return _report_lines(order, report)


def _cmd_simulate(cfg: dict[str, Any], model, rule: ConditioningRule, topo) -> list[str]:
    if model.n > SIMULATE_WIDTH_LIMIT:
        raise InfeasibleError(f"simulate refused: n above {SIMULATE_WIDTH_LIMIT} bits per reading")
    if cfg["order"] == "identity":  # in place, so the header echoes the full order
        cfg["order"] = list(range(topo.size))
    rows = fidelity_sweep(model, rule, topo, cfg["order"], cfg["smoothness"], cfg["seeds"])
    lines = ["L\tseed\ttotal_bits\texact_count\tmax_abs_error"]
    for smoothness, seed, total, exact, err in rows:
        lines.append(f"{smoothness:.6g}\t{seed}\t{total}\t{exact}\t{err}")
    return lines


def _cmd_stats(cfg: dict[str, Any], model, rule: ConditioningRule, topo) -> list[str]:
    stats = schedule_stats(
        model, rule, topo, cfg["mode"], count=cfg["samples"], seed=cfg["seed"]
    )
    lines = ["metric,value"]
    for name, value in zip(stats._fields, stats):
        lines.append(f"{name},{'-'.join(map(str, value)) if isinstance(value, tuple) else _fmt(value)}")
    return lines


# command -> (handler, help line, options in the order the header echoes them)
_COMMANDS: dict[str, tuple[Callable[..., Iterable[str]], str, list[_Option]]] = {
    "bits": (_cmd_bits, "pairwise budget matrix (CSV) for a topology", [_TOPOLOGY, *_MODEL]),
    "sweep": (_cmd_sweep, "distance-vs-budget table (TSV) for plotting the model curve", [
        *_MODEL,
        ("d_min", float, 0.0, "sweep start distance (finite)"),
        ("d_max", float, 8.0, "sweep end distance (finite)"),
        ("d_step", float, 0.1, f"sweep step (finite, positive; at most {SWEEP_ROW_LIMIT} rows)"),
    ]),
    "evaluate": (_cmd_evaluate, "per-node budgets and total bits for one polling order", [
        *_RULED,
        ("order", _int_list, None, "comma-separated polling order, e.g. 0,2,1"),
    ]),
    "optimize": (_cmd_optimize, "search for a best polling order", [
        *_RULED,
        ("objective", str, "minimize", "minimize or maximize"),
        ("strategy", str, "brute_force", "brute_force, greedy_prim, or random_restart"),
        ("restarts", int, 100, f"restarts for random_restart (at most {SAMPLE_LIMIT})"),
        _SEED,
        ("force_greedy", _bool, False, "run greedy_prim as a heuristic outside its exact regime"),
    ]),
    "simulate": (_cmd_simulate, "generate fields, gather, and report fidelity (TSV)", [
        *_RULED,
        ("order", _int_list, "identity", "comma-separated polling order, e.g. 0,2,1"),
        ("smoothness", _float_list, [0.0], "comma-separated field smoothness values (L)"),
        ("seeds", _int_list, [0], "comma-separated field seeds"),
    ]),
    "stats": (_cmd_stats, "min/mean/max total bits over schedules", [
        *_RULED,
        ("mode", str, "sampled", "exhaustive or sampled"),
        ("samples", int, 1000, f"number of sampled schedules (at most {SAMPLE_LIMIT})"),
        _SEED,
        ("workers", int, 1, "accepted and ignored: sampled stats run serially"),
    ]),
}


@functools.cache  # built on first use, then reused: parsing leaves it unchanged
def _build_parser() -> tuple[argparse.ArgumentParser, frozenset[str]]:
    """The parser, and the flags that take a value (for _glued)."""
    parser = argparse.ArgumentParser(
        prog="bitgather",
        description="Bit-budget models, schedule search, and gathering simulation "
        "for correlated sensor fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    valued = {"--config", "--out"}
    for command, (_handler, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--out", help="write output to this path instead of stdout")
        for name, conv, _default, help_text in options:
            # a boolean flag takes no value; every flag defaults to None, "not given"
            how = {"action": "store_const", "const": True} if conv is _bool else {"type": conv}
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, default=None, help=help_text, **how)
            if conv is not _bool:
                valued.add(flag)
    return parser, frozenset(valued)


def _glued(argv: Sequence[str], valued: frozenset[str]) -> list[str]:
    """argv with each negative number, or comma list of numbers, that
    follows a flag in `valued` joined to it, --beta -1e-3 as --beta=-1e-3
    and --seeds -1,2 as --seeds=-1,2: argparse reads such a word as a flag
    of its own where its negative-number pattern, which differs between
    Python releases, does not match it (an exponent, inf, nan or a comma)."""
    words: list[str] = []
    for text in argv:
        if words and words[-1] in valued and text.startswith("-"):
            with contextlib.suppress(ValueError):  # raised by a word that is no number list
                [float(part) for part in text.split(",") if part.strip() != ""]  # parts as _list_of reads them
                words[-1] += "=" + text
                continue
        words.append(text)
    return words


def main(argv: Sequence[str] | None = None) -> int:
    parser, valued = _build_parser()
    args = parser.parse_args(_glued(sys.argv[1:] if argv is None else argv, valued))
    try:
        cfg = _resolve(args.command, args)
        model = _build_model(cfg)
        built = (model, _build_rule(cfg)) if "rule" in cfg else (model,)
        topo = (load_topology(cfg["topology"]),) if "topology" in cfg else ()
        lines = _COMMANDS[args.command][0](cfg, *built, *topo)
        _emit(_header(args.command, cfg), lines, args.out)
    except BrokenPipeError:  # the reader closed early (`bits | head -1`): stop quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush cannot fail
        return EXIT_OK
    except (ValueError, InfeasibleError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (TopologyError, OSError)):
            return EXIT_IO
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleError) else EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
