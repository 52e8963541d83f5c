"""Command-line interface: run one experiment, sweep hyperparameters, or
evaluate a saved checkpoint.

Configuration can come from a plain-text ``key=value`` file (one pair per
line, ``#`` comments); command-line flags override file values.

Bad input (a config value, a dataset or checkpoint that does not load)
ends the command with one ``fairexp <command>: error: <message>`` line on
stderr and exit status 2, before any round runs. For ``run`` and ``sweep``
the checks are ``harness.prepare_run``, the one boundary between a config
and the round loop, which library callers of ``run_experiment`` and
``sweep`` pass through too. Errors raised inside the round loop propagate
with their traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .data import SyntheticSpec, load_svmlight
from .metrics import format_value
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    check_sweep,
    evaluate_offline,
    holdout_view,
    prepare_run,
    run_prepared,
    sweep_prepared,
)
from .ranker import DimensionError, load_checkpoint


_BOOLEANS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}") from None


def _parse_beta(text: str) -> float | str:
    return text if text == "auto" else float(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


_TYPE_PARSERS = {bool: _parse_bool, int: int, float: float, str: str}


def _key_parsers(cls, special: dict) -> dict:
    """One parser per dataclass field: ``special`` ones by name, the rest by
    field type (the non-None member of ``X | None``)."""
    hints = get_type_hints(cls)
    parsers = {}
    for f in fields(cls):
        members = [t for t in get_args(hints[f.name]) if t is not type(None)] or [hints[f.name]]
        parsers[f.name] = special[f.name] if f.name in special else _TYPE_PARSERS[members[0]]
    return parsers


_SYNTHETIC_KEYS = _key_parsers(SyntheticSpec, {})


def _missing_synthetic_keys(given) -> list[str]:
    return [f.name for f in fields(SyntheticSpec) if f.default is MISSING and f.name not in given]


def parse_synthetic_flag(text: str) -> SyntheticSpec:
    """Parse 'n_queries=40,docs_per_query=12,d=8,...' into a spec.

    An unknown key, a value that does not parse (named with its key) and
    missing required keys raise ``ValueError``."""
    kwargs = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _SYNTHETIC_KEYS:
            raise ValueError(f"unknown synthetic key {key!r}")
        try:
            kwargs[key] = _SYNTHETIC_KEYS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    missing = _missing_synthetic_keys(kwargs)
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return SyntheticSpec(**kwargs)


# the --synthetic flag is kept as text for build_config to parse, so that a
# bad spec ends in one error line rather than argparse's usage block
_CONFIG_KEYS = _key_parsers(
    ExperimentConfig,
    {"beta": _parse_beta, "custom_clicks": _parse_floats, "synthetic": str},
)


def parse_config_file(path: str | Path) -> dict:
    """Read key=value lines into a typed mapping.

    Keys are the ``ExperimentConfig`` field names, except that the synthetic
    spec is written one ``synthetic.<field>`` line per field. A value that
    does not parse raises ``ValueError`` naming the file, line and key, and
    a spec without a required field one naming the file and missing keys.
    """
    values: dict = {}
    synthetic: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("synthetic."):
            sub = key[len("synthetic.") :]
            if sub not in _SYNTHETIC_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown synthetic key {sub!r}")
            target, name, parse = synthetic, sub, _SYNTHETIC_KEYS[sub]
        elif key in _CONFIG_KEYS and key != "synthetic":
            target, name, parse = values, key, _CONFIG_KEYS[key]
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            target[name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    if synthetic:
        missing = _missing_synthetic_keys(synthetic)
        if missing:
            raise ValueError(f"{path}: missing {', '.join('synthetic.' + m for m in missing)}")
        values["synthetic"] = SyntheticSpec(**synthetic)
    return values


# (flag, config field, extra add_argument keywords) of every flag that takes a value
_VALUE_FLAGS = (
    ("--algo", "algorithm", {"choices": ALGORITHMS}),
    ("--dataset", "dataset_dir", {"help": "directory with train/vali/test.txt"}),
    ("--group-feature", "group_feature", {}),
    ("--synthetic", "synthetic", {"help": "synthetic spec, e.g. n_queries=40,docs_per_query=12,d=8"}),
    ("--click-model", "click_model", {}),
    ("--rounds", "rounds", {}),
    ("--k", "k", {}),
    ("--epsilon", "epsilon", {}),
    ("--beta", "beta", {}),
    ("--lambda", "lam", {}),
    ("--alpha", "alpha", {}),
    ("--gamma", "gamma", {}),
    ("--lambda-f", "lambda_f", {}),
    ("--exposure", "exposure_kind", {}),
    ("--exposure-table", "exposure_table", {}),
    ("--seed", "seed", {}),
    ("--out", "out_dir", {}),
    ("--eval-stride", "eval_stride", {}),
)
# (flag, config field, value set, help) of every flag that takes no value
_SWITCHES = (
    ("--no-heuristic", "respect_certain", False, "disable within-block certain-order heuristic"),
    ("--diagnostics", "diagnostics", True, "write fairswap.log"),
    ("--minmax", "minmax", True, "min-max scale features per dimension"),
)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    for flag, dest, extra in _VALUE_FLAGS:
        parser.add_argument(flag, dest=dest, type=_CONFIG_KEYS[dest], default=None, **extra)
    for flag, dest, const, help_text in _SWITCHES:
        parser.add_argument(flag, dest=dest, action="store_const", const=const, help=help_text)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """File values, overridden by every flag given; then validated."""
    values = parse_config_file(args.config) if args.config else {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            values[f.name] = value
    if getattr(args, "synthetic", None) is not None:
        try:
            values["synthetic"] = parse_synthetic_flag(args.synthetic)
        except ValueError as exc:
            raise ValueError(f"--synthetic: {exc}") from None
    config = ExperimentConfig(**values)
    config.validate()
    return config


# what bad input raises: config and parse errors are ValueErrors, a missing
# or unreadable file an OSError
_INPUT_ERRORS = (ValueError, OSError)


def _error(command: str, message) -> int:
    print(f"fairexp {command}: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fairexp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_common_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="grid-search hyperparameters on validation NDCG")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--workers", type=int, default=1)

    eval_p = sub.add_parser("eval", help="offline NDCG@10 of a checkpoint on a test file")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--test-file", required=True)

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            config = build_config(args)
            inputs = prepare_run(config)[0]  # a run keeps no validation split
        except _INPUT_ERRORS as exc:
            return _error("run", exc)
        result = run_prepared(inputs)
        for key, value in result.summary.items():
            print(f"{key}={format_value(value)}")
        if config.out_dir:
            print(f"outputs written to {config.out_dir}")
        return 0

    if args.command == "sweep":
        if args.workers < 1:
            return _error("sweep", f"--workers must be >= 1, got {args.workers}")
        try:
            config = build_config(args)
            check_sweep(config)
            inputs, valid = prepare_run(config)
        except _INPUT_ERRORS as exc:
            return _error("sweep", exc)
        (best_params, best_ndcg), results = sweep_prepared(inputs, valid, args.workers)
        for params, ndcg in results:
            print(f"params={params} validation_ndcg10={ndcg:.6f}")
        print(f"best={best_params} validation_ndcg10={best_ndcg:.6f}")
        if config.out_dir:
            out = Path(config.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            lines = ["# fairexp-sweep v1"]
            lines += [f"{params} {format_value(ndcg)}" for params, ndcg in results]
            lines.append(f"best {best_params} {format_value(best_ndcg)}")
            (out / "sweep_results.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return 0

    if args.command == "eval":
        try:
            state = load_checkpoint(args.checkpoint)
        except _INPUT_ERRORS as exc:
            return _error("eval", f"{args.checkpoint}: {exc}")
        try:
            test = load_svmlight(args.test_file, split="test")
        except _INPUT_ERRORS as exc:
            return _error("eval", exc)
        try:
            ndcg = evaluate_offline(state, holdout_view(test))
        except DimensionError as exc:
            return _error("eval", f"{args.test_file} does not fit the checkpoint: {exc}")
        print(f"offline_ndcg10={ndcg:.6f}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
