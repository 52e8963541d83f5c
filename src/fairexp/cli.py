"""Command-line interface: run one experiment, sweep hyperparameters, or
evaluate a saved checkpoint.

Configuration can come from a plain-text ``key=value`` file (one pair per
line, ``#`` comments, each key at most once); command-line flags override
file values. File lines, flags and ``--synthetic`` items share one reader.

Bad input (a config value, a dataset or checkpoint that does not load)
ends the command with one ``fairexp <command>: error: <message>`` line on
stderr and exit status 2, before any round runs; a setting that does not
parse, is unknown or repeats a key names its place first: ``path:line:``,
``--flag:`` or ``--synthetic:``. For ``run`` and ``sweep``
the checks are ``harness.prepare_run``, the one boundary between a config
and the round loop, which library callers of ``run_experiment`` and
``sweep`` pass through too. Errors raised inside the round loop propagate
with their traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path
from typing import get_args, get_type_hints

from .data import SyntheticSpec, load_svmlight, minmax_scale, read_number, widen
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


# numbers read as data files read them: no ``_`` separators, ASCII digits only
_parse_int, _parse_float = partial(read_number, int), partial(read_number, float)


def _parse_beta(text: str) -> float | str:
    return text if text == "auto" else _parse_float(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(map(_parse_float, text.split(",")))


_TYPE_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float, str: str}


def _key_parsers(cls, special: dict) -> dict:
    """One parser per dataclass field: ``special`` ones by name, the rest by
    field type (the non-None member of ``X | None``)."""
    hints = get_type_hints(cls)
    parsers = {}
    for f in fields(cls):
        members = [t for t in get_args(hints[f.name]) if t is not type(None)] or [hints[f.name]]
        parsers[f.name] = special[f.name] if f.name in special else _TYPE_PARSERS[members[0]]
    return parsers


def _read(items, parsers: dict, noun: str = "key") -> dict:
    """Parse ``(at, key, text)`` items into ``{key: value}``, one parser per
    key. An unknown key, a value its parser refuses and a key given twice
    raise one ``ValueError`` that starts with ``at``: ``"path:line: "`` for
    a config line, empty for a flag (whose key is the flag itself) or a
    ``--synthetic`` item (the flag's own read prefixes its error)."""
    values, first = {}, {}
    for at, key, text in items:
        if key not in parsers:
            raise ValueError(f"{at}unknown {noun} {key!r}")
        if key in first:
            raise ValueError(f"{at}{key}: given twice ({first[key]} and {at}{key}={text})")
        first[key] = f"{at}{key}={text}"
        try:
            values[key] = parsers[key](text)
        except ValueError as exc:
            raise ValueError(f"{at}{key}: {exc}") from None
    return values


def _synthetic_spec(values: dict, at: str = "", prefix: str = "") -> SyntheticSpec:
    """Pop the ``prefix + <field>`` entries of ``values`` into a spec; a
    missing required field raises ``ValueError`` starting with ``at``."""
    spec = {key[len(prefix) :]: values.pop(key) for key in list(values) if key.startswith(prefix)}
    missing = [f.name for f in fields(SyntheticSpec) if f.default is MISSING and f.name not in spec]
    if missing:
        raise ValueError(f"{at}missing {', '.join(prefix + name for name in missing)}")
    return SyntheticSpec(**spec)


def parse_synthetic_flag(text: str) -> SyntheticSpec:
    """Parse 'n_queries=40,docs_per_query=12,d=8,...' into a spec.

    An unknown key, a value that does not parse or a key given twice (each
    named with its key) and missing required keys raise ``ValueError``."""
    pairs = [pair.partition("=") for pair in text.split(",")]
    items = [("", key.strip(), value.strip()) for key, _, value in pairs]
    return _synthetic_spec(_read(items, _SYNTHETIC_KEYS, "synthetic key"))


_SYNTHETIC_KEYS = _key_parsers(SyntheticSpec, {})
_CONFIG_KEYS = _key_parsers(
    ExperimentConfig,
    {"beta": _parse_beta, "custom_clicks": _parse_floats, "synthetic": parse_synthetic_flag},
)
# a config file writes the synthetic spec one synthetic.<field> line per field
_FILE_KEYS = {key: parse for key, parse in _CONFIG_KEYS.items() if key != "synthetic"}
_FILE_KEYS.update({f"synthetic.{key}": parse for key, parse in _SYNTHETIC_KEYS.items()})


def parse_config_file(path: str | Path) -> dict:
    """Read key=value lines into a typed mapping.

    Keys are the ``ExperimentConfig`` field names, except that the synthetic
    spec is written one ``synthetic.<field>`` line per field. A value that
    does not parse and an unknown or repeated key raise ``ValueError`` naming
    the file, line and key, a spec without a required field one naming the
    file and missing keys, and a file that is not UTF-8 one naming the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    items = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        items.append((f"{path}:{lineno}: ", key.strip(), value.strip()))
    values = _read(items, _FILE_KEYS)
    if any(key.startswith("synthetic.") for key in values):
        values["synthetic"] = _synthetic_spec(values, f"{path}: ", "synthetic.")
    return values


def _switch(const: str, help_text: str) -> dict:
    return {"action": "store_const", "const": const, "help": help_text}


# (flag, config field, extra add_argument keywords) of every flag; each stores text
# for build_config to parse, so a bad value is one error line, not argparse's usage
_FLAGS = (
    ("--algo", "algorithm", {"help": f"one of {', '.join(ALGORITHMS)}"}),
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
    ("--no-heuristic", "respect_certain", _switch("off", "disable within-block certain-order heuristic")),
    ("--diagnostics", "diagnostics", _switch("on", "write fairswap.log")),
    ("--minmax", "minmax", _switch("on", "min-max scale features per dimension")),
)
_FLAG_KEYS = {flag: _CONFIG_KEYS[dest] for flag, dest, _ in _FLAGS}


def _negative_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return text.startswith("-")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write each ``--flag`` followed by a negative number as ``--flag=value``.

    argparse reads ``-1`` and ``-.5`` as values but ``-inf`` and ``-1e-3``
    as unknown flags, which ends in its usage block instead of the value's
    own check; the joined form reaches that check on every Python version,
    abbreviated flags included.
    """
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if flag.startswith("--") and "=" not in flag and _negative_number(token):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    for flag, dest, extra in _FLAGS:
        parser.add_argument(flag, dest=dest, default=None, **extra)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """File values, overridden by every flag given; then validated."""
    values = parse_config_file(args.config) if args.config else {}
    given = [(flag, dest) for flag, dest, _ in _FLAGS if getattr(args, dest) is not None]
    parsed = _read([("", flag, getattr(args, dest)) for flag, dest in given], _FLAG_KEYS)
    values.update({dest: parsed[flag] for flag, dest in given})
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
    sweep_p.add_argument("--workers", default="1")

    eval_p = sub.add_parser("eval", help="offline NDCG@10 of a checkpoint on a test file")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--test-file", required=True)

    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))

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
        try:
            workers = _read([("", "--workers", args.workers)], {"--workers": _parse_int})
            workers = workers["--workers"]
            if workers < 1:
                raise ValueError(f"--workers must be >= 1, got {workers}")
            config = build_config(args)
            check_sweep(config)
            inputs, valid = prepare_run(config)
        except _INPUT_ERRORS as exc:
            return _error("sweep", exc)
        (best_params, best_ndcg), results = sweep_prepared(inputs, valid, workers)
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
            # a split that never mentions the last feature ids parses narrower
            widen(test, max(test.dimension, state.d))
            # a run with --minmax scored features scaled by the train split's
            # bounds; a wider file fails in evaluate_offline
            if state.minmax_bounds is not None and test.dimension == state.d:
                minmax_scale(test, state.minmax_bounds)
            ndcg = evaluate_offline(state, holdout_view(test))
        except DimensionError as exc:
            return _error("eval", f"{args.test_file} does not fit the checkpoint: {exc}")
        print(f"offline_ndcg10={ndcg:.6f}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
