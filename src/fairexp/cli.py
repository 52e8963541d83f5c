"""Command-line interface: run one experiment, sweep hyperparameters, or
evaluate a saved checkpoint.

Configuration can come from a plain-text ``key=value`` file (one pair per
line, ``#`` comments); command-line flags override file values.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .data import SyntheticSpec, load_svmlight, assign_groups
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    evaluate_offline,
    holdout_view,
    run_experiment,
    sweep,
)
from .ranker import load_checkpoint

_SYNTHETIC_KEYS = {
    "n_queries": int,
    "docs_per_query": int,
    "d": int,
    "group_balance": float,
    "grade_noise": float,
    "seed": int,
    "theta_norm": float,
}

_CONFIG_KEYS = {
    "algorithm": str,
    "dataset_dir": str,
    "group_feature": int,
    "group_strategy": str,
    "group_threshold": float,
    "n_validation": int,
    "n_test": int,
    "click_model": str,
    "rounds": int,
    "k": int,
    "lam": float,
    "alpha": float,
    "delta": float,
    "epsilon": float,
    "gamma": float,
    "lambda_f": float,
    "exposure_kind": str,
    "exposure_table": str,
    "seed": int,
    "out_dir": str,
    "respect_certain": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "diagnostics": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "eval_stride": int,
    "minmax": lambda s: s.lower() in ("1", "true", "yes", "on"),
}


def parse_config_file(path: str | Path) -> dict:
    """Read key=value lines into a typed mapping."""
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
            synthetic[sub] = _SYNTHETIC_KEYS[sub](value)
        elif key == "beta":
            values["beta"] = value if value == "auto" else float(value)
        elif key == "custom_clicks":
            values["custom_clicks"] = tuple(float(v) for v in value.split(","))
        elif key in _CONFIG_KEYS:
            values[key] = _CONFIG_KEYS[key](value)
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if synthetic:
        values["synthetic"] = SyntheticSpec(**synthetic)
    return values


def parse_synthetic_flag(text: str) -> SyntheticSpec:
    """Parse 'n_queries=40,docs_per_query=12,d=8,...' into a spec."""
    kwargs = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _SYNTHETIC_KEYS:
            raise ValueError(f"unknown synthetic key {key!r}")
        kwargs[key] = _SYNTHETIC_KEYS[key](value.strip())
    return SyntheticSpec(**kwargs)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--algo", choices=ALGORITHMS, dest="algorithm")
    parser.add_argument("--dataset", dest="dataset_dir", help="directory with train/vali/test.txt")
    parser.add_argument("--group-feature", type=int, dest="group_feature")
    parser.add_argument("--synthetic", help="synthetic spec, e.g. n_queries=40,docs_per_query=12,d=8")
    parser.add_argument("--click-model", dest="click_model")
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--beta")
    parser.add_argument("--lambda", type=float, dest="lam")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--lambda-f", type=float, dest="lambda_f")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--exposure", dest="exposure_kind")
    parser.add_argument("--exposure-table", dest="exposure_table")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument("--eval-stride", type=int, dest="eval_stride")
    parser.add_argument("--no-heuristic", action="store_true", help="disable within-block certain-order heuristic")
    parser.add_argument("--diagnostics", action="store_true", help="write fairswap.log")
    parser.add_argument("--minmax", action="store_true", help="min-max scale features per dimension")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in (
        "algorithm",
        "dataset_dir",
        "group_feature",
        "click_model",
        "rounds",
        "k",
        "epsilon",
        "lam",
        "alpha",
        "gamma",
        "lambda_f",
        "delta",
        "exposure_kind",
        "exposure_table",
        "seed",
        "out_dir",
        "eval_stride",
    ):
        value = getattr(args, key, None)
        if value is not None:
            values[key] = value
    if args.beta is not None:
        values["beta"] = args.beta if args.beta == "auto" else float(args.beta)
    if args.synthetic:
        values["synthetic"] = parse_synthetic_flag(args.synthetic)
    if args.no_heuristic:
        values["respect_certain"] = False
    if args.diagnostics:
        values["diagnostics"] = True
    if args.minmax:
        values["minmax"] = True
    if values.get("epsilon") is not None and math.isinf(values["epsilon"]):
        values["epsilon"] = float("inf")
    config = ExperimentConfig(**values)
    config.validate()
    return config


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
    eval_p.add_argument("--group-feature", type=int, default=None)

    args = parser.parse_args(argv)

    if args.command == "run":
        config = build_config(args)
        result = run_experiment(config)
        for key, value in result.summary.items():
            print(f"{key}={value}")
        if config.out_dir:
            print(f"outputs written to {config.out_dir}")
        return 0

    if args.command == "sweep":
        config = build_config(args)
        (best_params, best_ndcg), results = sweep(config, workers=args.workers)
        for params, ndcg in results:
            print(f"params={params} validation_ndcg10={ndcg:.6f}")
        print(f"best={best_params} validation_ndcg10={best_ndcg:.6f}")
        if config.out_dir:
            out = Path(config.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            lines = ["# fairexp-sweep v1"]
            lines += [f"{params} {ndcg:.10g}" for params, ndcg in results]
            lines.append(f"best {best_params} {best_ndcg:.10g}")
            (out / "sweep_results.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return 0

    if args.command == "eval":
        state = load_checkpoint(args.checkpoint)
        test = load_svmlight(args.test_file, split="test")
        if args.group_feature is not None:
            assign_groups(test, args.group_feature)
        print(f"offline_ndcg10={evaluate_offline(state, holdout_view(test)):.6f}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
