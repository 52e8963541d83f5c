"""Round-loop benchmark for fairexp.

Usage, from the root of a checkout::

    python3 bench/run.py --workload paper_default --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Every experiment runs in a fresh worker process (``bench/worker.py``), one
after another, so no import state or template cache carries over between
runs. A timed invocation repeats the workload's experiment, generated from
``--seed``, until ``--seconds`` have passed, and reports figures pooled
over all its runs (see README.md for each metric):

* ``--trace 0``: the end-to-end metrics of untraced runs;
* ``--trace 1``: alternating untraced and traced runs, and the per-layer
  metrics of the traced ones plus the tracing overhead.

Each worker's outputs are checked (``bench/checks.py``), every run of one
invocation must write a byte-identical ``trace.csv`` and ``summary.txt``,
and a fixed pure-Python probe is timed before each run so that machine
drift shows as drift. Human-readable lines go first; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Raw per-run records go to
``.bench_out/<workload>/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import COUNTS, TRACED_NAMES  # noqa: E402

DEFAULT_SEED = 1
SETUP_RUNS = 12
SMOKE_ROUNDS = 20
WORKER_TIMEOUT_S = 150

# Shared by every workload: 50 training queries, grade noise 0.1, and
# lam = alpha = 0.1, beta = 1, epsilon = 0.1.
COMMON_SPEC = {"n_queries": 50, "grade_noise": 0.1}
COMMON_CONFIG = {"lam": 0.1, "alpha": 0.1, "beta": 1.0, "epsilon": 0.1}

# Why each workload exists: the layer it makes dominant.
WORKLOADS = {
    # the README and acceptance configuration; offline evaluation every
    # round makes the evaluation subtree the largest cost
    "paper_default": {
        "spec": {"docs_per_query": 12, "d": 8},
        "config": {"algorithm": "fairexp_pairrank", "k": 5, "click_model": "perfect",
                   "eval_stride": 1, "rounds": 1500},
    },
    # 40 candidates and k = 10: template calibration (fair_swap over ~50
    # qualified templates a round) dominates
    "wide_pool": {
        "spec": {"docs_per_query": 40, "d": 8},
        "config": {"algorithm": "fairexp_pairrank", "k": 10, "click_model": "perfect",
                   "eval_stride": 100, "rounds": 200},
    },
    # the MSLR feature width with many clicks: the ranker's write path
    # (full-history Newton refit in update) dominates and grows each round
    "high_dim": {
        "spec": {"docs_per_query": 12, "d": 136},
        "config": {"algorithm": "pairrank", "k": 10, "click_model": "perfect",
                   "eval_stride": 100, "rounds": 600},
    },
    # like high_dim with few clicks: few pairs are buffered, so the read
    # path (classify_pairs widths) dominates
    "sparse_clicks": {
        "spec": {"docs_per_query": 12, "d": 136},
        "config": {"algorithm": "pairrank", "k": 10, "click_model": "navigational",
                   "eval_stride": 100, "rounds": 1500},
    },
}

# (name, unit, better); BOUNDED ones are the end-to-end metrics of
# BENCHMARK.json. The others are reported beside them: the round-time
# percentiles spread too widely across seeds on a noisy machine to hold a
# bound (see README.md), and the last three can be 0, which a bound relative
# to the median cannot express.
END_TO_END = (
    ("rounds_per_s", "rounds/s", "higher"),
    ("round_ms_p50", "ms", "lower"),
    ("round_ms_p99", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("offline_ndcg10", "ndcg", "higher"),
    ("cumulative_ndcg", "ndcg", "higher"),
    ("unfair_round_frac", "ratio", "lower"),
    ("added_regret_per_round", "pairs/round", "lower"),
    ("failed_frac", "ratio", "lower"),
)
BOUNDED = {"rounds_per_s", "setup_s", "peak_rss_mb", "offline_ndcg10", "cumulative_ndcg"}
LAYER_METRICS = (
    tuple(
        metric
        for name in TRACED_NAMES
        for metric in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))
    )
    + COUNTS
    + (("trace.overhead_frac", "ratio", "lower"),)
)
# BENCHMARK.json's per_layer list: the layer metrics plus the two research
# outputs that can be 0, so that every traced run records them
PER_LAYER = LAYER_METRICS + tuple(m for m in END_TO_END if m[0] in ("unfair_round_frac",
                                                                    "added_regret_per_round"))


def jobs_for(workload: str, seed: int, smoke: bool) -> dict:
    """The ``SyntheticSpec`` and ``ExperimentConfig`` arguments of one run."""
    w = WORKLOADS[workload]
    config = {**COMMON_CONFIG, **w["config"], "seed": seed}
    if smoke:
        config["rounds"] = SMOKE_ROUNDS
        config["eval_stride"] = min(config["eval_stride"], SMOKE_ROUNDS)
    return {"spec": {**COMMON_SPEC, **w["spec"], "seed": seed}, "config": config}


def machine_probe_s() -> float:
    """Time of a fixed pure-Python loop; it tracks machine speed, not code."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def spawn(job: dict, probes: list[float]) -> dict:
    """Run one worker to completion and return its JSON result."""
    probes.append(machine_probe_s())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=worker_env(),
            cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(proc.stdout)


class Invocation:
    """The runs of one benchmark invocation and their verdicts."""

    def __init__(self, workload: str, seed: int, smoke: bool, out_root: Path):
        self.jobs = jobs_for(workload, seed, smoke)
        self.out = out_root / workload
        self.runs: list[dict] = []
        self.setups: list[float] = []
        self.probes: list[float] = []
        self.reference: dict | None = None

    def setup_run(self) -> None:
        result = spawn({"mode": "setup", **self.jobs}, self.probes)
        self._verdict(result, "setup")

    def setups_until(self, share: float) -> None:
        """Run set-up-only workers until 1 + share * (SETUP_RUNS - 1) have run."""
        due = 1 + int((SETUP_RUNS - 1) * min(share, 1.0))
        while sum(r["mode"] == "setup" for r in self.runs) < due:
            self.setup_run()

    def experiment(self, mode: str) -> None:
        config = {**self.jobs["config"], "out_dir": str(self.out / mode)}
        result = spawn({"mode": mode, "spec": self.jobs["spec"], "config": config}, self.probes)
        self._verdict(result, mode)

    def _verdict(self, result: dict, mode: str) -> None:
        result["mode"] = mode
        problems = result.setdefault("problems", [])
        if "error" in result:
            problems.append(result["error"])
        if mode == "setup" and "setup_s" in result:
            self.setups.append(result["setup_s"])
        if mode != "setup" and "trace_sha256" in result:
            digest = (result["trace_sha256"], result["summary_sha256"])
            if self.reference is None:
                self.reference = {"digest": digest, "summary": result["summary"]}
            elif digest != self.reference["digest"]:
                problems.append("trace.csv or summary.txt differs from the first run")
        result["failed"] = bool(problems)
        self.runs.append(result)

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.runs)

    def good(self, mode: str) -> list[dict]:
        return [r for r in self.runs if r["mode"] == mode and not r["failed"]]

    def quality(self) -> dict[str, float]:
        summary = self.reference["summary"]
        rounds = summary["rounds"]
        return {
            "offline_ndcg10": summary["final_offline_ndcg10"],
            "cumulative_ndcg": summary["cumulative_ndcg"],
            "unfair_round_frac": summary["ledger_violations"] / rounds,
            "added_regret_per_round": summary["total_added_regret"] / rounds,
        }

    def end_to_end(self) -> dict[str, float]:
        runs = self.good("untraced")
        pooled_ms = [s * 1e3 for r in runs for s in r["round_s"]]
        percentiles = statistics.quantiles(pooled_ms, n=100, method="inclusive")
        return {
            "rounds_per_s": len(pooled_ms) / sum(sum(r["round_s"]) for r in runs),
            "round_ms_p50": percentiles[49],
            "round_ms_p99": percentiles[98],
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            **self.quality(),
            "failed_frac": self.failed / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.good("traced")
        out: dict[str, float] = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = traced[0]["layers"][name]["calls"]
            out[f"{name}.self_s"] = statistics.median(r["layers"][name]["self_s"] for r in traced)
        for name, _, _ in COUNTS:
            out[name] = traced[0]["counts"][name]
        # untraced and traced runs alternate, so each pair meets similar
        # machine conditions; the overhead is the median pair ratio
        pairs = zip(self.good("untraced"), traced)
        out["trace.overhead_frac"] = statistics.median(
            sum(t["round_s"]) / sum(u["round_s"]) - 1.0 for u, t in pairs
        )
        quality = self.quality()
        out["unfair_round_frac"] = quality["unfair_round_frac"]
        out["added_regret_per_round"] = quality["added_regret_per_round"]
        return out

    def self_time_balance(self) -> tuple[float, float]:
        """(sum of all self times, run_experiment total) of the first traced run."""
        layers = self.good("traced")[0]["layers"]
        return (
            sum(v["self_s"] for v in layers.values()),
            layers["harness.run_experiment"]["total_s"],
        )


def machine_info(first_setup: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first_setup.get("numpy"),
        "blas": first_setup.get("blas"),
        "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"],
    }


def print_metrics(title: str, table, values: dict[str, float]) -> None:
    print(f"# {title}")
    for name, unit, better in table:
        print(f"{name:<46} {values[name]:>16.10g}  {unit:<12} {better}")


def timed(args, out_root: Path) -> dict:
    inv = Invocation(args.workload, args.seed, smoke=False, out_root=out_root)
    warm = spawn({"mode": "setup", **inv.jobs}, [])  # fills bytecode and file caches
    info = machine_info(warm)
    start = time.perf_counter()
    while True:
        # a fixed number of set-up samples, spread evenly over the window
        # between the experiments, so that they meet the same machine phases
        inv.setups_until((time.perf_counter() - start) / args.seconds)
        inv.experiment("untraced")
        if args.trace:
            inv.experiment("traced")
        if time.perf_counter() - start >= args.seconds:
            break
    inv.setups_until(1.0)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    probe_ms = [p * 1e3 for p in inv.probes]
    print(f"# probe_ms median={statistics.median(probe_ms):.3f} "
          f"min={min(probe_ms):.3f} max={max(probe_ms):.3f} n={len(probe_ms)}")
    for i, r in enumerate(inv.runs, 1):
        line = f"# run {i} {r['mode']} setup_s={r.get('setup_s', float('nan')):.4f}"
        if r.get("round_s"):
            line += f" rounds_per_s={len(r['round_s']) / sum(r['round_s']):.2f}"
        print(line + (" FAILED: " + "; ".join(r["problems"]) if r["failed"] else " ok"))

    metrics: dict[str, dict] = {}
    if inv.setups and inv.good("untraced") and (not args.trace or inv.good("traced")):
        e2e = inv.end_to_end()
        pooled = sum(len(r["round_s"]) for r in inv.good("untraced"))
        print(f"# end-to-end over {len(inv.good('untraced'))} untraced runs, "
              f"{pooled} round samples, {len(inv.setups)} set-ups")
        print_metrics("end-to-end", END_TO_END, e2e)
        if args.trace:
            values, table = inv.per_layer(), PER_LAYER
            total, root = inv.self_time_balance()
            print(f"# self times sum to {total:.6f} s; run_experiment took {root:.6f} s")
            print_metrics("per-layer", LAYER_METRICS, values)
        else:
            values, table = e2e, tuple(m for m in END_TO_END if m[0] in BOUNDED)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}

    record = {"args": vars(args), "machine": info, "probe_s": inv.probes, "runs": inv.runs}
    inv.out.mkdir(parents=True, exist_ok=True)
    (inv.out / f"seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, default=str))
    return {
        "correct": inv.failed == 0 and bool(metrics),
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": metrics,
    }


def smoke(out_root: Path) -> bool:
    """Every workload for a few rounds, untraced and traced; True if all pass."""
    ok = True
    for workload in WORKLOADS:
        inv = Invocation(workload, DEFAULT_SEED, smoke=True, out_root=out_root)
        inv.setup_run()
        inv.experiment("untraced")
        inv.experiment("traced")
        print(f"## {workload}: {inv.attempted} runs, {inv.failed} failed")
        for r in inv.runs:
            for problem in r["problems"]:
                print(f"#   {r['mode']}: {problem}")
        if inv.failed:
            ok = False
            continue
        print_metrics("end-to-end", END_TO_END, inv.end_to_end())
        print_metrics("per-layer", LAYER_METRICS, inv.per_layer())
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few rounds of every workload")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for run outputs and records")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairexp" / "__init__.py").is_file():
        print(f"no fairexp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if smoke(args.out) else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    print(json.dumps(timed(args, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
