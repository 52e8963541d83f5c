"""Instrumentation installed from outside the package.

Both instruments replace module (or class) attributes of ``fairexp`` with
thin wrappers and put the originals back when the ``with`` block ends, so
nothing under ``src/`` changes and a run with an instrument installed
behaves exactly like one without: the wrappers draw no random numbers and
pass arguments and results through untouched.

* ``RoundClock`` wraps ``click_sim.simulate`` only, which the round loop
  calls once per round, and records one timestamp per call. The untimed
  end-to-end run uses it and nothing else.
* ``Tracer`` wraps every function in ``TRACED`` and records one span per
  call: name, start, end, parent span and round id. Spans stay in memory
  until the run ends. A span's self time is its duration minus the
  durations of its direct child spans. Counts are read from the wrapped
  calls' arguments and return values.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module name inside fairexp, attribute path) of every traced function,
# reported as "<module>.<attribute path>".
TRACED = (
    ("harness", "load_datasets"),
    ("harness", "run_experiment"),
    ("harness", "evaluate_offline"),
    ("harness", "sample_block_order"),
    ("data", "QueryCandidates.feature_matrix"),
    ("ranker", "classify_pairs"),
    ("ranker", "partition_blocks"),
    ("ranker", "update"),
    ("ranker", "infer_pairs"),
    ("ranker", "score_all"),
    ("fairness", "enumerate_templates"),
    ("fairness", "qualified_templates"),
    ("fairness", "make_template"),
    ("fairness", "record"),
    ("fairswap", "select_ranking"),
    ("fairswap", "fair_swap"),
    ("fairswap", "added_regret"),
    ("click_sim", "simulate"),
    ("metrics", "ndcg_at_k"),
    ("metrics", "pairwise_regret"),
)
TRACED_NAMES = tuple(f"{module}.{path}" for module, path in TRACED)

# counts reported by the traced run: (name, unit, better)
COUNTS = (
    ("ranker.pairs_classified", "count", "lower"),
    ("ranker.certain_frac", "ratio", "higher"),
    ("ranker.blocks_per_round", "count/round", "higher"),
    ("ranker.max_block", "docs", "lower"),
    ("ranker.pairs_added", "count", "lower"),
    ("ranker.pairs_buffered", "count", "lower"),
    ("fairness.templates_enumerated_per_round", "count/round", "lower"),
    ("fairness.templates_qualified_per_round", "count/round", "lower"),
    ("fairness.fallback_rounds", "count", "lower"),
    ("fairswap.calibrations_per_round", "count/round", "lower"),
    ("fairswap.kept_frac", "ratio", "higher"),
    ("fairswap.promotions", "count", "lower"),
    ("fairswap.infeasible_rounds", "count", "lower"),
    ("click_sim.clicks_per_round", "count/round", "higher"),
)


def _resolve(package, module: str, path: str):
    """Return (owner object, attribute name) for a dotted attribute path."""
    owner = getattr(package, module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def _patched(package, replacements):
    """Install ``{(module, path): make_wrapper(original)}`` for the block.

    Originals are taken from the owner's ``__dict__`` so that exactly the
    same objects are put back, and they are put back even if the run
    raises.
    """
    saved = []
    try:
        for (module, path), make_wrapper in replacements.items():
            owner, attr = _resolve(package, module, path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def snapshot(package) -> dict[str, object]:
    """The objects currently bound to every traced attribute, by name."""
    out = {}
    for (module, path), name in zip(TRACED, TRACED_NAMES):
        owner, attr = _resolve(package, module, path)
        out[name] = vars(owner)[attr]
    return out


class RoundClock:
    """One ``perf_counter`` timestamp per ``click_sim.simulate`` call."""

    def __init__(self):
        self.stamps: list[float] = []

    @contextmanager
    def installed(self, package):
        stamps = self.stamps
        clock = time.perf_counter

        def make_wrapper(fn):
            @functools.wraps(fn)
            def simulate(*args, **kwargs):
                stamps.append(clock())
                return fn(*args, **kwargs)

            return simulate

        with _patched(package, {("click_sim", "simulate"): make_wrapper}):
            yield self


class Tracer:
    """Spans and counts for every function in ``TRACED``.

    The round id of a span is 0 for work before the round loop (the
    ``run_experiment`` root and its ``load_datasets`` call) and t for work
    in round t. Round t ends with the loop's ``metrics.pairwise_regret``
    call, the last traced call of every round.
    """

    def __init__(self):
        self.spans: list = []
        self.round = 0
        self.totals: Counter = Counter()
        self._stack: list[int] = []

    # observers read counts from a traced call's arguments and result
    def _observers(self):
        t = self.totals

        def classify_pairs(args, kwargs, result):
            t["pairs_classified"] += result.n_pairs()
            t["pairs_certain"] += len(result.certain)

        def partition_blocks(args, kwargs, result):
            t["partitions"] += 1
            t["blocks"] += len(result.blocks)
            t["max_block_sum"] += max(map(len, result.blocks))

        def update(args, kwargs, result):
            t["pairs_added"] += len(args[2] if len(args) > 2 else kwargs["labels"])
            t["pairs_buffered"] = result.pairs.n

        def enumerate_templates(args, kwargs, result):
            t["templates_enumerated"] += len(result)

        def qualified_templates(args, kwargs, result):
            templates, fallback = result
            t["templates_qualified"] += len(templates)
            t["fallbacks"] += bool(fallback)

        def fair_swap(args, kwargs, result):
            t["promotions"] += len(result.events)

        def simulate(args, kwargs, result):
            t["clicks"] += sum(result.clicks)

        def load_datasets(args, kwargs, result):
            self.round = 1

        def pairwise_regret(args, kwargs, result):
            self.round += 1

        def run_experiment(args, kwargs, result):
            t["infeasible"] = len(result.flagged_rounds)

        return {
            "ranker.classify_pairs": classify_pairs,
            "ranker.partition_blocks": partition_blocks,
            "ranker.update": update,
            "fairness.enumerate_templates": enumerate_templates,
            "fairness.qualified_templates": qualified_templates,
            "fairswap.fair_swap": fair_swap,
            "click_sim.simulate": simulate,
            "harness.load_datasets": load_datasets,
            "metrics.pairwise_regret": pairwise_regret,
            "harness.run_experiment": run_experiment,
        }

    def _wrapper_factory(self, index: int, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def make_wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else -1
                span = len(spans)
                spans.append(None)
                stack.append(span)
                round_id = self.round
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[span] = (index, start, end, parent, round_id)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return traced

        return make_wrapper

    @contextmanager
    def installed(self, package):
        observers = self._observers()
        replacements = {
            target: self._wrapper_factory(i, observers.get(name))
            for i, (target, name) in enumerate(zip(TRACED, TRACED_NAMES))
        }
        with _patched(package, replacements):
            yield self

    def span_array(self) -> np.ndarray:
        """Spans as a structured array (name index, start, end, parent, round)."""
        dtype = [
            ("name", np.int16),
            ("start", np.float64),
            ("end", np.float64),
            ("parent", np.int64),
            ("round", np.int64),
        ]
        return np.array(self.spans, dtype=dtype)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds of every traced function."""
        spans = self.span_array()
        duration = spans["end"] - spans["start"]
        nested = spans["parent"] >= 0
        children = np.zeros(len(spans))
        np.add.at(children, spans["parent"][nested], duration[nested])
        self_time = duration - children
        n = len(TRACED_NAMES)
        calls = np.bincount(spans["name"], minlength=n)
        total = np.bincount(spans["name"], weights=duration, minlength=n)
        own = np.bincount(spans["name"], weights=self_time, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(TRACED_NAMES)
        }

    def loop_stamps(self) -> list[float]:
        """Start times of the ``click_sim.simulate`` spans, one per round."""
        index = TRACED_NAMES.index("click_sim.simulate")
        return [s[1] for s in self.spans if s[0] == index]

    def counts(self) -> dict[str, float]:
        t = self.totals
        layer = self.layer_times()
        rounds = max(layer["click_sim.simulate"]["calls"], 1)
        calibrations = layer["fairswap.fair_swap"]["calls"]
        selections = layer["fairswap.select_ranking"]["calls"]
        return {
            "ranker.pairs_classified": t["pairs_classified"],
            "ranker.certain_frac": t["pairs_certain"] / max(t["pairs_classified"], 1),
            "ranker.blocks_per_round": t["blocks"] / rounds,
            "ranker.max_block": t["max_block_sum"] / max(t["partitions"], 1),
            "ranker.pairs_added": t["pairs_added"],
            "ranker.pairs_buffered": t["pairs_buffered"],
            "fairness.templates_enumerated_per_round": t["templates_enumerated"] / rounds,
            "fairness.templates_qualified_per_round": t["templates_qualified"] / rounds,
            "fairness.fallback_rounds": t["fallbacks"],
            "fairswap.calibrations_per_round": calibrations / rounds,
            "fairswap.kept_frac": selections / calibrations if calibrations else 0.0,
            "fairswap.promotions": t["promotions"],
            "fairswap.infeasible_rounds": t["infeasible"],
            "click_sim.clicks_per_round": t["clicks"] / rounds,
        }
