"""Tests of the benchmark itself: its contract file, smoke mode, output
checks and instrumentation. Run with ``python -m pytest bench``."""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import check_result  # noqa: E402
from tracer import RoundClock, Tracer, snapshot  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounded = [m for m in run.END_TO_END if m[0] in run.BOUNDED]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == bounded
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_smoke_prints_every_metric_once_per_workload(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    sections = proc.stdout.split("## ")[1:]
    assert [s.split(":")[0] for s in sections] == list(run.WORKLOADS)
    expected = {m[0]: m[1] for m in run.END_TO_END + run.PER_LAYER}
    for section in sections:
        printed = [line.split() for line in section.splitlines()[1:] if not line.startswith("#")]
        names = [fields[0] for fields in printed]
        assert sorted(names) == sorted(expected), section
        for name, value, unit, better in printed:
            assert NAME.fullmatch(name)
            assert unit == expected[name] and better in ("higher", "lower")
            float(value)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from fairexp import harness
    from fairexp.data import SyntheticSpec

    jobs = run.jobs_for("paper_default", seed=3, smoke=True)
    out = tmp_path_factory.mktemp("untraced")
    config = harness.ExperimentConfig(
        synthetic=SyntheticSpec(**jobs["spec"]), out_dir=str(out), **jobs["config"]
    )
    return config, harness.run_experiment(config), harness.load_datasets(config)[2]


def test_output_check_passes_a_real_run_and_rejects_corruptions(small_run):
    config, result, test = small_run
    assert check_result(result, test, config) == []

    def corrupted(edit):
        bad = copy.deepcopy(result)
        edit(bad)
        return check_result(bad, test, config)

    assert corrupted(lambda r: setattr(r.state, "theta", r.state.theta[::-1].copy()))
    assert corrupted(lambda r: setattr(r.records[5], "cumulative_unfairness", 1.0))
    assert corrupted(lambda r: r.summary.update(ledger_violations=r.summary["ledger_violations"] + 1))
    assert corrupted(lambda r: r.summary.update(total_added_regret=r.summary["total_added_regret"] + 1))
    assert corrupted(lambda r: setattr(r.state, "info_matrix", r.state.info_matrix * (1 + 1e-6)))
    assert corrupted(lambda r: r.records.pop())


def test_instruments_are_transparent_and_self_times_sum_to_the_root(small_run, tmp_path):
    import fairexp
    from fairexp import harness

    config, _, _ = small_run
    before = snapshot(fairexp)
    outputs = {}
    for name, instrument in (("clock", RoundClock()), ("traced", Tracer())):
        cfg = replace(config, out_dir=str(tmp_path / name))
        with instrument.installed(fairexp):
            harness.run_experiment(cfg)
        assert snapshot(fairexp) == before
        outputs[name] = instrument
        for file in ("trace.csv", "summary.txt"):
            assert (tmp_path / name / file).read_bytes() == (Path(config.out_dir) / file).read_bytes()

    clock, tracer = outputs["clock"], outputs["traced"]
    assert len(clock.stamps) == len(tracer.loop_stamps()) == config.rounds
    layers = tracer.layer_times()
    assert layers["harness.run_experiment"]["calls"] == 1
    total_self = sum(v["self_s"] for v in layers.values())
    assert total_self == pytest.approx(layers["harness.run_experiment"]["total_s"], abs=1e-9)
    spans = tracer.span_array()
    assert set(np.unique(spans["round"])) == set(range(config.rounds + 1))
    counts = tracer.counts()
    assert counts["fairswap.calibrations_per_round"] > 0
    assert counts["ranker.pairs_buffered"] == counts["ranker.pairs_added"]


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_a_program_that_does_not_import_counts_as_failed_runs(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src" / "fairexp" / "__init__.py").write_text('raise ImportError("broken")\n')
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert result["metrics"] == {}
