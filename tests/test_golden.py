"""Golden fingerprints: SHA-256 of ``trace.csv`` and ``summary.txt`` for four
short fixed runs, one per algorithm; of two of those runs again with the
within-block certain-order heuristic off; of one calibration-heavy run that
also writes ``fairswap.log``, with the heuristic on and off; and of one run
at the MSLR feature width.

A refactor or speed-up that claims to change nothing observable must leave
these hashes as they are. A change that moves them on purpose re-records
them and states the reason in CHANGES.md.

Every round is evaluated (``eval_stride=1``), so each row's
``offline_ndcg`` column is live. The data is a small SVMLight dataset
written by the test with ragged query lengths (1 to 23 documents in the
hold-out split, one hold-out query with all grades 0), so the hold-out
evaluation sees queries shorter and longer than its cut-off of 10.

With ``respect_certain=False`` (the ``--no-heuristic`` flag) the blocks are
shuffled by other random draws: ``fairswap.draw_slots``, which orders each
block in ``harness.sample_block_order`` and fills each calibrated segment,
then draws one ``integers`` for every slot with more than one candidate,
not only where the heuristic leaves a tie, so those runs pin a second
sequence of draws from the run's one generator.

The calibration run serves 40 candidates per query at k=10, so every round
qualifies dozens of templates and promotes documents between blocks;
``fairswap.log`` prints each promotion of the chosen template with the
group-B counts and sizes of the blocks below it. With the heuristic off,
every slot whose group has more than one candidate draws. Calibration stops
at the regret bound, so the run calibrates 95 templates with the heuristic
off, 72 of which draw, and 41 with it on, 23 of which draw. Every candidate
of a round draws from the run's generator as it stood when the round's
calibration began, and the generator then goes on from where the chosen
template's fill left it.

The high-dimension run ranks 12 candidates of 136 features with
navigational clicks, so few pairs are buffered (138 in 150 rounds) and
about half of the classified pairs stay uncertain. Each confidence width
is then a sum over 136 x 136 terms, where a change in the order of the
width arithmetic is far more likely to round a pair across p +/- w = 1/2
than at the d=6 of the other runs. It is also the one run whose refit
takes its Newton steps from preconditioned conjugate gradients, since 136
is above ``ranker.DIRECT_SOLVE_MAX_D``; the d=6 runs form the Hessian and
solve it. CG stops at a residual of 1e-3 of the gradient, so its fits end
at other points inside the gradient tolerance than direct solves would,
and this hash pins the path as it is. Every hash here is meant to hold for
any number of BLAS threads: CI runs the suite with the default and with
``OPENBLAS_NUM_THREADS=1``.

The four benchmark workloads of ``bench/run.py`` run here too, untimed and
untraced, at seed 1 with their full round counts, so the benchmark's
outputs are pinned by the test suite and not only by a manual comparison.

The hashes were recorded with numpy 2.4.6 and scipy-openblas 0.3.31 on
x86-64. Another BLAS or numpy version may round the ranker's arithmetic
differently, which moves the hashes without any change in the package.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from fairexp.data import SyntheticSpec
from fairexp.harness import ALGORITHMS, ExperimentConfig, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run as bench_run  # noqa: E402  bench/run.py, imported as bench/test_bench.py does

D = 6
TRAIN_LENGTHS = (2, 3, 5, 7, 8, 9, 10, 11, 12, 15)
TEST_LENGTHS = (1, 2, 3, 5, 7, 8, 9, 10, 11, 15, 23)
ALL_ZERO_TEST_QUERY = 4

GOLDEN = {
    "fairexp_pairrank": (
        "d5e9c91d52a878febfe4f01d0bb033e88a7cd9afe7b5a2f631db52150d6c5cf4",
        "ca1a3b5f24c23b8d6d3ff061a97d60c2011cbc382865ec4e3118de40234d7208",
    ),
    "pairrank": (
        "bb697183ea06366160007c6580d02e5c1e21d75fce66f2ff59bf28a8d74c4ee6",
        "2f1928f16988383ddbeb626995d66828609b7194a81da0f39260ecfd365b49de",
    ),
    "prop_control": (
        "5c4389c9ead0131341dc531034af55d9d52fa8d570d3992ab77136fa6a255c56",
        "f328e90b31b04923a2a5d765ac1f56d7ada60357e2233a2eb0c969db4e392b61",
    ),
    "random": (
        "6b3093eeb9d2528d819b2689a50663916cb84375b3aa8d392d025ad894289758",
        "3e7e957c901c5c268c0bb4efe233b4bb9b2c941d4f3b8e296094bc2ce6ef915a",
    ),
}

NO_HEURISTIC_GOLDEN = {
    "fairexp_pairrank": (
        "50f84d2bd57b80a648bee7ed8b0714242d0add10ab0d49d001ee33998699d362",
        "0c5c89ee25438da37da0ee11d9979f62b6a91d92ab63cbfcc8277f7c9b0a12e8",
    ),
    "pairrank": (
        "96fcc9b94030c8458d43dc3032b93a0891f5b3e5fd87a9182bc6ccaae97e66d6",
        "2ac09a97db631a2cb372df9bffa68f00189dba48ec4e9ccd703da6969d1366d9",
    ),
}

CALIBRATION_GOLDEN = (
    "21fb71009a92d3a4af888d1322402e7653a21317d8316681804433ed9add63f7",
    "f62d292df945b9e06b55ab7440d454a8b4d1acc89ee5ebac62213ed219c6ea9b",
    "427baaedfb2d5c1aee43e9714b89b2dc5468283bb8b63a8ac0ba32f36e96b4c7",
)

CALIBRATION_NO_HEURISTIC_GOLDEN = (
    "ea903495ad4a5b8419b35d719e5b5a2232e66aee905cb179d1ef7ee2ac401ec5",
    "6f698f892204dff9f420929b72366b465d61569c4fe06e96265a9c01f2d3974e",
    "57657e7913c87ee14716065a39d4f25d5aa5aabe6968914ec0329f82b31c86ca",
)

# trace.csv and summary.txt of each bench/run.py workload at seed 1
BENCH_GOLDEN = {
    "paper_default": (
        "0465f612b27395ee21696dde63b506c44897aa8cd2ded24b820aad1b7b4b170a",
        "edc80bf3b52c5094d84cbe9b127b7e85811ca4b41191f5a03537ce13d921e430",
    ),
    "wide_pool": (
        "a1791b1a385332b34d921ed410d4f4a4ac4545dc36a9ef0cd5105d632f4de322",
        "096085b125c986548020ad37a83e0936fa4def696153c63d90c1d4760006dc69",
    ),
    "high_dim": (
        "110ba6ea5158202e8595c9c170b8677b5ea822a1adc309972c1ea4e8d49929ed",
        "60098f02de3f552b46afcb47d6d1e703800697c3ed3b5ef6302d2a64492b11f2",
    ),
    "sparse_clicks": (
        "782b99dcc61f75adbd3423d561fdaa22dc34cbaf3a803a53124cf29b5ff4bfd8",
        "7b77662b3830a4f9a273fc74d4bb4300d92d0db7dcd3734d0be9ed4989a4d8be",
    ),
}

HIGH_DIM_GOLDEN = (
    "9db763f2ff17ee9d98ce4caa04a2401c0e988e00f42fe4c0fe80f7d2461713d8",
    "a6c8c691fb7e6b969599f84d0934631e01c2676db2509d4e6410f2630b1835d1",
)


def _split_lines(rng, theta, lengths, prefix, all_zero=None):
    lines = []
    for qi, n in enumerate(lengths):
        x = np.round(rng.random((n, D)), 4)
        noisy = x @ theta + 0.1 * rng.standard_normal(n)
        grades = np.digitize(noisy, (0.2, 0.5, 0.8, 1.1))
        if qi == all_zero:
            grades[:] = 0
        for row, grade in zip(x, grades):
            feats = " ".join(f"{j + 1}:{v:.4f}" for j, v in enumerate(row))
            lines.append(f"{grade} qid:{prefix}{qi} {feats}")
    return "\n".join(lines) + "\n"


def write_dataset(root):
    rng = np.random.default_rng(2021)
    theta = np.array([0.5, 0.3, 0.2, -0.1, 0.4, 0.1])
    train = _split_lines(rng, theta, TRAIN_LENGTHS * 3, "t")
    test = _split_lines(rng, theta, TEST_LENGTHS, "h", all_zero=ALL_ZERO_TEST_QUERY)
    (root / "train.txt").write_text(train, encoding="utf-8")
    (root / "test.txt").write_text(test, encoding="utf-8")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_table_covers_every_algorithm():
    assert set(GOLDEN) == set(ALGORITHMS)


def _ragged_run(tmp_path, algorithm: str, respect_certain: bool = True) -> tuple[str, str]:
    data = tmp_path / "data"
    data.mkdir()
    write_dataset(data)
    out = tmp_path / "out"
    config = ExperimentConfig(
        algorithm=algorithm,
        dataset_dir=str(data),
        group_feature=1,
        rounds=60,
        k=5,
        lam=0.1,
        alpha=0.1,
        beta=1.0,
        epsilon=0.1,
        seed=7,
        eval_stride=1,
        respect_certain=respect_certain,
        out_dir=str(out),
    )
    run_experiment(config)
    return sha256(out / "trace.csv"), sha256(out / "summary.txt")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trace_and_summary_fingerprints(algorithm, tmp_path):
    assert _ragged_run(tmp_path, algorithm) == GOLDEN[algorithm]


@pytest.mark.parametrize("algorithm", sorted(NO_HEURISTIC_GOLDEN))
def test_no_heuristic_fingerprints(algorithm, tmp_path):
    assert _ragged_run(tmp_path, algorithm, respect_certain=False) == NO_HEURISTIC_GOLDEN[algorithm]


def _calibration_run(tmp_path, respect_certain: bool = True) -> tuple[str, str, str]:
    spec = SyntheticSpec(n_queries=12, docs_per_query=40, d=6, grade_noise=0.1, seed=5)
    config = ExperimentConfig(
        algorithm="fairexp_pairrank",
        synthetic=spec,
        n_validation=4,
        n_test=4,
        rounds=40,
        k=10,
        lam=0.1,
        alpha=0.1,
        beta=1.0,
        epsilon=0.1,
        seed=11,
        eval_stride=10,
        diagnostics=True,
        respect_certain=respect_certain,
        out_dir=str(tmp_path),
    )
    run_experiment(config)
    log = (tmp_path / "fairswap.log").read_text(encoding="utf-8")
    assert log.count("b_counts=") > 100  # the run promotes, not only calibrates
    return tuple(sha256(tmp_path / name) for name in ("trace.csv", "summary.txt", "fairswap.log"))


def test_calibration_fingerprints(tmp_path):
    assert _calibration_run(tmp_path) == CALIBRATION_GOLDEN


def test_calibration_no_heuristic_fingerprints(tmp_path):
    assert _calibration_run(tmp_path, respect_certain=False) == CALIBRATION_NO_HEURISTIC_GOLDEN


def test_high_dimension_fingerprints(tmp_path):
    spec = SyntheticSpec(n_queries=20, docs_per_query=12, d=136, grade_noise=0.1, seed=3)
    config = ExperimentConfig(
        algorithm="pairrank",
        synthetic=spec,
        n_validation=2,
        n_test=6,
        click_model="navigational",
        rounds=150,
        k=10,
        lam=0.1,
        alpha=0.1,
        seed=13,
        eval_stride=1,
        out_dir=str(tmp_path),
    )
    run_experiment(config)
    got = tuple(sha256(tmp_path / name) for name in ("trace.csv", "summary.txt"))
    assert got == HIGH_DIM_GOLDEN


def test_bench_table_covers_every_workload():
    assert set(BENCH_GOLDEN) == set(bench_run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(BENCH_GOLDEN))
def test_bench_workload_fingerprints(workload, tmp_path):
    jobs = bench_run.jobs_for(workload, 1, False)
    config = ExperimentConfig(
        synthetic=SyntheticSpec(**jobs["spec"]), out_dir=str(tmp_path), **jobs["config"]
    )
    run_experiment(config)
    got = tuple(sha256(tmp_path / name) for name in ("trace.csv", "summary.txt"))
    assert got == BENCH_GOLDEN[workload]
