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
shuffled by other random draws: one ``permutation`` per block in
``harness.sample_block_order`` and one ``integers`` per slot with more than
one candidate in ``fairswap.draw_slots``, the calibration fill, so those
runs pin a second random stream.

The calibration run serves 40 candidates per query at k=10, so every round
qualifies dozens of templates and promotes documents between blocks;
``fairswap.log`` prints each promotion of the chosen template with the
group-B counts and sizes of the blocks below it. With the heuristic off,
every slot whose group has more than one candidate draws. Calibration stops
at the regret bound, so the run calibrates 116 templates with the heuristic
off, 90 of which draw, and 52 with it on, 29 of which draw (1,877 and
1,880, of which 740 and 501 drew, when every qualified template was
calibrated; the hashes are the same).

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
        "0e65eafdacbd2002030a6cae7a0ea770138f47d1c86056a4f6d951598dad4bc7",
        "62fe130886ce7e3c3df7bd338683a9d85be11e8841b9c6dc6ad31ed3382da3c3",
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
        "05485b0ac8ee7c9c919877e172e462f686116a4d112937e0af8c1c29634ce569",
        "4b2f639164aa2af12258d8b11a05f52626aeaf0354dd450f2d86fbead771a1a7",
    ),
    "pairrank": (
        "e73b674663f7bd50a285ff66e0c79f0c68d442860ff0e5d3e012b873b5ec8af5",
        "2d885ebef86852a6406c9a52ecb9d5f673f2ee4490a10e71443d59c1bc17507e",
    ),
}

CALIBRATION_GOLDEN = (
    "958a9561b96b3459d722458ae522141d3e0f6b33baade6d7ea4d1eb0a83680a8",
    "28cc61a467f3da2a8eaddb30c9d378fb2d096b934e21aa23426e56860d880f60",
    "1972fc5dc384e0fceba8d0d40c61aa1f2a437ea22a2ea3e342121b4e96a04678",
)

CALIBRATION_NO_HEURISTIC_GOLDEN = (
    "75c708863826227946ebcadb31cd5e786a37022e8932ea4c044e745479818a47",
    "c03f02727a446ac1d027a8f889a13cc6b89d7e5e8b6eff527985d31c09772761",
    "5fe4e376242b261430dc9492d62969118f2e5f32404d7ad3abee566f76a3ca0c",
)

# trace.csv and summary.txt of each bench/run.py workload at seed 1
BENCH_GOLDEN = {
    "paper_default": (
        "d4220fa2c84c4e0701d4e27c6d6a3baf3968369b2590ead29077ac6db105f1a5",
        "101add430b7b692b576bd9951c515ecf3cfeb8116518f76d49992f60c510bff2",
    ),
    "wide_pool": (
        "a488687d7b1e51872ad4b43d7cdedb15364bec6b7bc5b4b7ed2f2b377b30b6aa",
        "2ad7c295e4b0bd0bd263dd73d9c3a52c1adbaa77e81bb3fd22e28df954f7ec73",
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
