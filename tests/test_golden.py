"""Golden fingerprints: SHA-256 of ``trace.csv`` and ``summary.txt`` for four
short fixed runs, one per algorithm.

A refactor or speed-up that claims to change nothing observable must leave
these hashes as they are. A change that moves them on purpose re-records
them and states the reason in CHANGES.md.

Every round is evaluated (``eval_stride=1``), so each row's
``offline_ndcg`` column is live. The data is a small SVMLight dataset
written by the test with ragged query lengths (1 to 23 documents in the
hold-out split, one hold-out query with all grades 0), so the hold-out
evaluation sees queries shorter and longer than its cut-off of 10.

The hashes were recorded with numpy 2.4.6 and scipy-openblas 0.3.31 on
x86-64. Another BLAS or numpy version may round the ranker's arithmetic
differently, which moves the hashes without any change in the package.
"""

import hashlib

import numpy as np
import pytest

from fairexp.harness import ALGORITHMS, ExperimentConfig, run_experiment

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


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trace_and_summary_fingerprints(algorithm, tmp_path):
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
        out_dir=str(out),
    )
    run_experiment(config)
    assert (sha256(out / "trace.csv"), sha256(out / "summary.txt")) == GOLDEN[algorithm]
