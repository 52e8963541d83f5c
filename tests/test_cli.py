import math
from dataclasses import fields

import numpy as np
import pytest

from fairexp.cli import build_config, main, parse_config_file, parse_synthetic_flag
from fairexp.data import SyntheticSpec
from fairexp.harness import ExperimentConfig, sweep
from fairexp.metrics import format_value


SYNTH = "n_queries=10,docs_per_query=6,d=4,seed=3"


def test_parse_synthetic_flag():
    spec = parse_synthetic_flag(SYNTH)
    assert (spec.n_queries, spec.docs_per_query, spec.d, spec.seed) == (10, 6, 4, 3)
    with pytest.raises(ValueError):
        parse_synthetic_flag("bogus=1")


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(
        """
        # comment
        algorithm=pairrank
        rounds=40
        k=3
        epsilon=0.2
        beta=auto
        synthetic.n_queries=8
        synthetic.docs_per_query=5
        synthetic.d=4
        respect_certain=false
        """,
        encoding="utf-8",
    )
    values = parse_config_file(path)
    assert values["algorithm"] == "pairrank"
    assert values["rounds"] == 40
    assert values["beta"] == "auto"
    assert values["respect_certain"] is False
    assert values["synthetic"].n_queries == 8

    bad = tmp_path / "bad.conf"
    bad.write_text("rounds 40\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config_file(bad)
    unknown = tmp_path / "unknown.conf"
    unknown.write_text("turbo=yes\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config_file(unknown)


def test_cli_overrides_file(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text("rounds=40\nk=3\nsynthetic.n_queries=8\nsynthetic.docs_per_query=5\nsynthetic.d=4\n", encoding="utf-8")
    import argparse

    parser = argparse.ArgumentParser()
    from fairexp.cli import _add_common_flags

    _add_common_flags(parser)
    args = parser.parse_args(["--config", str(path), "--rounds", "7", "--epsilon", "inf"])
    config = build_config(args)
    assert config.rounds == 7  # CLI wins
    assert config.k == 3  # file value kept
    assert math.isinf(config.epsilon)


@pytest.mark.parametrize("flag, value", [("--eval-stride", "0"), ("--alpha", "-1")])
def test_build_config_rejects_out_of_range_values(flag, value):
    import argparse

    from fairexp.cli import _add_common_flags

    parser = argparse.ArgumentParser()
    _add_common_flags(parser)
    args = parser.parse_args(["--synthetic", SYNTH, flag, value])
    with pytest.raises(ValueError, match=flag[2:].replace("-", "_")):
        build_config(args)


@pytest.mark.parametrize(
    "lines, flags, missing",
    [
        ([], ["--click-model", "custom"], "custom_clicks"),
        (["click_model=custom", "custom_clicks=0.5,0.5,0.5"], [], "custom_clicks"),
        ([], ["--exposure", "table"], "exposure_table"),
        (["epsilon=-inf"], [], "epsilon"),
        ([], ["--epsilon=-inf"], "epsilon"),
    ],
)
def test_build_config_rejects_incomplete_settings(tmp_path, lines, flags, missing):
    import argparse

    from fairexp.cli import _add_common_flags

    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    parser = argparse.ArgumentParser()
    _add_common_flags(parser)
    args = parser.parse_args(["--config", str(path), "--synthetic", SYNTH, *flags])
    with pytest.raises(ValueError, match=missing):
        build_config(args)


# a value different from the default for every field; each is valid alone, but
# together they name two data sources, which validate() refuses
NON_DEFAULT = {
    "algorithm": "prop_control",
    "dataset_dir": "data/letor",
    "group_feature": 3,
    "group_strategy": "threshold",
    "group_threshold": 0.25,
    "synthetic": SyntheticSpec(
        n_queries=9, docs_per_query=7, d=5, group_balance=0.3, grade_noise=0.2, seed=4, theta_norm=2.5
    ),
    "n_validation": 7,
    "n_test": 9,
    "click_model": "custom",
    "custom_clicks": (0.9, 0.7, 0.5, 0.3, 0.1, 0.5, 0.4, 0.3, 0.2, 0.1),
    "rounds": 33,
    "k": 4,
    "lam": 0.25,
    "alpha": 0.05,
    "beta": "auto",
    "epsilon": 0.3,
    "gamma": 0.99,
    "lambda_f": 0.02,
    "exposure_kind": "table",
    "exposure_table": "exposure.txt",
    "seed": 5,
    "out_dir": "runs/out",
    "respect_certain": False,
    "diagnostics": True,
    "eval_stride": 3,
    "minmax": True,
}


def _config_lines(values: dict) -> list[str]:
    lines = []
    for name, value in values.items():
        if name == "synthetic":
            lines += [f"synthetic.{f.name}={getattr(value, f.name)}" for f in fields(value)]
        elif isinstance(value, tuple):
            lines.append(f"{name}={','.join(map(str, value))}")
        else:
            lines.append(f"{name}={value}")
    return lines


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_config_file_lines_end_only_at_line_ends(tmp_path, end):
    # a form feed or U+0085 in a comment is part of the comment
    path = tmp_path / "cfg.txt"
    path.write_bytes(end.join(["rounds=7 # a\x0cb", "k=5 # c\x85d", ""]).encode("utf-8"))
    assert parse_config_file(path) == {"rounds": 7, "k": 5}


def test_config_file_round_trips_every_field(tmp_path):
    import argparse

    from fairexp.cli import _add_common_flags

    default = ExperimentConfig()
    assert set(NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)}
    assert all(getattr(default, name) != value for name, value in NON_DEFAULT.items())
    assert all(
        getattr(SyntheticSpec(1, 2, 2), f.name) != getattr(NON_DEFAULT["synthetic"], f.name)
        for f in fields(SyntheticSpec)
    )
    path = tmp_path / "all.cfg"
    path.write_text("\n".join(_config_lines(NON_DEFAULT)) + "\n", encoding="utf-8")
    assert ExperimentConfig(**parse_config_file(path)) == ExperimentConfig(**NON_DEFAULT)
    parser = argparse.ArgumentParser()
    _add_common_flags(parser)
    with pytest.raises(ValueError, match="exactly one data source"):
        build_config(parser.parse_args(["--config", str(path)]))
    # without the synthetic spec and its split sizes, the rest is one valid
    # file-dataset config
    synthetic_only = ("synthetic", "n_validation", "n_test")
    file_config = {k: v for k, v in NON_DEFAULT.items() if k not in synthetic_only}
    path.write_text("\n".join(_config_lines(file_config)) + "\n", encoding="utf-8")
    config = build_config(parser.parse_args(["--config", str(path)]))
    assert config == ExperimentConfig(**file_config)

    for line in ("turbo=yes", "synthetic.turbo=1", "synthetic=n_queries=9"):
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown"):
            parse_config_file(path)


def test_run_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--synthetic",
            SYNTH,
            "--rounds",
            "20",
            "--k",
            "3",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "final_offline_ndcg10=" in printed
    assert (out / "trace.csv").exists()
    assert (out / "summary.txt").exists()
    assert (out / "checkpoint.npz").exists()


def test_run_prints_the_summary_as_the_file_writes_it(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--synthetic", SYNTH, "--rounds", "5", "--k", "3", "--out", str(out)])
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"outputs written to {out}"
    body = (out / "summary.txt").read_text(encoding="utf-8").splitlines()[1:]
    assert printed[:-1] == body
    assert "beta=1" in body  # a float prints as .10g, not as repr's 1.0


def test_eval_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--synthetic", SYNTH, "--rounds", "10", "--k", "3", "--out", str(out)])
    capsys.readouterr()

    test_file = tmp_path / "test.txt"
    lines = []
    for qid in range(1, 4):
        for i in range(4):
            lines.append(f"{i % 5} qid:{qid} 1:{0.1 * i} 2:{0.2 * i} 3:0.5 4:0.1")
    test_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["eval", "--checkpoint", str(out / "checkpoint.npz"), "--test-file", str(test_file)])
    assert code == 0
    assert "offline_ndcg10=" in capsys.readouterr().out


def test_eval_subcommand_rejects_a_test_file_of_another_width(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--synthetic", SYNTH, "--rounds", "5", "--k", "3", "--out", str(out)])
    capsys.readouterr()

    test_file = tmp_path / "test.txt"
    # a narrower file is widened (SVMLight omits zeros); a wider one is refused
    test_file.write_text("1 qid:1 1:0.1 5:0.2\n0 qid:1 1:0.3 2:0.1\n", encoding="utf-8")
    code = main(["eval", "--checkpoint", str(out / "checkpoint.npz"), "--test-file", str(test_file)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"fairexp eval: error: {test_file} does not fit the checkpoint: "
        "feature dimension 5 != model dimension 4"
    ]


def test_eval_widens_a_test_file_narrower_than_the_checkpoint(tmp_path, capsys):
    # test.txt never mentions feature 3, so it parses 2 wide; the run widens
    # it to the fold's 3, and eval must score it as the run did
    fold = tmp_path / "fold"
    fold.mkdir()
    train = [
        f"{i % 3} qid:{i // 4} 1:{0.1 * (i % 5)} 2:{0.3 * (i % 2)} 3:{0.05 * i}" for i in range(24)
    ]
    test = [f"{i % 4} qid:{i // 5} 1:{0.2 * (i % 3)} 2:{0.1 * i}" for i in range(15)]
    (fold / "train.txt").write_text("\n".join(train) + "\n", encoding="utf-8")
    (fold / "test.txt").write_text("\n".join(test) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--dataset", str(fold), "--group-feature", "1", "--rounds", "10", "--k", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    summary = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
    )
    checkpoint, test_file = str(out / "checkpoint.npz"), str(fold / "test.txt")
    assert main(["eval", "--checkpoint", checkpoint, "--test-file", test_file]) == 0
    final = float(summary["final_offline_ndcg10"])
    assert capsys.readouterr().out == f"offline_ndcg10={final:.6f}\n"


def test_eval_scales_as_a_minmax_run_did(tmp_path, capsys):
    # shifted and stretched features: the run scores them scaled by the train
    # split's bounds, which the checkpoint keeps for eval
    fold = tmp_path / "fold"
    fold.mkdir()
    train = [
        f"{i % 3} qid:{i // 6} 1:{100 + 40 * (i % 5)} 2:{-3 + 0.7 * (i % 2)} 3:{1000 * (i % 4)}"
        for i in range(60)
    ]
    test = [
        f"{i % 4} qid:{i // 5} 1:{110 + 30 * (i % 3)} 2:{-2.5 + 0.1 * i} 3:{500 * (i % 3)}"
        for i in range(25)
    ]
    (fold / "train.txt").write_text("\n".join(train) + "\n", encoding="utf-8")
    (fold / "test.txt").write_text("\n".join(test) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--dataset", str(fold), "--group-feature", "1", "--rounds", "40", "--k", "3"]
    assert main([*argv, "--minmax", "--seed", "3", "--out", str(out)]) == 0
    summary = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
    )
    checkpoint, test_file = str(out / "checkpoint.npz"), str(fold / "test.txt")
    with np.load(checkpoint) as data:
        np.testing.assert_array_equal(data["minmax_lo"], [100.0, -3.0, 0.0])
        np.testing.assert_array_equal(data["minmax_hi"], [260.0, -2.3, 3000.0])
    assert main(["eval", "--checkpoint", checkpoint, "--test-file", test_file]) == 0
    final = float(summary["final_offline_ndcg10"])
    assert capsys.readouterr().out == f"offline_ndcg10={final:.6f}\n"


def test_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--synthetic",
            SYNTH,
            "--rounds",
            "8",
            "--k",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "best=" in printed
    # the file writes values as trace.csv and summary.txt do
    config = ExperimentConfig(synthetic=parse_synthetic_flag(SYNTH), rounds=8, k=3)
    (best_params, best_ndcg), results = sweep(config)
    assert (out / "sweep_results.txt").read_text(encoding="utf-8").splitlines() == [
        "# fairexp-sweep v1",
        *(f"{params} {format_value(ndcg)}" for params, ndcg in results),
        f"best {best_params} {format_value(best_ndcg)}",
    ]


def test_eval_subcommand_rejects_a_tampered_checkpoint(tmp_path, capsys):
    import numpy as np

    out = tmp_path / "out"
    main(["run", "--synthetic", SYNTH, "--rounds", "5", "--k", "3", "--out", str(out)])
    capsys.readouterr()
    checkpoint = out / "checkpoint.npz"
    with np.load(checkpoint) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["info_matrix"] = -arrays["info_matrix"]
    np.savez(checkpoint, **arrays)

    test_file = tmp_path / "test.txt"
    test_file.write_text("1 qid:1 1:0.1 2:0.2 3:0.3 4:0.0\n", encoding="utf-8")
    code = main(["eval", "--checkpoint", str(checkpoint), "--test-file", str(test_file)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"fairexp eval: error: {checkpoint}: checkpoint info_matrix is not positive definite"
    ]


@pytest.mark.parametrize(
    "counts, message",
    [
        (lambda c: c * 0, "checkpoint pairs_count holds values that are not positive integers"),
        (lambda c: c - 0.5, "checkpoint pairs_count holds values that are not positive integers"),
        (lambda c: c[:-1], "checkpoint pairs_count has shape"),
    ],
    ids=["zero", "fractional", "shape"],
)
def test_eval_rejects_a_checkpoint_with_bad_pair_counts(tmp_path, capsys, counts, message):
    import numpy as np

    out = tmp_path / "out"
    main(["run", "--synthetic", SYNTH, "--rounds", "5", "--k", "3", "--out", str(out)])
    capsys.readouterr()
    checkpoint = out / "checkpoint.npz"
    with np.load(checkpoint) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["pairs_count"] = counts(arrays["pairs_count"])
    np.savez(checkpoint, **arrays)
    test_file = tmp_path / "test.txt"
    test_file.write_text("1 qid:1 1:0.1 2:0.2 3:0.3 4:0.0\n", encoding="utf-8")
    argv = ["eval", "--checkpoint", str(checkpoint), "--test-file", str(test_file)]
    assert _one_line_error(capsys, argv).startswith(f"{checkpoint}: {message}")


def _with(name, value):
    def change(arrays):
        arrays[name] = value(arrays)

    return change


def _at(name, index, value):
    def change(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value

    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (
            _with("pairs_lose", lambda a: a["pairs_lose"] + len(a["pairs_docs"])),
            "checkpoint pairs_lose holds indices outside 0..",
        ),
        (_at("pairs_win", 0, -1), "checkpoint pairs_win holds indices outside 0.."),
        (
            _with("pairs_win", lambda a: a["pairs_win"].astype(np.float64)),
            "checkpoint pairs_win has dtype float64, not an integer one",
        ),
        (_with("pairs_docs", lambda a: a["pairs_docs"][:, 1:]), "checkpoint pairs_docs has shape"),
        (_at("pairs_docs", (1, 0), np.nan), "checkpoint pairs_docs holds values that are not finite"),
    ],
    ids=["out-of-range", "negative", "float-index", "docs-width", "docs-nan"],
)
def test_eval_rejects_a_version_4_checkpoint_with_bad_pairs(tmp_path, capsys, change, message):
    out = tmp_path / "out"
    main(["run", "--synthetic", SYNTH, "--rounds", "5", "--k", "3", "--out", str(out)])
    capsys.readouterr()
    checkpoint = out / "checkpoint.npz"
    with np.load(checkpoint) as data:
        arrays = {name: data[name] for name in data.files}
    assert int(arrays["version"]) == 4 and len(arrays["pairs_y"])
    change(arrays)
    np.savez(checkpoint, **arrays)
    test_file = tmp_path / "test.txt"
    test_file.write_text("1 qid:1 1:0.1 2:0.2 3:0.3 4:0.0\n", encoding="utf-8")
    argv = ["eval", "--checkpoint", str(checkpoint), "--test-file", str(test_file)]
    assert _one_line_error(capsys, argv).startswith(f"{checkpoint}: {message}")


@pytest.mark.parametrize(
    "name, write, message",
    [
        ("checkpoint.npy", lambda f: np.save(f, np.arange(3.0)), "checkpoint is one array"),
        ("checkpoint.npz", lambda f: np.savez(f, theta=np.zeros(4)), "checkpoint has no version"),
        ("checkpoint.npz", lambda f: np.savez(f, version=[3, 3]), "checkpoint has no version"),
    ],
    ids=["npy", "no-version", "version-array"],
)
def test_eval_rejects_a_file_that_is_no_checkpoint(tmp_path, capsys, name, write, message):
    checkpoint = tmp_path / name
    with checkpoint.open("wb") as fh:
        write(fh)
    test_file = tmp_path / "test.txt"
    test_file.write_text("1 qid:1 1:0.1 2:0.2 3:0.3 4:0.0\n", encoding="utf-8")
    argv = ["eval", "--checkpoint", str(checkpoint), "--test-file", str(test_file)]
    assert _one_line_error(capsys, argv).startswith(f"{checkpoint}: {message}")


def _one_line_error(capsys, argv) -> str:
    """Run the CLI on bad input: exit status 2, nothing on stdout, and one
    ``fairexp <command>: error:`` line on stderr, whose message is returned."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    prefix = f"fairexp {argv[0]}: error: "
    assert line.startswith(prefix)
    return line[len(prefix) :]


def _fold(root, train="1 qid:1 1:0.5 2:0.1\n0 qid:1 1:0.2 2:0.3\n", vali=True):
    root.mkdir()
    good = "1 qid:9 1:0.4 2:0.2\n0 qid:9 1:0.1 2:0.6\n"
    (root / "train.txt").write_text(train, encoding="utf-8")
    (root / "test.txt").write_text(good, encoding="utf-8")
    if vali:
        (root / "vali.txt").write_text(good, encoding="utf-8")
    return root


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_malformed_split_is_one_line_naming_the_file(tmp_path, capsys, command):
    fold = _fold(tmp_path / "fold", train="1 qid:1 1:0.5 2:nan\n")
    message = _one_line_error(
        capsys, [command, "--dataset", str(fold), "--group-feature", "1", "--rounds", "3"]
    )
    assert message == f"{fold / 'train.txt'}: line 1: feature 2 has non-finite value 'nan'"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_missing_dataset_directory_is_one_line(tmp_path, capsys, command):
    missing = tmp_path / "nowhere"
    argv = [command, "--dataset", str(missing), "--group-feature", "1", "--rounds", "3"]
    if command == "sweep":
        assert "vali.txt does not exist" in _one_line_error(capsys, argv)
    else:
        assert str(missing / "train.txt") in _one_line_error(capsys, argv)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_config_file_missing_a_required_synthetic_key_is_one_line(tmp_path, capsys, command):
    path = tmp_path / "run.cfg"
    path.write_text("synthetic.n_queries=5\nsynthetic.seed=2\n", encoding="utf-8")
    message = _one_line_error(capsys, [command, "--config", str(path)])
    assert message == f"{path}: missing synthetic.docs_per_query, synthetic.d"


def test_a_synthetic_split_size_next_to_a_dataset_is_one_line(tmp_path, capsys):
    # the directory holds its own splits, so the size would be ignored
    path = tmp_path / "run.cfg"
    path.write_text("n_test=999\n", encoding="utf-8")
    argv = ["run", "--config", str(path), "--dataset", str(tmp_path), "--group-feature", "1"]
    message = _one_line_error(capsys, argv)
    assert message == "n_test is used only with synthetic, not dataset_dir"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_config_error_is_one_line(capsys, command):
    message = _one_line_error(capsys, [command, "--synthetic", SYNTH, "--eval-stride", "0"])
    assert message == "eval_stride must be >= 1"


def test_a_degenerate_group_feature_is_one_line(tmp_path, capsys):
    fold = _fold(tmp_path / "fold", train="1 qid:1 1:0.5 2:0.1\n0 qid:1 1:0.5 2:0.3\n")
    message = _one_line_error(capsys, ["run", "--dataset", str(fold), "--group-feature", "1"])
    assert "degenerate under median_split" in message


def test_sweep_without_vali_txt_refuses_before_any_job(tmp_path, capsys, monkeypatch):
    import fairexp.cli

    monkeypatch.setattr(fairexp.cli, "sweep_prepared", lambda *a: pytest.fail("a job ran"))
    fold = _fold(tmp_path / "fold", vali=False)
    message = _one_line_error(capsys, ["sweep", "--dataset", str(fold), "--group-feature", "1"])
    assert message == (
        f"sweep selects on the validation split, and {fold / 'vali.txt'} does not exist"
    )


def test_sweep_with_no_synthetic_validation_queries_refuses(tmp_path, capsys, monkeypatch):
    import fairexp.cli

    monkeypatch.setattr(fairexp.cli, "sweep_prepared", lambda *a: pytest.fail("a job ran"))
    path = tmp_path / "sweep.cfg"
    path.write_text("n_validation=0\n", encoding="utf-8")
    message = _one_line_error(capsys, ["sweep", "--config", str(path), "--synthetic", SYNTH])
    assert message == "sweep selects on the validation split, and n_validation is 0"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_with_fewer_than_one_worker_refuses_before_any_job(capsys, monkeypatch, workers):
    import fairexp.cli

    monkeypatch.setattr(fairexp.cli, "sweep_prepared", lambda *a: pytest.fail("a job ran"))
    argv = ["sweep", "--synthetic", SYNTH, "--rounds", "2", "--k", "3", "--workers", workers]
    assert _one_line_error(capsys, argv) == f"--workers must be >= 1, got {workers}"
    from fairexp.harness import sweep

    config = ExperimentConfig(synthetic=parse_synthetic_flag(SYNTH), rounds=2, k=3)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        sweep(config, workers=int(workers))


_ZERO_B = "1 qid:1 1:0.5 2:0.1\n0 qid:1 1:0.2 2:0.3\n"
_ZERO_A = "0 qid:1 1:0.5 2:0.1\n1 qid:1 1:0.2 2:0.3\n"


@pytest.mark.parametrize(
    "command, train, group",
    [
        ("run", _ZERO_B, "B"),
        ("sweep", _ZERO_B, "B"),
        ("run", _ZERO_A, "A"),
        ("sweep", _ZERO_A, "A"),
    ],
    ids=["run", "sweep", "zero_a-run", "zero_a-sweep"],
)
def test_an_undefined_auto_beta_is_one_line_before_any_round(
    tmp_path, capsys, monkeypatch, command, train, group
):
    import fairexp.cli

    monkeypatch.setattr(fairexp.cli, "run_prepared", lambda *a: pytest.fail("a round ran"))
    monkeypatch.setattr(fairexp.cli, "sweep_prepared", lambda *a: pytest.fail("a job ran"))
    # the median split puts the document with the larger feature 1 alone in
    # group A, so the grade-0 document alone makes its group's mean 0
    fold = _fold(tmp_path / "fold", train=train)
    argv = [command, "--dataset", str(fold), "--group-feature", "1", "--beta", "auto"]
    assert _one_line_error(capsys, argv) == f"group {group} has zero mean utility; beta undefined"


@pytest.mark.parametrize(
    "command, lines, flags, message",
    [
        ("run", [], ["--rounds", "1_0"], "--rounds: '1_0' is not a plain ASCII number"),
        ("run", [], ["--k", "\u0663"], "--k: '\u0663' is not a plain ASCII number"),
        ("run", ["rounds=1_0"], [], "{cfg}:1: rounds: '1_0' is not a plain ASCII number"),
        ("run", ["k=3", "lam=\u0661"], [], "{cfg}:2: lam: '\u0661' is not a plain ASCII number"),
        (
            "run",
            [],
            ["--synthetic", "n_queries=1_0,docs_per_query=6,d=3"],
            "--synthetic: n_queries: '1_0' is not a plain ASCII number",
        ),
        ("run", [], ["--beta", "1_0"], "--beta: '1_0' is not a plain ASCII number"),
        (
            "run",
            ["custom_clicks=0.5,1_0"],
            [],
            "{cfg}:1: custom_clicks: '1_0' is not a plain ASCII number",
        ),
        ("sweep", [], ["--workers", "\u0662"], "--workers: '\u0662' is not a plain ASCII number"),
    ],
    ids=["flag", "flag_digit", "line", "line_digit", "synthetic", "beta", "clicks", "workers"],
)
def test_a_number_with_separators_or_other_digits_is_one_line(
    tmp_path, capsys, monkeypatch, command, lines, flags, message
):
    # int() and float() read both: '1_0' as 10 and Arabic-Indic digits as theirs
    import fairexp.cli

    monkeypatch.setattr(fairexp.cli, "run_prepared", lambda *a: pytest.fail("a round ran"))
    monkeypatch.setattr(fairexp.cli, "sweep_prepared", lambda *a: pytest.fail("a job ran"))
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--config", str(path), "--synthetic", SYNTH, *flags]
    assert _one_line_error(capsys, argv) == message.format(cfg=path)


def test_eval_rejects_a_malformed_test_file(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--synthetic", SYNTH, "--rounds", "5", "--k", "3", "--out", str(out)])
    capsys.readouterr()
    test_file = tmp_path / "test.txt"
    test_file.write_text("1 qid:1 1:0.1 1:0.2\n", encoding="utf-8")
    argv = ["eval", "--checkpoint", str(out / "checkpoint.npz"), "--test-file", str(test_file)]
    assert _one_line_error(capsys, argv) == f"{test_file}: line 1: feature id 1 appears twice"


def test_errors_inside_the_round_loop_propagate(monkeypatch):
    from fairexp import ranker

    def failing_update(*args):
        raise ranker.NumericError("refit diverged")

    monkeypatch.setattr(ranker, "update", failing_update)
    with pytest.raises(ranker.NumericError, match="refit diverged"):
        main(["run", "--synthetic", SYNTH, "--rounds", "3", "--k", "3"])


def _exposure_table(root, ranks):
    path = root / "exposure.txt"
    path.write_text("".join(f"{r} {1.0 / r}\n" for r in range(1, ranks + 1)), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "lines, flags, message",
    [
        ([], ["--click-model", "bogus"], "unknown click model 'bogus'"),
        ([], ["--exposure", "bogus"], "unknown exposure model kind 'bogus'"),
        ([], ["--exposure", "table", "--exposure-table", "{tmp}/nope.txt"], "No such file"),
        ([], ["--exposure", "table", "--exposure-table", "{short}"], "2 ranks, fewer than k=3"),
        ([], ["--exposure", "table", "--exposure-table", "{nan}"], "exposure nan must be finite"),
        ([], ["--exposure", "table", "--exposure-table", "{inf}"], "exposure inf must be finite"),
        (
            [],
            ["--exposure", "table", "--exposure-table", "{latin1}"],
            "latin1.txt: not UTF-8 text (invalid start byte)",
        ),
        (
            [],
            ["--exposure-table", "{short}"],
            "exposure_table is used only with exposure_kind 'table', not 'log_discount'",
        ),
        (
            ["click_model=custom", "custom_clicks=0.1,0.2,0.3,0.4,1.5,0,0,0,0,0"],
            [],
            "custom_clicks[4]: probability 1.5 outside [0, 1]",
        ),
        (
            ["custom_clicks=0.1,0.2,0.3,0.4,0.5,0,0,0,0,0"],
            [],
            "custom_clicks is used only with click_model 'custom', not 'perfect'",
        ),
        ([], ["--seed", "-1"], "seed must be >= 0"),
        ([], ["--lambda", "inf"], "lam must be finite and positive"),
        ([], ["--lambda-f", "inf"], "lambda_f must be finite and >= 0"),
        (
            [],
            ["--dataset", "{tmp}/fold", "--group-feature", "1"],
            "give exactly one data source: dataset_dir or synthetic",
        ),
        ([], ["--group-feature", "99"], "group_feature is used only with dataset_dir, not synthetic"),
        ([], ["--synthetic", f"{SYNTH},theta_norm=inf"], "theta_norm must be finite and positive"),
        ([], ["--synthetic", f"{SYNTH},theta_norm=nan"], "theta_norm must be finite and positive"),
        (
            [],
            ["--synthetic", "n_queries=10,docs_per_query=6,d=4,seed=-1"],
            "synthetic seed must be >= 0",
        ),
    ],
    ids=[
        "click_model",
        "exposure_kind",
        "missing_table",
        "short_table",
        "nan_table",
        "inf_table",
        "latin1_table",
        "ignored_table",
        "custom_clicks",
        "ignored_clicks",
        "seed",
        "infinite_lam",
        "infinite_lambda_f",
        "two_sources",
        "synthetic_group_feature",
        "infinite_theta_norm",
        "nan_theta_norm",
        "synthetic_seed",
    ],
)
def test_a_bad_model_or_seed_is_one_line_before_any_round(
    tmp_path, capsys, monkeypatch, command, lines, flags, message
):
    import fairexp.cli

    monkeypatch.setattr(fairexp.cli, "run_prepared", lambda *a: pytest.fail("a round ran"))
    monkeypatch.setattr(fairexp.cli, "sweep_prepared", lambda *a: pytest.fail("a job ran"))
    tables = {"short": _exposure_table(tmp_path, 2)}
    for value in ("nan", "inf"):
        tables[value] = tmp_path / f"{value}.txt"
        tables[value].write_text(f"1 1.0\n2 {value}\n3 0.5\n", encoding="utf-8")
    tables["latin1"] = tmp_path / "latin1.txt"
    tables["latin1"].write_bytes("1 1.0\n2 0.5 # \u00bd\n".encode("latin-1"))
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags = [f.format(tmp=tmp_path, **tables) for f in flags]
    argv = [command, "--config", str(path), "--synthetic", SYNTH, "--rounds", "2", "--k", "3"]
    assert message in _one_line_error(capsys, argv + flags)


def test_a_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes("rounds=4  # \u00bd\n".encode("latin-1"))
    with pytest.raises(ValueError) as caught:
        parse_config_file(path)
    assert str(caught.value) == f"{path}: not UTF-8 text (invalid start byte)"
    argv = ["run", "--config", str(path), "--synthetic", SYNTH]
    assert _one_line_error(capsys, argv) == str(caught.value)


@pytest.mark.parametrize(
    "text, expected",
    [("1", True), ("TRUE", True), ("Yes", True), ("on", True)]
    + [("0", False), ("False", False), ("NO", False), ("off", False)],
)
def test_config_booleans_accept_both_spellings(tmp_path, text, expected):
    path = tmp_path / "run.cfg"
    path.write_text(f"diagnostics={text}\n", encoding="utf-8")
    assert parse_config_file(path)["diagnostics"] is expected


@pytest.mark.parametrize("line", ["respect_certain=no thanks", "diagnostics=ture", "minmax="])
def test_a_config_boolean_outside_both_spellings_is_rejected(tmp_path, capsys, line):
    path = tmp_path / "run.cfg"
    path.write_text(f"# settings\n{line}\n", encoding="utf-8")
    key, _, value = line.partition("=")
    with pytest.raises(ValueError) as caught:
        parse_config_file(path)
    assert str(caught.value) == (
        f"{path}:2: {key}: expected 1/true/yes/on or 0/false/no/off, got {value!r}"
    )
    assert _one_line_error(capsys, ["run", "--config", str(path), "--synthetic", SYNTH]) == str(
        caught.value
    )


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "spec, message",
    [
        ("n_queries=5", "--synthetic: missing docs_per_query, d"),
        ("n_queries=5,d=4", "--synthetic: missing docs_per_query"),
        (
            "n_queries=5,docs_per_query=x,d=4",
            "--synthetic: docs_per_query: invalid literal for int() with base 10: 'x'",
        ),
        ("n_queries=5,docs_per_query=6,d=4,bogus=1", "--synthetic: unknown synthetic key 'bogus'"),
    ],
    ids=["two_missing", "one_missing", "bad_value", "unknown_key"],
)
def test_a_bad_synthetic_flag_is_one_line(capsys, monkeypatch, command, spec, message):
    import fairexp.cli

    monkeypatch.setattr(fairexp.cli, "run_prepared", lambda *a: pytest.fail("a round ran"))
    monkeypatch.setattr(fairexp.cli, "sweep_prepared", lambda *a: pytest.fail("a job ran"))
    assert _one_line_error(capsys, [command, "--synthetic", spec]) == message



def _no_round_or_job(monkeypatch):
    import fairexp.cli

    monkeypatch.setattr(fairexp.cli, "run_prepared", lambda *a: pytest.fail("a round ran"))
    monkeypatch.setattr(fairexp.cli, "sweep_prepared", lambda *a: pytest.fail("a job ran"))


# every value flag whose parser can refuse text: the int, float and beta ones
PARSED_FLAGS = [
    "--group-feature",
    "--rounds",
    "--k",
    "--epsilon",
    "--beta",
    "--lambda",
    "--alpha",
    "--gamma",
    "--lambda-f",
    "--seed",
    "--eval-stride",
]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag", PARSED_FLAGS)
def test_an_unparseable_flag_value_is_one_line_naming_the_flag(
    capsys, monkeypatch, command, flag
):
    _no_round_or_job(monkeypatch)
    message = _one_line_error(capsys, [command, "--synthetic", SYNTH, flag, "x"])
    assert message in (
        f"{flag}: invalid literal for int() with base 10: 'x'",
        f"{flag}: could not convert string to float: 'x'",
    )


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--epsilon", "-inf"],
        ["--epsilon", "-1e-3"],
        ["--epsilon=-1e-3"],
        ["--epsilon", "-1"],
        ["--eps", "-1e-3"],
    ],
    ids=["minus_inf", "exponent", "joined", "integer", "abbreviated"],
)
def test_a_negative_value_reaches_its_check(capsys, monkeypatch, command, flags):
    _no_round_or_job(monkeypatch)
    argv = [command, "--synthetic", SYNTH, *flags]
    assert _one_line_error(capsys, argv) == "epsilon must be positive"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_unknown_algorithm_is_one_line(capsys, monkeypatch, command):
    _no_round_or_job(monkeypatch)
    argv = [command, "--synthetic", SYNTH, "--algo", "nope"]
    assert _one_line_error(capsys, argv) == "unknown algorithm 'nope'"


def test_sweep_with_an_unparseable_worker_count_refuses_before_any_job(capsys, monkeypatch):
    _no_round_or_job(monkeypatch)
    argv = ["sweep", "--synthetic", SYNTH, "--workers", "x"]
    assert _one_line_error(capsys, argv) == "--workers: invalid literal for int() with base 10: 'x'"


_SYNTHETIC_LINES = ["synthetic.n_queries=5", "synthetic.docs_per_query=6", "synthetic.d=4"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "lines, flags, message",
    [
        (
            ["rounds=3", "# the same key again", "rounds=4"],
            ["--synthetic", SYNTH],
            "{path}:3: rounds: given twice ({path}:1: rounds=3 and {path}:3: rounds=4)",
        ),
        (
            [*_SYNTHETIC_LINES, "synthetic.d=4"],
            [],
            "{path}:4: synthetic.d: given twice ({path}:3: synthetic.d=4 and {path}:4: synthetic.d=4)",
        ),
        ([], ["--synthetic", f"{SYNTH},d=5"], "--synthetic: d: given twice (d=4 and d=5)"),
    ],
    ids=["file", "file_synthetic", "synthetic_flag"],
)
def test_a_repeated_key_is_one_line_naming_both_places(
    tmp_path, capsys, monkeypatch, command, lines, flags, message
):
    _no_round_or_job(monkeypatch)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--config", str(path), *flags]
    assert _one_line_error(capsys, argv) == message.format(path=path)


def test_a_flag_given_twice_keeps_the_last():
    import argparse

    from fairexp.cli import _add_common_flags

    parser = argparse.ArgumentParser()
    _add_common_flags(parser)
    args = parser.parse_args(["--synthetic", SYNTH, "--rounds", "3", "--rounds", "7"])
    assert build_config(args).rounds == 7

def test_a_cli_sweep_loads_its_splits_once(monkeypatch, capsys):
    from fairexp import harness

    loads = []
    original = harness.load_datasets

    def counting_load(config):
        loads.append(config)
        return original(config)

    monkeypatch.setattr(harness, "load_datasets", counting_load)
    assert main(["sweep", "--synthetic", SYNTH, "--rounds", "2", "--k", "3"]) == 0
    assert "best=" in capsys.readouterr().out
    assert len(loads) == 1


def test_errors_inside_a_sweep_job_propagate(monkeypatch):
    from fairexp import ranker

    def failing_update(*args):
        raise ranker.NumericError("refit diverged")

    monkeypatch.setattr(ranker, "update", failing_update)
    with pytest.raises(ranker.NumericError, match="refit diverged"):
        main(["sweep", "--synthetic", SYNTH, "--rounds", "2", "--k", "3"])
