import math

import pytest

from fairexp.cli import build_config, main, parse_config_file, parse_synthetic_flag
from fairexp.ranker import DimensionError


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
    test_file.write_text("1 qid:1 1:0.1 2:0.2 3:0.3\n0 qid:1 1:0.3 2:0.1 3:0.0\n", encoding="utf-8")
    with pytest.raises(DimensionError):
        main(["eval", "--checkpoint", str(out / "checkpoint.npz"), "--test-file", str(test_file)])


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
    assert (out / "sweep_results.txt").exists()
