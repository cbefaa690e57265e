import json

import pytest
from click.testing import CliRunner

from phonectc.cli import main


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    from phonectc.world import SyntheticWorldConfig, generate_and_write

    cfg = SyntheticWorldConfig(
        num_seen_languages=2,
        num_unseen=1,
        utterances_per_language=16,
        low_resource_utterances=10,
        lexicon_size_range=(10, 12),
        seed=8,
    )
    return str(generate_and_write(cfg, tmp_path_factory.mktemp("world")))


def test_normalize_stdin(runner):
    result = runner.invoke(main, ["normalize"], input="Hello, World!\n")
    assert result.exit_code == 0
    assert result.output.strip() == "hello world"


def test_world_gen_and_eval(runner, tmp_path):
    cfg = tmp_path / "w.yaml"
    cfg.write_text(
        "num_seen_languages: 1\nnum_unseen: 0\n"
        "utterances_per_language: 10\nlow_resource_utterances: 10\n"
    )
    out = tmp_path / "w"
    result = runner.invoke(
        main, ["world", "gen", "-o", str(out), "--seed", "7", "--config", str(cfg)]
    )
    assert result.exit_code == 0, result.output
    ref = out / "lang-s1" / "text.test.txt"
    result = runner.invoke(
        main, ["eval", "--ref", str(ref), "--hyp", str(ref)]
    )
    assert result.exit_code == 0
    assert result.output.strip() == "0.00"


def test_world_gen_rejects_unknown_key(runner, tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("not_a_field: 1\n")
    result = runner.invoke(
        main, ["world", "gen", "-o", str(tmp_path / "w"), "--config", str(cfg)]
    )
    assert result.exit_code == 2


def test_g2p_and_lexicon(runner, world_dir, tmp_path):
    from phonectc.textnorm import Prolex

    lex = Prolex.read_tsv(f"{world_dir}/lang-s1/lexicon.tsv")
    word = sorted(lex.words())[0]
    result = runner.invoke(
        main, ["g2p", "--fst", f"{world_dir}/lang-s1/g2p.fst.txt", word]
    )
    assert result.exit_code == 0
    assert result.output.split("\t")[0] == word

    words_file = tmp_path / "words.txt"
    words_file.write_text("\n".join(sorted(lex.words())[:5]) + "\n")
    out = tmp_path / "lex.tsv"
    result = runner.invoke(
        main,
        ["lexicon", "--g2p", f"{world_dir}/lang-s1/g2p.fst.txt",
         "--words", str(words_file), "-o", str(out), "--stats"],
    )
    assert result.exit_code == 0, result.output
    stats = json.loads(result.output.strip().splitlines()[-1])
    assert stats["entries"] == 5


def test_tokenizer_roundtrip(runner, world_dir, tmp_path):
    model_path = tmp_path / "bpe.model"
    result = runner.invoke(
        main,
        ["tokenizer", "train",
         "--input", f"{world_dir}/lang-s1/text.train.txt",
         "--vocab-size", "60", "-o", str(model_path)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main, ["tokenizer", "encode", "--model", str(model_path)],
        input="dummy\n",
    )
    assert result.exit_code == 0


def test_lm_train_and_score(runner, world_dir, tmp_path):
    arpa = tmp_path / "lm.arpa"
    result = runner.invoke(
        main,
        ["lm", "train", "--input", f"{world_dir}/lang-s1/text.train.txt",
         "--order", "2", "--lexicon", f"{world_dir}/lang-s1/lexicon.tsv",
         "-o", str(arpa)],
    )
    assert result.exit_code == 0, result.output
    with open(f"{world_dir}/lang-s1/text.train.txt") as fh:
        sent = fh.readline().strip()
    result = runner.invoke(main, ["lm", "score", "--arpa", str(arpa), sent])
    assert result.exit_code == 0
    assert float(result.output.split("\t")[0]) < 0


def test_full_cli_pipeline(runner, world_dir, tmp_path):
    ckpt = tmp_path / "s1.ckpt"
    result = runner.invoke(
        main,
        ["train", "--world", world_dir, "--language", "s1", "--seed", "0",
         "-o", str(ckpt)],
    )
    assert result.exit_code == 0, result.output

    arpa = tmp_path / "lm.arpa"
    runner.invoke(
        main,
        ["lm", "train", "--input", f"{world_dir}/lang-s1/text.train.txt",
         "--order", "2", "--lexicon", f"{world_dir}/lang-s1/lexicon.tsv",
         "-o", str(arpa)],
    )
    graph = tmp_path / "graph.fst.txt"
    result = runner.invoke(
        main,
        ["graph", "build", "--inventory", f"{world_dir}/lang-s1/inventory.txt",
         "--lexicon", f"{world_dir}/lang-s1/lexicon.tsv",
         "--arpa", str(arpa), "-o", str(graph)],
    )
    assert result.exit_code == 0, result.output

    hyp = tmp_path / "hyp.txt"
    result = runner.invoke(
        main,
        ["decode", "--checkpoint", str(ckpt),
         "--features", f"{world_dir}/lang-s1/feats.test.bin",
         "--graph", str(graph), "-o", str(hyp)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["eval", "--ref", f"{world_dir}/lang-s1/text.test.txt",
         "--hyp", str(hyp)],
    )
    assert result.exit_code == 0
    assert float(result.output.strip()) < 50.0

    ft = tmp_path / "ft.ckpt"
    result = runner.invoke(
        main,
        ["finetune", "--world", world_dir, "--pretrained", str(ckpt),
         "--language", "u1", "--utterances", "6", "-o", str(ft)],
    )
    assert result.exit_code == 0, result.output

    emb = tmp_path / "emb.tsv"
    result = runner.invoke(
        main, ["embeddings", "export", "--checkpoint", str(ft), "-o", str(emb)]
    )
    assert result.exit_code == 0
    assert emb.read_text().startswith("<b>\t")


def test_decode_requires_mode(runner, tmp_path):
    result = runner.invoke(
        main, ["decode", "--checkpoint", "x", "--features", "y"]
    )
    assert result.exit_code == 2
    result = runner.invoke(
        main,
        ["decode", "--checkpoint", "x", "--features", "y",
         "--graph", "g", "--lexicon-free"],
    )
    assert result.exit_code == 2


def test_graph_build_requires_one_unit_source(runner):
    result = runner.invoke(
        main, ["graph", "build", "--lexicon", "l", "--arpa", "a", "-o", "o"]
    )
    assert result.exit_code == 2


def test_experiment_run(runner, world_dir, tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "mode: monolingual\nlanguages: [s1]\nlm_order: 2\n"
        "encoder: {hidden_dim: 8, num_blocks: 1}\n"
        "schedule: {max_epochs: 3, early_stop_patience: 3}\n"
    )
    out = tmp_path / "expout"
    result = runner.invoke(
        main,
        ["experiment", "run", "--world", world_dir, "--config", str(cfg),
         "-o", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert (out / "results.csv").exists()
    report = json.loads(result.output.strip().splitlines()[-1])
    assert report["mode"] == "monolingual"


def test_experiment_rejects_bad_config(runner, world_dir, tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("mode: bogus\n")
    result = runner.invoke(
        main, ["experiment", "run", "--world", world_dir, "--config", str(cfg)]
    )
    assert result.exit_code == 2


@pytest.fixture
def damaged_files(tmp_path):
    """A good checkpoint, plus a checkpoint and a feature set that each
    carry two trailing bytes."""
    import numpy as np

    from phonectc.featio import write_feature_set
    from phonectc.inventory import make_alphabet
    from phonectc.model import EncoderConfig, init_checkpoint, save_checkpoint

    config = EncoderConfig(input_dim=4, hidden_dim=6, num_blocks=1)
    good = tmp_path / "good.ckpt"
    save_checkpoint(init_checkpoint(config, make_alphabet({"a", "b"})), good)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(good.read_bytes() + b"\0\0")
    feats = tmp_path / "bad.bin"
    write_feature_set(feats, [np.zeros((3, 4))])
    feats.write_bytes(feats.read_bytes() + b"\0\0")
    return {"good": str(good), "bad": str(bad), "feats": str(feats),
            "out": str(tmp_path / "out")}


@pytest.mark.parametrize("args, culprit", [
    (["decode", "--checkpoint", "{bad}", "--features", "{feats}",
      "--lexicon-free"], "bad"),
    (["decode", "--checkpoint", "{good}", "--features", "{feats}",
      "--lexicon-free"], "feats"),
    (["finetune", "--world", "{world}", "--pretrained", "{bad}",
      "--language", "u1", "-o", "{out}"], "bad"),
    (["embeddings", "export", "--checkpoint", "{bad}", "-o", "{out}"], "bad"),
], ids=["decode-checkpoint", "decode-features", "finetune", "embeddings-export"])
def test_damaged_input_file_is_a_one_line_error(runner, world_dir, damaged_files,
                                                args, culprit):
    files = {**damaged_files, "world": world_dir}
    result = runner.invoke(main, [a.format(**files) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Error: ")
    assert files[culprit] in lines[0]
