import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from phonectc.cli import main


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    from phonectc.world import SyntheticWorldConfig, generate_world, write_world

    cfg = SyntheticWorldConfig(
        num_seen_languages=2,
        num_unseen=1,
        utterances_per_language=16,
        low_resource_utterances=10,
        lexicon_size_range=(10, 12),
        seed=8,
    )
    return str(write_world(generate_world(cfg), tmp_path_factory.mktemp("world")))


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


# config files that cannot be read or parsed (exit 1), and ones that parse
# but whose content the config rejects (exit 2), with the text each error
# must name; None stands for a path where no file is
BAD_CONFIG_FILES = [(None, 1, "{path}"), ("x: [\n", 1, "{path}"),
                    ("5\n", 2, "{path}")]


def test_world_gen_rejects_unknown_key(runner, tmp_path):
    cfg = tmp_path / "bad.yaml"
    for text, code, culprit in BAD_CONFIG_FILES + [
            ("not_a_field: 1\n", 2, "not_a_field"),
            ("inventory_size_range: [5, 2]\n", 2, "inventory_size_range"),
            ("num_seen_languages: two\n", 2, "num_seen_languages"),
            ("utterances_per_language: true\n", 2, "utterances_per_language"),
            ("frames_per_phoneme_range: [2, x]\n", 2,
             "frames_per_phoneme_range"),
            ("feature_noise_std: loud\n", 2, "feature_noise_std"),
            ("seed: -2\n", 2, "seed"),
            ("split_fractions: [0.5, 0.5, 0.0]\n", 2, "split_fractions"),
            ("utterances_per_language: 2\n", 2, "utterances_per_language"),
            ("num_seen_languages: 0\n", 2, "num_seen_languages"),
            ("low_resource_utterances: 0\n", 2, "low_resource_utterances")]:
        cfg.unlink(missing_ok=True)
        if text is not None:
            cfg.write_text(text)
        result = runner.invoke(
            main, ["world", "gen", "-o", str(tmp_path / "w"), "--config", str(cfg)]
        )
        assert result.exit_code == code, (text, result.output)
        last = result.output.strip().splitlines()[-1]
        assert last.startswith("Error: "), text
        assert culprit.format(path=cfg) in last, text
        assert not (tmp_path / "w").exists(), text


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


def test_tokenizer_train_rejects_small_vocab(runner, world_dir, tmp_path):
    result = runner.invoke(
        main,
        ["tokenizer", "train", "--input", f"{world_dir}/lang-s1/text.train.txt",
         "--vocab-size", "2", "-o", str(tmp_path / "bpe.model")],
    )
    assert result.exit_code == 2, result.output
    last = result.output.strip().splitlines()[-1]
    assert last.startswith("Error: ") and "vocab_size 2" in last
    assert not (tmp_path / "bpe.model").exists()


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


def test_graph_build_keeps_the_unit_sources_units(runner, tmp_path):
    from phonectc.fst import Fst
    from phonectc.ngram import train_ngram

    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("ab\ta b\nax\ta x\n")
    arpa = tmp_path / "lm.arpa"
    train_ngram([["ab", "ax"]], order=1).write_arpa(arpa)
    graph = tmp_path / "graph.fst.txt"
    args = ["graph", "build", "--lexicon", str(lexicon), "--arpa", str(arpa),
            "-o", str(graph), "--inventory"]
    inventory = tmp_path / "inventory.txt"
    inventory.write_text("a\nb\n")
    result = runner.invoke(main, args + [str(inventory)])
    assert result.exit_code == 0, result.output
    isyms = set(Fst.read_text(graph).isyms.symbols())
    assert {"a", "b"} <= isyms and "x" not in isyms

    inventory.write_text("c\n")
    result = runner.invoke(main, args + [str(inventory)])
    assert result.exit_code == 2
    assert str(lexicon) in result.output.strip().splitlines()[-1]


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
    for text in ("mode: bogus\n",
                 "mode: multilingual_phoneme\n",
                 "mode: monolingual\nschedule: {max_epoch: 2}\n",
                 "mode: monolingual\nencoder: {hidden: 8}\n",
                 "mode: monolingual\nsupervision: grapheme\n",
                 "mode: monolingual\nbeam: 0\n",
                 "mode: monolingual\nlm_order: 0\n",
                 "mode: monolingual\nacoustic_scale: -1.0\n",
                 "mode: monolingual\nseed: zero\n",
                 "mode: monolingual\nseed: -1\n",
                 "mode: monolingual\nbeam: 2.5\n",
                 "mode: monolingual\nlanguages: [s1, 2]\n",
                 "mode: monolingual\nforgetting_eval: maybe\n",
                 "mode: monolingual\nlanguages: [zz]\n",
                 'mode: monolingual\nschedule: {batch_size: "8"}\n',
                 "mode: monolingual\nencoder: {hidden_dim: 0}\n",
                 "mode: monolingual\nschedule: {warmup_fraction: 2}\n",
                 "mode: monolingual\nschedule: {max_epochs: 0}\n",
                 "mode: crosslingual_ft\ninit_mode: scratch\nft_language: zz\n"):
        cfg.write_text(text)
        result = runner.invoke(
            main, ["experiment", "run", "--world", world_dir, "--config", str(cfg),
                   "-o", str(tmp_path / "out")]
        )
        assert result.exit_code == 2, text
        assert result.output.strip().splitlines()[-1].startswith("Error: "), text
        assert not (tmp_path / "out").exists(), text
    missing_ckpt = tmp_path / "nope.ckpt"
    for text, code, culprit in BAD_CONFIG_FILES + [
            (f"mode: crosslingual_ft\npretrained_path: {missing_ckpt}\n", 1,
             str(missing_ckpt)),
            ("mode: multilingual\nsupervision: subword\nbpe_vocab_size: 3\n",
             2, "{path}: bpe_vocab_size")]:
        cfg.unlink(missing_ok=True)
        if text is not None:
            cfg.write_text(text)
        result = runner.invoke(
            main, ["experiment", "run", "--world", world_dir, "--config", str(cfg),
                   "-o", str(tmp_path / "out")]
        )
        assert result.exit_code == code, (text, result.output)
        last = result.output.strip().splitlines()[-1]
        assert last.startswith("Error: ") and culprit.format(path=cfg) in last
        assert not (tmp_path / "out").exists(), text


@pytest.mark.parametrize("args", [
    ["train", "--language", "zz"],
    ["finetune", "--language", "zz", "--pretrained", "missing.ckpt"],
])
def test_unknown_language_is_a_one_line_error(runner, world_dir, tmp_path, args):
    out = tmp_path / "out.ckpt"
    result = runner.invoke(main, [*args, "--world", world_dir, "-o", str(out)])
    assert result.exit_code == 2, result.output
    last = result.output.strip().splitlines()[-1]
    assert last.startswith("Error: ") and "'zz'" in last and "s1, s2, u1" in last
    assert not out.exists()


def test_decode_rejects_zero_beam(runner, tmp_path):
    result = runner.invoke(
        main, ["decode", "--checkpoint", str(tmp_path / "m.ckpt"), "--features",
               str(tmp_path / "f.bin"), "--lexicon-free", "--beam", "0"]
    )
    assert result.exit_code == 2
    assert "--beam" in result.output.strip().splitlines()[-1]


def test_train_subword_writes_bpe_model(runner, world_dir, tmp_path):
    ckpt = tmp_path / "s1.ckpt"
    result = runner.invoke(
        main,
        ["train", "--world", world_dir, "--language", "s1", "--supervision",
         "subword", "--bpe-vocab-size", "50", "-o", str(ckpt)],
    )
    assert result.exit_code == 0, result.output
    from phonectc.bpe import BpeModel
    from phonectc.model import load_checkpoint

    bpe = BpeModel.load(str(ckpt) + ".bpe")
    assert load_checkpoint(ckpt).alphabet.units == bpe.vocab.units


# a checkpoint and a feature set in the formats the package wrote before
# both became .npz archives: a PCTC version-1 checkpoint (hidden_dim 1,
# alphabet <b> a) and an FTS0 feature set of one 1 x 2 utterance
PCTC_V1_CHECKPOINT = bytes.fromhex(
    "5043544301000000d30000007b22616c706861626574223a207b226b696e6422"
    "3a202270686f6e656d65222c2022756e697473223a205b223c623e222c202261"
    "225d7d2c2022636f6e666967223a207b22636f6e765f6b65726e656c223a2031"
    "2c202264726f706f7574223a20302e302c202268696464656e5f64696d223a20"
    "312c2022696e7075745f64696d223a20312c20226e756d5f626c6f636b73223a"
    "20312c202273756273616d706c655f737472696465223a20327d2c20226d6574"
    "6164617461223a207b2273656564223a20302c202273746570223a20307d7d09"
    "00000009000000626c6f636b302e623101000000040000000000000000000000"
    "00000000000000000000000000000000000000000000000009000000626c6f63"
    "6b302e6232010000000100000000000000000000000b000000626c6f636b302e"
    "6c6e2e62010000000100000000000000000000000b000000626c6f636b302e6c"
    "6e2e670100000001000000000000000000f03f09000000626c6f636b302e7731"
    "020000000400000001000000cc45bde9cfe8c0bf6db068a4577ee43ff0d484ec"
    "bbdaba3fed43e6183424e1bf09000000626c6f636b302e773202000000010000"
    "0004000000e6d1ce955f24c73f3c10bd262fdde43fa3bc69bc7c4ede3f28afda"
    "c1ff84d6bf06000000636f6e762e620100000001000000000000000000000006"
    "000000636f6e762e77030000000100000001000000010000004184db89ed17c0"
    "3f050000006f75742e77020000000200000001000000bbc89c952a3ff4bffbf4"
    "2049ddf1e3bf"
)
FTS0_FEATURE_SET = bytes.fromhex(
    "465453300100000001000000020000000000003f000080bf"
)


@pytest.fixture
def damaged_files(tmp_path):
    """A good checkpoint, plus a checkpoint and a feature set that each
    carry two trailing bytes, a single-matrix file with a FEAT magic,
    which is not a feature set, a PCTC checkpoint, an FTS0 feature set and
    a path where no file is."""
    import struct

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
    good_feats = tmp_path / "good.bin"
    good_feats.write_bytes(feats.read_bytes())
    feats.write_bytes(feats.read_bytes() + b"\0\0")
    matrix = tmp_path / "matrix.bin"
    matrix.write_bytes(b"FEAT" + struct.pack("<II", 3, 4) + bytes(4 * 3 * 4))
    v1 = tmp_path / "v1.ckpt"
    v1.write_bytes(PCTC_V1_CHECKPOINT)
    fts0 = tmp_path / "fts0.bin"
    fts0.write_bytes(FTS0_FEATURE_SET)
    return {"good": str(good), "bad": str(bad), "feats": str(feats),
            "good_feats": str(good_feats), "matrix": str(matrix),
            "v1": str(v1), "fts0": str(fts0),
            "missing": str(tmp_path / "missing"), "out": str(tmp_path / "out")}


@pytest.fixture
def graph_files(tmp_path):
    """A T o L o G graph file as `graph build` used to write it, and a graph
    file with a bad weight."""
    import support
    from phonectc.inventory import make_alphabet
    from phonectc.ngram import ngram_to_fst, train_ngram
    from phonectc.textnorm import Prolex

    lex = Prolex()
    lex.add("ab", ["a", "b"])
    grammar = ngram_to_fst(train_ngram([["ab"]], order=1))
    old = tmp_path / "old.fst.txt"
    support.build_decode_graph_reference(
        make_alphabet({"a", "b"}), lex, grammar
    ).write_text(old)
    malformed = tmp_path / "malformed.fst.txt"
    malformed.write_text("0\t1\ta\tab\tx\n1\t0.0\n")
    return {"old_graph": str(old), "malformed_graph": str(malformed)}


@pytest.fixture
def text_files(tmp_path, world_dir):
    """Good graph-build inputs and experiment config, a lexicon with a line
    of three fields, bytes that are not UTF-8, a word list with no word any
    G2P transducer of the test world can spell, and copies of the test world
    whose config holds a word where a count belongs, or a key that is no
    config field."""
    from phonectc.ngram import train_ngram

    inventory = tmp_path / "inventory.txt"
    inventory.write_text("a\nb\n")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("ab\ta b\n")
    arpa = tmp_path / "lm.arpa"
    train_ngram([["ab"]], order=1).write_arpa(arpa)
    three_fields = tmp_path / "three_fields.tsv"
    three_fields.write_text("ab\ta b\nab\tx y\textra\n")
    noise = tmp_path / "noise.bin"
    noise.write_bytes(b"\xff\xfe" + bytes(range(256)))
    unspellable = tmp_path / "unspellable.txt"
    unspellable.write_text("@@\n")
    config = tmp_path / "exp.yaml"
    config.write_text("mode: monolingual\n")
    bad_world = shutil.copytree(world_dir, tmp_path / "bad_world")
    manifest = json.loads((bad_world / "world.json").read_text())
    manifest["config"]["num_seen_languages"] = "two"
    (bad_world / "world.json").write_text(json.dumps(manifest))
    key_world = shutil.copytree(world_dir, tmp_path / "key_world")
    manifest = json.loads((key_world / "world.json").read_text())
    manifest["config"]["extra"] = 1
    (key_world / "world.json").write_text(json.dumps(manifest))
    return {"inventory": str(inventory), "lexicon": str(lexicon),
            "arpa": str(arpa), "three_fields": str(three_fields),
            "noise": str(noise), "unspellable": str(unspellable),
            "config": str(config),
            "bad_world": str(bad_world), "key_world": str(key_world)}


@pytest.mark.parametrize("args, culprit", [
    (["decode", "--checkpoint", "{bad}", "--features", "{feats}",
      "--lexicon-free"], "bad"),
    (["decode", "--checkpoint", "{good}", "--features", "{feats}",
      "--lexicon-free"], "feats"),
    (["finetune", "--world", "{world}", "--pretrained", "{bad}",
      "--language", "u1", "-o", "{out}"], "bad"),
    (["embeddings", "export", "--checkpoint", "{bad}", "-o", "{out}"], "bad"),
    (["decode", "--checkpoint", "{good}", "--features", "{good_feats}",
      "--graph", "{old_graph}"], "old_graph"),
    (["decode", "--checkpoint", "{good}", "--features", "{good_feats}",
      "--graph", "{malformed_graph}"], "malformed_graph"),
    (["decode", "--checkpoint", "{missing}", "--features", "{good_feats}",
      "--lexicon-free"], "missing"),
    (["decode", "--checkpoint", "{good}", "--features", "{good_feats}",
      "--graph", "{missing}"], "missing"),
    (["decode", "--checkpoint", "{good}", "--features", "{matrix}",
      "--lexicon-free"], "matrix"),
    (["g2p", "--fst", "{malformed_graph}", "ab"], "malformed_graph"),
    (["lexicon", "--g2p", "{malformed_graph}", "--words", "{missing}",
      "-o", "{out}"], "malformed_graph"),
    (["lm", "score", "--arpa", "{old_graph}", "a"], "old_graph"),
    (["graph", "build", "--inventory", "{inventory}", "--lexicon",
      "{three_fields}", "--arpa", "{arpa}", "-o", "{out}"], "three_fields:2"),
    (["graph", "build", "--inventory", "{noise}", "--lexicon", "{lexicon}",
      "--arpa", "{arpa}", "-o", "{out}"], "noise"),
    (["graph", "build", "--bpe-model", "{missing}", "--lexicon", "{lexicon}",
      "--arpa", "{arpa}", "-o", "{out}"], "missing"),
    (["lm", "train", "--input", "{lexicon}", "--lexicon", "{three_fields}",
      "-o", "{out}"], "three_fields:2"),
    (["tokenizer", "encode", "--model", "{noise}", "{lexicon}"], "noise"),
    (["train", "--world", "{missing}", "-o", "{out}"], "missing"),
    (["finetune", "--world", "{missing}", "--pretrained", "{good}",
      "--language", "u1", "-o", "{out}"], "missing"),
    (["experiment", "run", "--world", "{missing}", "--config", "{config}",
      "-o", "{out}"], "missing"),
    (["lm", "score", "--arpa", "{noise}", "a"], "noise"),
    (["g2p", "--fst", "{noise}", "ab"], "noise"),
    (["eval", "--ref", "{lexicon}", "--hyp", "{noise}"], "noise"),
    (["normalize", "{missing}"], "missing"),
    (["train", "--world", "{bad_world}", "-o", "{out}"], "bad_world"),
    (["train", "--world", "{key_world}", "-o", "{out}"], "key_world"),
    (["decode", "--checkpoint", "{v1}", "--features", "{good_feats}",
      "--lexicon-free"], "v1"),
    (["decode", "--checkpoint", "{good}", "--features", "{fts0}",
      "--lexicon-free"], "fts0"),
], ids=["decode-checkpoint", "decode-features", "finetune", "embeddings-export",
        "decode-old-graph", "decode-malformed-graph", "decode-missing-checkpoint",
        "decode-missing-graph", "decode-feature-matrix", "g2p-malformed-fst",
        "lexicon-malformed-g2p", "lm-score-not-arpa",
        "graph-build-three-field-lexicon", "graph-build-binary-inventory",
        "graph-build-missing-bpe-model", "lm-train-three-field-lexicon",
        "tokenizer-encode-binary-model", "train-missing-world",
        "finetune-missing-world", "experiment-run-missing-world",
        "lm-score-binary-arpa", "g2p-binary-fst", "eval-binary-hyp",
        "normalize-missing-input", "train-world-config-type",
        "train-world-config-key", "decode-pctc-v1-checkpoint",
        "decode-fts0-features"])
def test_damaged_input_file_is_a_one_line_error(runner, world_dir, damaged_files,
                                                graph_files, text_files, args,
                                                culprit):
    files = {**damaged_files, **graph_files, **text_files, "world": world_dir}
    result = runner.invoke(main, [a.format(**files) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Error: ")
    name, _, line = culprit.partition(":")
    assert files[name] + (f":{line}" if line else "") in lines[0]


@pytest.fixture
def output_inputs(tmp_path, world_dir):
    """A BPE model and a checkpoint over the test world's features, as
    inputs to commands whose output cannot be written."""
    from phonectc.bpe import train_bpe
    from phonectc.inventory import make_alphabet
    from phonectc.model import EncoderConfig, init_checkpoint, save_checkpoint

    bpe = tmp_path / "m.bpe"
    train_bpe(["ab ba", "ab"], 8).save(bpe)
    ckpt = tmp_path / "world.ckpt"
    config = EncoderConfig(input_dim=10, hidden_dim=6, num_blocks=1)
    save_checkpoint(init_checkpoint(config, make_alphabet({"a", "b"})), ckpt)
    subword = tmp_path / "subword.ckpt"
    save_checkpoint(init_checkpoint(
        config, make_alphabet({"a", "b", "ab"}, kind="subword")), subword)
    return {"bpe": str(bpe), "world_ckpt": str(ckpt),
            "subword_ckpt": str(subword),
            "g2p": f"{world_dir}/lang-s1/g2p.fst.txt"}


# each command with an output path in a missing directory, or under a file
# where a directory would have to be made, and that path
@pytest.mark.parametrize("args, culprit", [
    (["normalize", "{lexicon}", "-o", "{missing}/out.txt"], "{missing}/out.txt"),
    (["lexicon", "--g2p", "{g2p}", "--words", "{inventory}",
      "-o", "{missing}/lex.tsv"], "{missing}/lex.tsv"),
    (["tokenizer", "train", "--input", "{lexicon}", "--vocab-size", "12",
      "-o", "{missing}/m.bpe"], "{missing}/m.bpe"),
    (["tokenizer", "encode", "--model", "{bpe}", "{lexicon}",
      "-o", "{missing}/enc.txt"], "{missing}/enc.txt"),
    (["lm", "train", "--input", "{lexicon}", "-o", "{missing}/x.arpa"],
     "{missing}/x.arpa"),
    (["lm", "train", "--input", "{lexicon}", "-o", "{arpa}",
      "--fst", "{missing}/g.fst.txt"], "{missing}/g.fst.txt"),
    (["graph", "build", "--inventory", "{inventory}", "--lexicon",
      "{lexicon}", "--arpa", "{arpa}", "-o", "{missing}/g.txt"],
     "{missing}/g.txt"),
    (["world", "gen", "-o", "{good}/w"], "{good}/w"),
    (["train", "--world", "{world}", "--language", "s1",
      "-o", "{missing}/m.ckpt"], "{missing}/m.ckpt"),
    (["train", "--world", "{world}", "--language", "s1", "--supervision",
      "subword", "--bpe-vocab-size", "50", "-o", "{missing}/m.ckpt"],
     "{missing}/m.ckpt.bpe"),
    (["finetune", "--world", "{world}", "--pretrained", "{world_ckpt}",
      "--language", "u1", "--utterances", "4", "-o", "{missing}/ft.ckpt"],
     "{missing}/ft.ckpt"),
    (["decode", "--checkpoint", "{good}", "--features", "{good_feats}",
      "--lexicon-free", "-o", "{missing}/hyp.txt"], "{missing}/hyp.txt"),
    (["embeddings", "export", "--checkpoint", "{good}",
      "-o", "{missing}/emb.tsv"], "{missing}/emb.tsv"),
    (["experiment", "run", "--world", "{world}", "--config", "{config}",
      "-o", "{good}/exp"], "{good}/exp"),
], ids=["normalize", "lexicon", "tokenizer-train", "tokenizer-encode",
        "lm-train", "lm-train-fst", "graph-build", "world-gen",
        "train", "train-subword-bpe", "finetune", "decode",
        "embeddings-export", "experiment-run"])
def test_unwritable_output_is_a_one_line_error(runner, world_dir, damaged_files,
                                               text_files, output_inputs, args,
                                               culprit):
    files = {**damaged_files, **text_files, **output_inputs, "world": world_dir}
    result = runner.invoke(main, [a.format(**files) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Error: ")
    assert culprit.format(**files) in lines[0]


@pytest.fixture(scope="module")
def infeasible_world(tmp_path_factory):
    """A world of one frame per phoneme: the encoder's stride of 2 leaves
    every utterance fewer frames than labels, so no utterance can train."""
    from phonectc.world import SyntheticWorldConfig, generate_world, write_world

    cfg = SyntheticWorldConfig(
        num_seen_languages=2, num_unseen=1, utterances_per_language=16,
        low_resource_utterances=10, lexicon_size_range=(10, 12),
        frames_per_phoneme_range=(1, 1), seed=8,
    )
    return str(write_world(generate_world(cfg), tmp_path_factory.mktemp("w")))


# each numeric option given a value below its range, and that option; a
# word list of which no word gets a pronunciation, and that file; and each
# training command on a world it cannot train on, and that world
@pytest.mark.parametrize("args, culprit", [
    (["lm", "train", "--input", "{lexicon}", "--order", "0", "-o", "{out}"],
     "--order"),
    (["g2p", "--fst", "{g2p}", "--nbest", "0", "ab"], "--nbest"),
    (["lexicon", "--g2p", "{g2p}", "--words", "{inventory}", "--nbest", "0",
      "-o", "{out}"], "--nbest"),
    (["tokenizer", "train", "--input", "{lexicon}", "--vocab-size", "12",
      "--seed", "-1", "-o", "{out}"], "--seed"),
    (["world", "gen", "--seed", "-1", "-o", "{out}"], "--seed"),
    (["train", "--world", "{world}", "--language", "s1", "--seed", "-1",
      "-o", "{out}"], "--seed"),
    (["finetune", "--world", "{world}", "--pretrained", "{world_ckpt}",
      "--language", "u1", "--seed", "-1", "-o", "{out}"], "--seed"),
    (["finetune", "--world", "{world}", "--pretrained", "{world_ckpt}",
      "--language", "u1", "--utterances", "-5", "-o", "{out}"],
     "--utterances"),
    (["finetune", "--world", "{world}", "--pretrained", "{subword_ckpt}",
      "--language", "u1", "-o", "{out}"],
     "--pretrained {subword_ckpt}: a subword checkpoint"),
    (["finetune", "--world", "{world}", "--pretrained", "{good}",
      "--language", "u1", "--utterances", "5", "-o", "{out}"],
     "--pretrained {good}: input_dim 4"),
    (["lexicon", "--g2p", "{g2p}", "--words", "{unspellable}", "-o", "{out}"],
     "{unspellable}"),
    (["train", "--world", "{infeasible}", "--language", "s1", "-o", "{out}"],
     "{infeasible}: every utterance is CTC-infeasible"),
    (["finetune", "--world", "{infeasible}", "--pretrained", "{world_ckpt}",
      "--language", "u1", "-o", "{out}"],
     "{infeasible}: every utterance is CTC-infeasible"),
    (["experiment", "run", "--world", "{infeasible}", "--config", "{config}",
      "-o", "{out}"], "{infeasible}: every utterance is CTC-infeasible"),
], ids=["lm-train-order", "g2p-nbest", "lexicon-nbest", "tokenizer-train-seed",
        "world-gen-seed", "train-seed", "finetune-seed", "finetune-utterances",
        "finetune-subword-checkpoint", "finetune-narrow-checkpoint",
        "lexicon-no-pronounceable-word", "train-infeasible-world",
        "finetune-infeasible-world", "experiment-run-infeasible-world"])
def test_rejected_value_is_a_one_line_error(runner, world_dir, damaged_files,
                                            text_files, output_inputs,
                                            infeasible_world, args, culprit):
    files = {**damaged_files, **text_files, **output_inputs, "world": world_dir,
             "infeasible": infeasible_world}
    result = runner.invoke(main, [a.format(**files) for a in args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    last = result.output.strip().splitlines()[-1]
    assert last.startswith("Error: ") and culprit.format(**files) in last
    assert not Path(files["out"]).exists()


def test_experiment_run_keeps_an_output_directory_it_did_not_make(
        runner, infeasible_world, tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text("mode: monolingual\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("x")
    result = runner.invoke(main, ["experiment", "run", "--world", infeasible_world,
                                  "--config", str(config), "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines()[-1].startswith("Error: ")
    assert (out / "kept.txt").read_text() == "x"


def test_world_gen_rejects_counts_and_noise_below_their_bounds(runner, tmp_path):
    cfg = tmp_path / "bad.yaml"
    for text, culprit in [("feature_dim: 0\n", "feature_dim must be >= 1"),
                          ("num_unseen: -1\n", "num_unseen must be >= 0"),
                          ("feature_noise_std: -1.0\n",
                           "feature_noise_std must be >= 0"),
                          ("feature_noise_std: .nan\n",
                           "feature_noise_std must be >= 0")]:
        cfg.write_text(text)
        result = runner.invoke(
            main, ["world", "gen", "-o", str(tmp_path / "w"), "--config", str(cfg)]
        )
        assert result.exit_code == 2, (text, result.output)
        assert isinstance(result.exception, SystemExit), result.exception
        last = result.output.strip().splitlines()[-1]
        assert last.startswith("Error: ") and culprit in last, text
        assert not (tmp_path / "w").exists(), text


def test_crosslingual_experiment_without_a_language_is_a_one_line_error(
        runner, tmp_path):
    world = tmp_path / "w"
    cfg = tmp_path / "w.yaml"
    cfg.write_text("num_seen_languages: 1\nnum_unseen: 0\n"
                   "utterances_per_language: 10\nlow_resource_utterances: 10\n")
    result = runner.invoke(main, ["world", "gen", "-o", str(world),
                                  "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    config = tmp_path / "exp.yaml"
    config.write_text("mode: crosslingual_ft\ninit_mode: scratch\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "run", "--world", str(world),
                                  "--config", str(config), "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    last = result.output.strip().splitlines()[-1]
    assert last.startswith("Error: ") and "ft_language" in last
    assert not out.exists()


def test_decode_rejects_a_graph_file_with_an_epsilon_cycle(runner, world_dir,
                                                          tmp_path):
    from phonectc.inventory import make_alphabet, read_inventory
    from phonectc.model import EncoderConfig, init_checkpoint, save_checkpoint

    lang = Path(world_dir) / "lang-s1"
    arpa, graph = tmp_path / "lm.arpa", tmp_path / "lg.fst.txt"
    for args in (["lm", "train", "--input", str(lang / "text.train.txt"),
                  "--lexicon", str(lang / "lexicon.tsv"), "-o", str(arpa)],
                 ["graph", "build", "--inventory", str(lang / "inventory.txt"),
                  "--lexicon", str(lang / "lexicon.tsv"), "--arpa", str(arpa),
                  "-o", str(graph)]):
        assert runner.invoke(main, args).exit_code == 0
    with open(graph, "a") as fh:
        fh.write("0\t0\t<eps>\t<eps>\t0.5\n")  # an epsilon self-loop at start
    ckpt = tmp_path / "m.ckpt"
    alphabet = make_alphabet(read_inventory(lang / "inventory.txt", "s1").units)
    save_checkpoint(init_checkpoint(EncoderConfig(input_dim=10), alphabet), ckpt)
    hyp = tmp_path / "hyp.txt"
    result = runner.invoke(main, [
        "decode", "--checkpoint", str(ckpt), "--features",
        str(lang / "feats.test.bin"), "--graph", str(graph), "-o", str(hyp)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.strip().splitlines() == [
        f"Error: {graph}: epsilon cycle in decode graph"]
    assert not hyp.exists()


def test_train_with_a_vocabulary_too_small_is_a_one_line_error(
        runner, world_dir, tmp_path):
    out = tmp_path / "m.ckpt"
    result = runner.invoke(main, [
        "train", "--world", world_dir, "--language", "s1", "--supervision",
        "subword", "--bpe-vocab-size", "3", "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    last = result.output.strip().splitlines()[-1]
    assert last.startswith(f"Error: {world_dir}: vocab_size 3 below")
    assert not out.exists()


def test_train_names_the_flag_that_sets_a_vocabulary_too_small(
        runner, world_dir, tmp_path):
    out = tmp_path / "m.ckpt"
    result = runner.invoke(main, [
        "train", "--world", world_dir, "--language", "s1", "--supervision",
        "subword", "--bpe-vocab-size", "3", "-o", str(out)])
    assert result.exit_code == 2, result.output
    last = result.output.strip().splitlines()[-1]
    assert last.startswith("Error: ") and "--bpe-vocab-size" in last
    assert not out.exists()


# experiment configs that set what the run would otherwise drop: an encoder
# other than the finetuned checkpoint's, a WARD with no pretrained model, an
# input width other than the world's, a checkpoint that reads features of
# another width; each error names the field
@pytest.mark.parametrize("text, field", [
    ("mode: crosslingual_ft\nft_language: u1\npretrained_path: {ckpt}\n"
     "encoder: {{hidden_dim: 32}}\n", "encoder"),
    ("mode: crosslingual_ft\ninit_mode: scratch\nforgetting_eval: true\n",
     "forgetting_eval"),
    ("mode: monolingual\nforgetting_eval: true\n", "forgetting_eval"),
    ("mode: monolingual\nencoder: {{input_dim: 80}}\n", "input_dim"),
    ("mode: crosslingual_ft\nft_language: u1\npretrained_path: {narrow}\n",
     "pretrained_path"),
], ids=["finetune-encoder", "scratch-forgetting", "monolingual-forgetting",
        "input-dim", "narrow-checkpoint"])
def test_experiment_setting_the_run_would_drop_is_a_one_line_error(
        runner, world_dir, tmp_path, text, field):
    from phonectc.inventory import make_alphabet
    from phonectc.model import EncoderConfig, init_checkpoint, save_checkpoint

    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(init_checkpoint(EncoderConfig(), make_alphabet({"a", "b"})),
                    ckpt)
    narrow = tmp_path / "narrow.ckpt"
    save_checkpoint(init_checkpoint(EncoderConfig(input_dim=4),
                                    make_alphabet({"a", "b"})), narrow)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(text.format(ckpt=ckpt, narrow=narrow))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "run", "--world", world_dir,
                                  "--config", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    last = result.output.strip().splitlines()[-1]
    assert last.startswith(f"Error: {cfg}: ") and field in last, last
    if field == "encoder":
        assert str(ckpt) in last
    if field == "pretrained_path":
        assert str(narrow) in last and "input_dim 4" in last
    assert not out.exists()
