import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from phonectc.ctc import min_frames
from phonectc.experiment import (
    WARD_BASELINE_CAP,
    ConfigError,
    ExperimentConfig,
    Pipeline,
    run_experiment,
)
from phonectc.model import (
    EncoderConfig,
    TrainSchedule,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
    subsampled_length,
)
from phonectc.world import SyntheticWorldConfig, WorldError, generate_world

TINY_ENC = dict(hidden_dim=8, num_blocks=1)
TINY_SCHED = dict(max_epochs=4, early_stop_patience=4)
TINY_BPE = 50
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def world():
    cfg = SyntheticWorldConfig(
        num_seen_languages=2,
        num_unseen=1,
        utterances_per_language=16,
        low_resource_utterances=10,
        lexicon_size_range=(10, 12),
        seed=2,
    )
    return generate_world(cfg)


def test_config_validation():
    for bad in (
        dict(mode="bogus"),
        dict(mode="multilingual_phoneme"),
        dict(mode="multilingual_subword"),
        dict(mode="crosslingual_ft", init_mode="copy_shared"),
        dict(mode="crosslingual_ft", init_mode="copy", pretrained_path="x"),
        dict(mode="monolingual", supervision="grapheme"),
        dict(mode="monolingual", encoder={"hidden": 8}),
        dict(mode="monolingual", schedule={"max_epoch": 2}),
        dict(mode="monolingual", schedule={"loss_norm": "label"}),
        dict(mode="monolingual", beam=0),
        dict(mode="monolingual", lm_order=0),
        dict(mode="monolingual", acoustic_scale=0.0),
        dict(mode="monolingual", acoustic_scale=-1.0),
        dict(mode="monolingual", acoustic_scale=float("nan")),
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    for name, value in (("mode", 1), ("seed", "zero"), ("seed", 1.0),
                        ("beam", True), ("lm_order", None),
                        ("acoustic_scale", "1"), ("forgetting_eval", 1),
                        ("encoder", [("hidden_dim", 8)]), ("output_dir", None),
                        ("languages", "s1"), ("languages", ("s1", 2)),
                        ("ft_data_scales", (20, "50")),
                        ("ft_data_scales", (-1,))):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be")) as e:
            ExperimentConfig(**{"mode": "monolingual", name: value})
        assert repr(value) in str(e.value)
    # any integer is a count and any real number a scale; "all" is a scale
    ExperimentConfig(mode="monolingual", seed=np.int64(1), acoustic_scale=2,
                     ft_data_scales=(20, 0, "all"))


def test_encoder_and_schedule_type_errors_name_the_field():
    for key, name, value in (("schedule", "batch_size", "8"),
                             ("encoder", "hidden_dim", "16"),
                             ("encoder", "dropout", True)):
        what = "a number" if name == "dropout" else "an integer"
        message = f"{key} {{{name!r}: {value!r}}}: {name} must be {what}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(mode="monolingual", **{key: {name: value}})
    with pytest.raises(ValueError, match="^hidden_dim must be an integer, got 16.0$"):
        EncoderConfig(hidden_dim=16.0)
    with pytest.raises(ValueError, match="^peak_lr must be a number, got '0.1'$"):
        TrainSchedule(peak_lr="0.1")


def test_readme_configs_build():
    """Every YAML heredoc in README.md is a config the code accepts."""
    blocks = re.findall(r"<<EOF\n(.*?)\nEOF", README.read_text(), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        raw = yaml.safe_load(block)
        ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                            for k, v in raw.items()})


@pytest.fixture(scope="module")
def runs(world, tmp_path_factory):
    """``run(mode, supervision)`` -> (report, output directory) of a tiny
    run_experiment, cached; finetuning starts from the multilingual run."""
    done = {}

    def run(mode, supervision):
        key = (mode, supervision)
        if key not in done:
            extra = {}
            if mode == "crosslingual_ft":
                _, pre = run("multilingual", supervision)
                extra = dict(
                    ft_language="u1", ft_data_scales=(4,), forgetting_eval=True,
                    pretrained_path=str(pre / f"multilingual_{supervision}.ckpt"),
                )
            out = tmp_path_factory.mktemp(f"{mode}-{supervision}")
            config = ExperimentConfig(
                mode=mode, supervision=supervision, seed=0, encoder=TINY_ENC,
                schedule=TINY_SCHED, bpe_vocab_size=TINY_BPE, lm_order=2,
                output_dir=str(out), **extra,
            )
            done[key] = run_experiment(world, config), out
        return done[key]

    return run


@pytest.mark.parametrize("supervision", ["phoneme", "subword"])
@pytest.mark.parametrize("mode", ["monolingual", "multilingual", "crosslingual_ft"])
def test_every_mode_under_every_supervision(runs, mode, supervision):
    report, out = runs(mode, supervision)
    assert report["supervision"] == supervision
    rows = report["results"]
    splits = lambda metric: {r["split"] for r in rows if r["metric"] == metric}
    assert splits("wer") == {"dev", "test"}
    assert splits("per") == ({"dev", "test"} if supervision == "phoneme" else set())
    assert (out / "bpe.model").exists() == (supervision == "subword")
    with open(out / "results.csv") as fh:
        assert {row["experiment"] for row in csv.DictReader(fh)} == {mode}
    if mode == "crosslingual_ft":
        assert splits("ward") == {"test"}


def test_multilingual_subword_run_saves_the_pipeline_model(world, runs):
    _, out = runs("multilingual", "subword")
    saved = load_checkpoint(out / "multilingual_subword.ckpt")
    pipe = Pipeline(world, encoder=TINY_ENC, lm_order=2)
    final, _, bpe = pipe.train_multilingual_subword(0, TINY_BPE, **TINY_SCHED)
    assert saved.alphabet.units == bpe.vocab.units
    assert saved.params.keys() == final.params.keys()
    for name, value in final.params.items():
        assert np.array_equal(saved.params[name], value), name


def test_monolingual_run_outputs(world, tmp_path):
    config = ExperimentConfig(
        mode="monolingual", languages=("s1",), seed=0, encoder=TINY_ENC,
        schedule=TINY_SCHED, lm_order=2, output_dir=str(tmp_path / "out"),
    )
    report = run_experiment(world, config)
    rows = report["results"]
    # one row per split per metric for the single language
    per_rows = [r for r in rows if r["metric"] == "per"]
    wer_rows = [r for r in rows if r["metric"] == "wer"]
    assert {r["split"] for r in per_rows} == {"dev", "test"}
    assert {r["split"] for r in wer_rows} == {"dev", "test"}
    assert all(r["language"] == "s1" for r in rows)
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    with open(out / "results.csv") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == len(rows)
    with open(out / "history.csv") as fh:
        hist = list(csv.DictReader(fh))
    assert hist and hist[0]["epoch"] == "1"


def test_history_reports_skipped_utterances(world, tmp_path):
    # a stride of 3 leaves some training utterances too few frames
    encoder = {**TINY_ENC, "subsample_stride": 3}
    pipe = Pipeline(world, encoder=encoder)
    corpus = pipe.phoneme_corpus("s1", "train", pipe.phoneme_alphabet(["s1"]))
    skipped = sum(subsampled_length(len(x), 3) < min_frames(labels)
                  for x, labels in corpus)
    assert 0 < skipped < len(corpus)
    config = ExperimentConfig(
        mode="monolingual", languages=("s1",), seed=0, encoder=encoder,
        schedule=TINY_SCHED, lm_order=2, output_dir=str(tmp_path / "out"),
    )
    run_experiment(world, config)
    with open(tmp_path / "out" / "history.csv") as fh:
        hist = list(csv.DictReader(fh))
    assert hist
    assert {row["skipped_infeasible"] for row in hist} == {str(skipped)}


def test_crosslingual_scales_and_forgetting(world, tmp_path):
    pipe = Pipeline(world, encoder=TINY_ENC, lm_order=2)
    base, _ = pipe.train_multilingual_phoneme(0, **TINY_SCHED)
    base_path = tmp_path / "base.ckpt"
    save_checkpoint(base, base_path)
    config = ExperimentConfig(
        mode="crosslingual_ft", ft_language="u1", ft_data_scales=(4, 0),
        pretrained_path=str(base_path), seed=0, encoder=TINY_ENC,
        schedule=TINY_SCHED, lm_order=2, forgetting_eval=True,
        output_dir=str(tmp_path / "ft"),
    )
    report = run_experiment(world, config)
    rows = report["results"]
    scales = {r["scale"] for r in rows}
    assert {"4", "full"} <= scales
    ward_rows = [r for r in rows if r["metric"] == "ward"]
    assert {r["scale"] for r in ward_rows} == {"4", "full"}
    before = [r for r in rows if r["metric"] == "seen_wer_before"]
    assert before and 0 <= before[0]["value"] <= 100
    clamped = [r for r in rows if r["metric"] == "ward_baseline_clamped"]
    assert bool(clamped) == (before[0]["value"] > WARD_BASELINE_CAP)


def test_ward_reports_a_clamped_baseline(world, tmp_path):
    pipe = Pipeline(world, encoder=TINY_ENC)
    base = init_checkpoint(pipe.encoder_config,
                           pipe.phoneme_alphabet(world.seen_codes))
    # layer norm gain 0 and bias 1 make every hidden state all ones, which
    # only the blank's output row sees: the model emits blank alone, so it
    # decodes no word and its seen-language WER is 100%
    base.params["block0.ln.g"][:] = 0.0
    base.params["block0.ln.b"][:] = 1.0
    base.params["out.w"][:] = 0.0
    base.params["out.w"][0] = 10.0
    save_checkpoint(base, tmp_path / "blank.ckpt")
    config = ExperimentConfig(
        mode="crosslingual_ft", ft_language="u1", ft_data_scales=(4,),
        pretrained_path=str(tmp_path / "blank.ckpt"), seed=0,
        encoder=TINY_ENC, schedule=TINY_SCHED, forgetting_eval=True,
        output_dir=str(tmp_path / "ft"),
    )
    rows = run_experiment(world, config)["results"]
    value = {r["metric"]: r["value"] for r in rows if r["split"] == "test"}
    assert value["seen_wer_before"] == 100.0
    assert value["ward_baseline_clamped"] == 1
    assert np.isfinite(value["ward"])


@pytest.mark.parametrize("field", [
    dict(mode="monolingual", languages=("s1", "zz")),
    dict(mode="multilingual", languages=("zz",)),
    dict(mode="crosslingual_ft", init_mode="scratch", ft_language="zz"),
])
def test_unknown_language_code_fails_before_any_output(world, tmp_path, field):
    out = tmp_path / "out"
    config = ExperimentConfig(seed=0, encoder=TINY_ENC, schedule=TINY_SCHED,
                              output_dir=str(out), **field)
    with pytest.raises(ValueError, match=r"'zz'.*s1, s2, u1"):
        run_experiment(world, config)
    assert not out.exists()


def test_scratch_mode_needs_no_checkpoint(world, tmp_path):
    config = ExperimentConfig(
        mode="crosslingual_ft", ft_language="u1", ft_data_scales=(4,),
        init_mode="scratch", seed=0, encoder=TINY_ENC, schedule=TINY_SCHED,
        lm_order=2, output_dir=str(tmp_path / "scratch"),
    )
    report = run_experiment(world, config)
    assert any(r["metric"] == "wer" for r in report["results"])


def test_subword_corpus_labels_roundtrip(world):
    pipe = Pipeline(world, encoder=TINY_ENC, lm_order=2)
    bpe = pipe.train_bpe_model(seed=0, vocab_size=50)
    corpus = pipe.subword_corpus("s1", "dev", bpe, bpe.vocab)
    lang = world.languages["s1"]
    for (feats, labels), sent in zip(corpus, lang.sentences["dev"]):
        pieces = bpe.vocab.decode(labels)
        assert "".join(pieces) == sent.replace(" ", "")


@pytest.mark.parametrize("supervision", ["phoneme", "subword"])
@pytest.mark.parametrize("mode", ["monolingual", "multilingual", "crosslingual_ft"])
def test_outputs_hold_the_returned_report(world, runs, mode, supervision):
    report, out = runs(mode, supervision)
    columns = ["language", "scale", "split", "metric", "value"]
    with open(out / "results.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["experiment", *columns]
    assert rows == [[mode, *(str(r[c]) for c in columns)]
                    for r in report["results"]]
    assert json.loads((out / "report.json").read_text()) == report
    # one block of epoch rows per training call, in call order
    with open(out / "history.csv", newline="") as fh:
        history = list(csv.DictReader(fh))
    blocks = []  # (language, scale), one per run of epochs from 1
    for row in history:
        if row["epoch"] == "1":
            blocks.append((row["language"], row["scale"]))
            epoch = 0
        epoch += 1
        assert (row["language"], row["scale"], row["epoch"]) == (
            *blocks[-1], str(epoch))
    assert blocks == {"monolingual": [(c, "full") for c in world.seen_codes],
                      "multilingual": [(world.seen_codes[0], "full")],
                      "crosslingual_ft": [("u1", "4")]}[mode]


def test_crosslingual_run_needs_a_language_to_finetune_on(tmp_path):
    world = generate_world(SyntheticWorldConfig(
        num_seen_languages=1, num_unseen=0, utterances_per_language=10,
        low_resource_utterances=10, lexicon_size_range=(6, 8), seed=1,
    ))
    out = tmp_path / "out"
    config = ExperimentConfig(mode="crosslingual_ft", init_mode="scratch",
                              seed=0, encoder=TINY_ENC, schedule=TINY_SCHED,
                              output_dir=str(out))
    with pytest.raises(WorldError, match=r"^ft_language is empty.*has s1$"):
        run_experiment(world, config)
    assert not out.exists()


def test_input_dim_comes_from_the_world(world):
    message = re.escape("encoder {'input_dim': 80}: input_dim")
    with pytest.raises(ValueError, match=f"^{message}"):
        ExperimentConfig(mode="monolingual", encoder={"input_dim": 80})
    with pytest.raises(ValueError, match="^input_dim is the world's"):
        Pipeline(world, encoder={"input_dim": 80, "hidden_dim": 8})
    pipe = Pipeline(world, encoder=TINY_ENC)
    assert pipe.encoder_config.input_dim == world.config.feature_dim


def test_finetune_keeps_its_checkpoints_encoder(world, tmp_path):
    pipe = Pipeline(world, encoder=TINY_ENC)
    base = init_checkpoint(pipe.encoder_config,
                           pipe.phoneme_alphabet(world.seen_codes))
    save_checkpoint(base, tmp_path / "base.ckpt")
    common = dict(mode="crosslingual_ft", ft_language="u1", ft_data_scales=(4,),
                  pretrained_path=str(tmp_path / "base.ckpt"), seed=0,
                  schedule=dict(max_epochs=1))
    for encoder in ({"hidden_dim": 32}, {**TINY_ENC, "dropout": 0.2}):
        out = tmp_path / "other"
        config = ExperimentConfig(encoder=encoder, output_dir=str(out), **common)
        message = rf"^encoder {re.escape(str(encoder))}: .*base\.ckpt holds"
        with pytest.raises(ConfigError, match=message):
            run_experiment(world, config)
        assert not out.exists()
    # the checkpoint's own settings, or none, finetune it
    for encoder in (TINY_ENC, {}):
        config = ExperimentConfig(encoder=encoder,
                                  output_dir=str(tmp_path / "ft"), **common)
        assert run_experiment(world, config)["results"]
