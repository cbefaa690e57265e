import csv
import json

import pytest

from phonectc.ctc import min_frames
from phonectc.experiment import (
    ExperimentConfig,
    Pipeline,
    make_schedule,
    run_experiment,
)
from phonectc.model import save_checkpoint, subsampled_length
from phonectc.world import SyntheticWorldConfig, generate_world

TINY_ENC = dict(hidden_dim=8, num_blocks=1)
TINY_SCHED = dict(max_epochs=4, early_stop_patience=4)


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
    with pytest.raises(ValueError):
        ExperimentConfig(mode="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(mode="crosslingual_ft", init_mode="copy_shared")


def test_make_schedule_steps():
    s = make_schedule(100, batch_size=10, max_epochs=7)
    assert s.total_steps == 70
    assert s.batch_size == 10


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
