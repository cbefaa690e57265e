import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from phonectc import world as world_mod
from phonectc.featio import read_feature_set, write_feature_set
from phonectc.textnorm import apply_g2p, lexicon_stats
from phonectc.world import (
    SyntheticWorldConfig,
    WorldError,
    generate_world,
    load_world,
    write_world,
)

SMALL = SyntheticWorldConfig(
    num_seen_languages=3,
    num_unseen=1,
    utterances_per_language=20,
    low_resource_utterances=10,
    seed=5,
)


@pytest.fixture(scope="module")
def world():
    return generate_world(SMALL)


def test_feature_set_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(t, 4)) for t in (3, 9, 0, 1)]
    p = tmp_path / "s.bin"
    write_feature_set(p, mats)
    back = read_feature_set(p)
    assert [m.shape for m in back] == [m.shape for m in mats]
    for a, b in zip(mats, back):
        assert np.allclose(a, b, atol=1e-6)
    with np.load(p) as archive:  # the file is a plain .npz archive
        assert archive["lengths"].tolist() == [3, 9, 0, 1]
        assert np.array_equal(archive["frames"],
                              np.concatenate(mats).astype(np.float32))


def test_feature_magic_checked(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"JUNKJUNK")
    with pytest.raises(ValueError):
        read_feature_set(p)


@pytest.fixture(scope="module")
def feature_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("feats")
    rng = np.random.default_rng(2)
    write_feature_set(d / "s.bin", [rng.normal(size=(t, 3)) for t in (4, 1, 6)])
    return (d / "s.bin").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_feature_file_names_path(tmp_path_factory, feature_files, data):
    path = tmp_path_factory.mktemp("bad") / "bad.bin"
    path.write_bytes(support.damage(feature_files, data))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_feature_set(path)


def test_empty_feature_set_roundtrip(tmp_path):
    write_feature_set(tmp_path / "e.bin", [])
    assert read_feature_set(tmp_path / "e.bin") == []


def test_feature_lengths_must_sum_to_frames(tmp_path):
    path = tmp_path / "s.bin"
    with open(path, "wb") as fh:
        np.savez(fh, frames=np.zeros((3, 2), np.float32),
                 lengths=np.array([1, 1], np.uint32))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_feature_set(path)


def loads_identical_or_names_path(path, load, expected):
    """``load(path)`` raises ValueError naming ``path``, or returns arrays
    bitwise equal to ``expected``."""
    try:
        back = load(path)
    except ValueError as err:
        assert str(path) in str(err)
    else:
        assert len(back) == len(expected)
        for a, b in zip(back, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_feature_bit_flip_loads_identical_or_names_path(tmp_path_factory,
                                                        feature_files, data):
    good = tmp_path_factory.mktemp("good") / "s.bin"
    good.write_bytes(feature_files)
    path = tmp_path_factory.mktemp("flip") / "flip.bin"
    path.write_bytes(support.flip_bit(feature_files, data))
    loads_identical_or_names_path(path, read_feature_set, read_feature_set(good))


@pytest.fixture(scope="module")
def prototype_files(tmp_path_factory, world):
    out = write_world(world, tmp_path_factory.mktemp("world") / "w")
    return (out / "prototypes.bin").read_bytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_prototype_bit_flip_loads_identical_or_names_path(
        tmp_path_factory, world, prototype_files, data):
    path = tmp_path_factory.mktemp("flip") / "prototypes.bin"
    path.write_bytes(support.flip_bit(prototype_files, data))
    shape = world.prototypes.shape
    loads_identical_or_names_path(
        path, lambda p: world_mod._read_prototypes(p, shape), world.prototypes)


def test_world_shape(world):
    assert world.seen_codes == ["s1", "s2", "s3"]
    assert world.unseen_codes == ["u1"]
    cfg = world.config
    for code, lang in world.languages.items():
        lo, hi = cfg.inventory_size_range
        assert lo <= len(lang.inventory) <= hi
        assert all(s for s in lang.sentences["train"])
        if code == "s3":  # low-resource: capped train, full dev/test
            assert len(lang.sentences["train"]) <= cfg.low_resource_utterances
        total = sum(len(lang.sentences[s]) for s in ("train", "dev", "test"))
        if code != "s3":
            assert total == cfg.utterances_per_language


def test_sentences_use_lexicon_words(world):
    for lang in world.languages.values():
        for split in ("train", "dev", "test"):
            for sent in lang.sentences[split]:
                assert all(w in lang.prolex for w in sent.split())


def test_features_align_with_transcripts(world):
    cfg = world.config
    lo, hi = cfg.frames_per_phoneme_range
    for lang in world.languages.values():
        for sent, feats in zip(lang.sentences["train"], lang.features["train"]):
            n = len(lang.phoneme_transcript(sent))
            assert lo * n <= feats.shape[0] <= hi * n
            assert feats.shape[1] == cfg.feature_dim


def test_unseen_inventory_within_seen_union(world):
    union = set()
    for c in world.seen_codes:
        union |= world.languages[c].inventory.units
    assert world.languages["u1"].inventory.units <= union


def test_g2p_consistent_with_lexicon(world):
    lang = world.languages["s1"]
    for word in list(lang.prolex.words())[:5]:
        prons = apply_g2p(lang.g2p, word)
        assert prons and prons[0][0] == lang.prolex.best_pronunciation(word)[0]


def test_homophone_rate_zero_config():
    cfg = SyntheticWorldConfig(
        num_seen_languages=2, num_unseen=0, homophone_rate=0.0,
        utterances_per_language=10, low_resource_utterances=10, seed=3,
    )
    w = generate_world(cfg)
    for lang in w.languages.values():
        assert lexicon_stats(lang.prolex)["homophone_rate"] == 0.0


def test_noiseless_features_depend_only_on_phonemes():
    cfg = SyntheticWorldConfig(
        num_seen_languages=1, num_unseen=0, feature_noise_std=0.0,
        frames_per_phoneme_range=(2, 2), utterances_per_language=10,
        low_resource_utterances=10, seed=4,
    )
    w = generate_world(cfg)
    lang = next(iter(w.languages.values()))
    proto = {u: w.prototypes[w.universal.index(u)] for u in lang.inventory.units}
    sent = lang.sentences["train"][0]
    feats = lang.features["train"][0]
    want = np.repeat(
        [proto[p] for p in lang.phoneme_transcript(sent)], 2, axis=0
    )
    assert np.allclose(feats, want)


def test_world_determinism_byte_identical(tmp_path):
    d1 = write_world(generate_world(SMALL), tmp_path / "w1")
    d2 = write_world(generate_world(SMALL), tmp_path / "w2")
    files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()


def test_world_directory_roundtrip(tmp_path, world):
    out = write_world(world, tmp_path / "w")
    back = load_world(out)
    assert back.config == world.config
    assert back.prototypes.tobytes() == world.prototypes.tobytes()
    assert set(back.languages) == set(world.languages)
    for code in world.languages:
        a, b = world.languages[code], back.languages[code]
        assert a.inventory.units == b.inventory.units
        assert a.sentences == b.sentences
        for split in a.features:  # features are stored as float32
            assert [x.astype(np.float32).tobytes() for x in a.features[split]] == [
                y.astype(np.float32).tobytes() for y in b.features[split]]
        assert b.phoneme_transcript(b.sentences["test"][0]) == a.phoneme_transcript(
            a.sentences["test"][0]
        )


def test_unknown_world_config_key_names_file_and_key(tmp_path, world):
    out = write_world(world, tmp_path / "w")
    manifest = json.loads((out / "world.json").read_text())
    manifest["config"]["extra"] = 1
    (out / "world.json").write_text(json.dumps(manifest))
    with pytest.raises(WorldError, match=r"world\.json.*'extra'"):
        load_world(out)


def test_config_validation():
    with pytest.raises(WorldError):
        SyntheticWorldConfig(universal_inventory_size=999)
    with pytest.raises(WorldError):
        SyntheticWorldConfig(inventory_size_range=(5, 3))
    with pytest.raises(WorldError):
        SyntheticWorldConfig(split_fractions=(0.5, 0.2, 0.2))
    for name, value in (("num_seen_languages", "two"), ("seed", True),
                        ("feature_dim", 10.0), ("utterances_per_language", None),
                        ("inventory_size_range", (10, "14")),
                        ("word_length_range", (2, 3, 4)),
                        ("lexicon_size_range", 20),
                        ("frames_per_phoneme_range", [2, 5]),
                        ("feature_noise_std", "0.3"), ("homophone_rate", False),
                        ("split_fractions", (0.8, "0.1", 0.1)),
                        ("split_fractions", (0.5, 0.5))):
        with pytest.raises(WorldError, match=re.escape(f"{name} must be")) as e:
            SyntheticWorldConfig(**{name: value})
        assert repr(value) in str(e.value)
    # any integer is a count, and any real number a rate
    SyntheticWorldConfig(seed=np.int64(3), feature_noise_std=0,
                         homophone_rate=np.float32(0.5),
                         split_fractions=(1, 0, 0))


# the world configs of bench/workloads.py (desk_seed, long_utts, eval_sweep)
# and a noiseless one with fixed durations
REFERENCE_CONFIGS = {
    **{f"default-seed{s}": SyntheticWorldConfig(seed=s) for s in range(3)},
    "long_utts": SyntheticWorldConfig(seed=0, words_per_sentence_range=(2, 12)),
    "eval_sweep": SyntheticWorldConfig(
        seed=1, lexicon_size_range=(60, 80), utterances_per_language=200
    ),
    "noiseless": SyntheticWorldConfig(
        num_seen_languages=2, num_unseen=1, feature_noise_std=0.0,
        frames_per_phoneme_range=(2, 2), seed=4,
    ),
}


@pytest.mark.parametrize("name", REFERENCE_CONFIGS)
def test_features_equal_the_per_phone_reference(monkeypatch, name):
    config = REFERENCE_CONFIGS[name]
    fast = generate_world(config)
    monkeypatch.setattr(world_mod, "_make_features",
                        support.make_features_reference)
    slow = generate_world(config)
    assert np.array_equal(fast.prototypes, slow.prototypes)
    assert list(fast.languages) == list(slow.languages)
    for code, a in fast.languages.items():
        b = slow.languages[code]
        assert a.sentences == b.sentences
        assert a.prolex.entries == b.prolex.entries
        for split in ("train", "dev", "test"):
            assert len(a.features[split]) == len(b.features[split])
            for x, y in zip(a.features[split], b.features[split]):
                assert x.shape == y.shape
                assert np.array_equal(x, y)


@pytest.mark.parametrize("name, value", [
    ("universal_inventory_size", 51), ("inventory_size_range", (10, 41)),
    ("split_fractions", (0.5, 0.2, 0.2)), ("feature_dim", 0),
    ("num_unseen", -1), ("feature_noise_std", -1.0),
    ("feature_noise_std", float("nan")),
])
def test_config_rejections_name_the_field_and_value(name, value):
    with pytest.raises(WorldError, match=f"^{name}") as e:
        SyntheticWorldConfig(**{name: value})
    assert repr(value) in str(e.value)
