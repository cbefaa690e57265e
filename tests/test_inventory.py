import pytest

from phonectc import BLANK
from phonectc.inventory import (
    Alphabet,
    InventoryError,
    LanguageInventory,
    LookupError_,
    build_union_alphabet,
    make_alphabet,
    read_inventory,
    write_inventory,
)


def test_blank_pinned_at_zero():
    a = make_alphabet({"a", "b"})
    assert a.symbol_at(0) == BLANK
    assert a.blank_index == 0


def test_single_inventory_alphabet():
    a = make_alphabet({"a", "b"})
    assert a.units == (BLANK, "a", "b")
    assert len(a) == 3


def test_lexicographic_order_and_lookup():
    a = make_alphabet({"b", "a"})
    assert a.index_of("b") == 2
    with pytest.raises(LookupError_):
        a.index_of("ZZZ")
    with pytest.raises(LookupError_):
        a.symbol_at(99)


def test_union_alphabet():
    i1 = LanguageInventory("l1", {"a", "b"})
    i2 = LanguageInventory("l2", {"b", "c"})
    u = build_union_alphabet([i1, i2])
    assert u.units == (BLANK, "a", "b", "c")
    assert len(u) == 4


def test_union_order_independent():
    i1 = LanguageInventory("l1", {"d", "a"})
    i2 = LanguageInventory("l2", {"c", "a"})
    assert build_union_alphabet([i1, i2]).units == build_union_alphabet([i2, i1]).units


def test_union_size_is_one_plus_distinct_units():
    invs = [
        LanguageInventory(f"l{i}", set("abcdefghij"[i : i + 4])) for i in range(6)
    ]
    union = set().union(*[inv.units for inv in invs])
    assert len(build_union_alphabet(invs)) == 1 + len(union)


def test_inventory_rejects_blank_and_whitespace():
    with pytest.raises(InventoryError):
        LanguageInventory("x", {"a", BLANK})
    with pytest.raises(InventoryError):
        LanguageInventory("x", {"a b"})
    with pytest.raises(InventoryError):
        make_alphabet({BLANK, "a"})


def test_alphabet_requires_leading_blank():
    with pytest.raises(InventoryError):
        Alphabet(units=("a", "b"), kind="phoneme")
    with pytest.raises(InventoryError):
        Alphabet(units=(BLANK, "a", "a"), kind="phoneme")


def test_encode_decode_roundtrip():
    a = make_alphabet({"a", "b", "c"})
    seq = ["c", "a", "a", "b"]
    assert a.decode(a.encode(seq)) == seq


def test_inventory_file_roundtrip(tmp_path):
    inv = LanguageInventory("l1", {"ʃ", "a", "tʃ"})
    path = tmp_path / "inv.txt"
    write_inventory(inv, path)
    back = read_inventory(path, "l1")
    assert back.units == inv.units
    assert back.language_code == "l1"
