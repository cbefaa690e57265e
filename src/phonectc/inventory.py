"""Unit inventories and the index-mapped label alphabet.

An :class:`Alphabet` is the ordered, bidirectional symbol<->index table used
everywhere a model output dimension or decode-graph input label is needed.
The blank symbol sits at index 0 by contract; all other units follow in
lexicographic (Unicode codepoint) order so that identical inventories always
produce identical alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import BLANK


class InventoryError(ValueError):
    """Raised for malformed inventories or alphabets."""


class LookupError_(KeyError):
    """Raised for unknown symbols or out-of-range indices."""


def _check_symbol(symbol):
    if not symbol:
        raise InventoryError("empty symbol")
    if any(ch.isspace() for ch in symbol):
        raise InventoryError(f"symbol contains whitespace: {symbol!r}")


@dataclass(frozen=True)
class LanguageInventory:
    """Blank-free unit set of one language."""

    language_code: str
    units: frozenset

    def __init__(self, language_code, units):
        units = frozenset(units)
        for u in units:
            _check_symbol(u)
        if BLANK in units:
            raise InventoryError(
                f"inventory {language_code!r} contains the blank symbol"
            )
        object.__setattr__(self, "language_code", language_code)
        object.__setattr__(self, "units", units)

    def __len__(self):
        return len(self.units)


@dataclass(frozen=True)
class Alphabet:
    """Ordered unit list with blank pinned at index 0."""

    units: tuple
    kind: str  # "phoneme" | "subword"
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    blank_index = 0

    def __post_init__(self):
        if self.kind not in ("phoneme", "subword"):
            raise InventoryError(f"bad alphabet kind: {self.kind!r}")
        if not self.units or self.units[0] != BLANK:
            raise InventoryError("alphabet must start with the blank symbol")
        for u in self.units[1:]:
            _check_symbol(u)
        index = {}
        for i, u in enumerate(self.units):
            if u in index:
                raise InventoryError(f"duplicate symbol in alphabet: {u!r}")
            index[u] = i
        object.__setattr__(self, "_index", index)

    def __len__(self):
        return len(self.units)

    def __contains__(self, symbol):
        return symbol in self._index

    def index_of(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise LookupError_(f"unknown symbol: {symbol!r}") from None

    def symbol_at(self, index):
        if not 0 <= index < len(self.units):
            raise LookupError_(f"index out of range: {index}")
        return self.units[index]

    def non_blank_units(self):
        return self.units[1:]

    def encode(self, symbols):
        return [self.index_of(s) for s in symbols]

    def decode(self, indices):
        return [self.symbol_at(i) for i in indices]


def make_alphabet(units, kind="phoneme"):
    """Alphabet from a blank-free unit collection: blank first, then sorted."""
    units = set(units)
    if BLANK in units:
        raise InventoryError("unit collection must not contain the blank symbol")
    return Alphabet(units=(BLANK,) + tuple(sorted(units)), kind=kind)


def build_union_alphabet(inventories):
    """Union alphabet over seen-language inventories, blank included.

    Deterministic regardless of inventory order; size is 1 + |union|.
    """
    if not inventories:
        raise InventoryError("need at least one inventory")
    union = set()
    for inv in inventories:
        union |= inv.units
    return make_alphabet(union)


def read_inventory(path, language_code=None):
    """Read a one-symbol-per-line inventory file (blank never stored)."""
    units = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            sym = line.strip()
            if sym:
                units.append(sym)
    if language_code is None:
        language_code = str(path)
    return LanguageInventory(language_code, units)


def write_inventory(inv, path):
    with open(path, "w", encoding="utf-8") as fh:
        for sym in sorted(inv.units):
            fh.write(sym + "\n")
