"""Desk-scale multilingual/crosslingual phoneme-CTC toolkit.

Subpackages cover unit inventories, text normalization and G2P lexicon
construction, BPE tokenization with language-balanced sampling, exact CTC
loss/gradient and decoding, a weighted-FST decode cascade with an n-gram
grammar, a minimal trainable acoustic encoder with crosslingual transfer
initialization, error-rate metrics, and a synthetic multilingual world
generator for end-to-end experiments.
"""

import numbers
from dataclasses import fields

__version__ = "0.1.0"

BLANK = "<b>"


def is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# field annotation -> (what a value must be, its check)
_FIELD_TYPES = {
    "int": ("an integer", is_integer),
    "float": ("a number", is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "dict": ("a mapping", lambda v: isinstance(v, dict)),
}


def check_field_types(config, error, tuples):
    """Raise ``error`` naming the first field of the dataclass ``config``, and
    its value, that is not of the field's annotated type; a bool is not a
    number. ``tuples`` gives each tuple field as (what it must be, its
    length or None, the check of each item)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "tuple":
            what, length, check = tuples[f.name]
            ok = (isinstance(value, tuple) and length in (None, len(value))
                  and all(map(check, value)))
        else:
            what, check = _FIELD_TYPES[f.type]
            ok = check(value)
        if not ok:
            raise error(f"{f.name} must be {what}, got {value!r}")
