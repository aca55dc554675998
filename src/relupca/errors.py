"""Shared exception types, the one check of a numeric input field, and the one reader of a JSON document."""

import json
import numbers
import operator
from dataclasses import fields


class BudgetError(RuntimeError):
    """An enumeration or construction would exceed its configured budget."""


class StructureMismatch(ValueError):
    """Two lattice polynomials do not share a clause structure."""


class OrderTypeMissing(LookupError):
    """A selector table has no entry for the realized order type."""


def checked(name: str, value, low: int | float | None = None, high: float | None = None):
    """value, when it is what the field name holds; otherwise a ValueError that names the field and the value.

    With low an int, an integer of at least low (None: any integer), returned as a Python int.  With low a float, a
    real number strictly between low and high (high None: no upper bound, so that inf passes; math.inf: a finite
    number), returned as is.  A bool is neither, and numpy's integer and float scalars are each.
    """
    if type(value) is int and type(low) is int and value >= low:  # the common case, ahead of the numbers ABC checks
        return value
    if isinstance(low, float):
        ok = isinstance(value, numbers.Real) and low < value and (high is None or value < high)
        want = f"a number above {low:g}" if high is None else f"a number in ({low:g}, {high:g})"
    else:
        ok = isinstance(value, numbers.Integral) and (low is None or value >= low)
        want = "an integer" if low is None else f"an integer of at least {low}"
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return value if isinstance(low, float) else operator.index(value)  # a numpy integer would not serialise to JSON


def json_object(doc, where: str, known=None, required=()) -> dict:
    """doc, checked to be a JSON object with no key but known's field names (known a dataclass; None: any key) and
    every key of required; a ValueError names the keys that are not (the missing ones in required's order)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(known)}) if known is not None else []
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"missing {where} key(s): {', '.join(missing)}")
    return doc


def json_document(data, where: str, known=None, required=()) -> dict:
    """The JSON object that data (str or UTF-8 bytes) encodes, checked by json_object; text that is not JSON raises
    a ValueError that names the line and column where parsing stopped."""
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as err:
        raise ValueError(f"{where} parse error at line {err.lineno} column {err.colno}: {err.msg}") from err
    return json_object(doc, where, known, required)
