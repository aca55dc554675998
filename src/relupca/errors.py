"""Shared exception types, and the one check of a numeric input field."""

import numbers


class BudgetError(RuntimeError):
    """An enumeration or construction would exceed its configured budget."""


class StructureMismatch(ValueError):
    """Two lattice polynomials do not share a clause structure."""


class OrderTypeMissing(LookupError):
    """A selector table has no entry for the realized order type."""


def checked(name: str, value, low: int | float | None = None, high: float | None = None):
    """value, when it is what the field name holds; otherwise a ValueError that names the field and the value.

    With low an int, an integer of at least low (None: any integer).  With low a float, a real number strictly
    between low and high (high None: no upper bound, so that inf passes; math.inf: a finite number).  A bool is
    neither, and numpy's integer and float scalars are each.
    """
    if isinstance(low, float):
        ok = isinstance(value, numbers.Real) and low < value and (high is None or value < high)
        want = f"a number above {low:g}" if high is None else f"a number in ({low:g}, {high:g})"
    else:
        ok = isinstance(value, numbers.Integral) and (low is None or value >= low)
        want = "an integer" if low is None else f"an integer of at least {low}"
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return value
