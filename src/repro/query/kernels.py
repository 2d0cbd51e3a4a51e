"""Vectorized kernels of the batch executor.

The batch executor (:mod:`repro.query.batch_executor`) exchanges plain Python
lists as column vectors.  The kernels in
this module are the only place the optional NumPy dependency is touched: when
NumPy is importable (and not disabled via ``REPRO_DISABLE_NUMPY``), homogeneous
fixed-width vectors take vectorized fast paths; otherwise — or for vectors the
fast paths cannot handle *exactly* — everything falls back to pure Python with
bit-identical results.

Exactness is the contract here, not just speed.  The interpreted executor is
the correctness oracle (the executor-differential fuzz suite compares results
row for row), so a kernel may only engage NumPy when the answer provably
matches the scalar path:

* comparison fast paths require every value (and the literal) to be a plain
  ``int``/``float`` — ``bool`` is excluded by ``type()`` checks because SQL++
  treats booleans as incomparable with numbers, while NumPy would happily
  coerce them to 0/1;
* an int64 vector compared against a float literal (or vice versa) only
  vectorizes when the integers are exactly representable as float64, since
  Python compares int-to-float exactly and float64 casting does not;
* Python ints beyond the int64 range make ``np.asarray`` silently promote the
  whole vector to float64 (or uint64) — the dtype-kind check after ``asarray``
  detects that and routes the vector to the scalar path;
* aggregation folds (`sum`/`min`/`max`) use Python's builtin left folds, which
  perform the *same sequence of operations* as the row-at-a-time aggregator —
  NumPy's pairwise summation would differ in the last ulp for floats — and
  NaN-containing float vectors drop to the per-value loop because ``min``/
  ``max`` are not associative under NaN.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from .expressions import _COMPARE_OPS, compare_values

#: Set (to any non-empty value) to force the pure-Python fallback even when
#: NumPy is importable — the CI executor-matrix job runs the differential
#: suite once per mode so the optional dependency can never change results.
DISABLE_ENV = "REPRO_DISABLE_NUMPY"

try:  # pragma: no cover - exercised via both CI matrix legs
    if os.environ.get(DISABLE_ENV):
        _numpy = None
    else:
        import numpy as _numpy
except ImportError:  # pragma: no cover - numpy-less environments
    _numpy = None

#: The active NumPy handle (None = pure-Python mode).  Tests flip this via
#: :func:`use_numpy` to assert kernel equivalence on the same inputs.
_np = _numpy

#: Vectors shorter than this stay on the scalar path (ndarray setup overhead).
MIN_VECTOR_LENGTH = 16

#: Largest integer magnitude exactly representable as a float64.
_FLOAT64_EXACT_INT = 2 ** 53

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


def numpy_available() -> bool:
    """True when NumPy was importable (regardless of the active toggle)."""
    return _numpy is not None


def numpy_active() -> bool:
    """True when the kernels are currently using NumPy fast paths."""
    return _np is not None


def use_numpy(enabled: bool) -> bool:
    """Toggle the NumPy fast paths at runtime (for tests); returns the new state."""
    global _np
    _np = _numpy if enabled else None
    return _np is not None


def _numeric_shape(values: list):
    """``(has_int, has_float)`` when every value is a plain int/float, else None.

    ``type()`` rather than ``isinstance`` deliberately excludes ``bool`` (a
    subclass of ``int``): SQL++ comparison semantics treat booleans as
    incomparable with numbers, and the aggregators skip them entirely.
    """
    has_int = has_float = False
    for value in values:
        kind = type(value)
        if kind is int:
            has_int = True
        elif kind is float:
            has_float = True
        else:
            return None
    return has_int, has_float


def _exact_as_array(values: list, literal, has_int: bool, has_float: bool) -> bool:
    """Would comparing via a NumPy array give exactly Python's answer?"""
    if not has_float and type(literal) is int:
        # Pure integer comparison stays exact as long as the int64 *scalar*
        # conversion of the literal cannot overflow; values beyond int64 are
        # caught after ``asarray`` by the dtype-kind check (NumPy silently
        # promotes them to float64 rather than raising).
        return _INT64_MIN <= literal <= _INT64_MAX
    if type(literal) is int and abs(literal) > _FLOAT64_EXACT_INT:
        return False
    if has_int and has_float:
        for value in values:
            if type(value) is int and abs(value) > _FLOAT64_EXACT_INT:
                return False
    elif has_int:  # int values vs float literal: float64 cast must be exact
        for value in values:
            if abs(value) > _FLOAT64_EXACT_INT:
                return False
    return True


def compare_with_literal(op: str, values: list, literal) -> list:
    """Vectorized ``compare_values(op, v, literal)`` over a column vector.

    Returns one ``True``/``False``/``None`` entry per value, identical to
    mapping :func:`~repro.query.expressions.compare_values`.
    """
    if (
        _np is not None
        and len(values) >= MIN_VECTOR_LENGTH
        and type(literal) in (int, float)
    ):
        shape = _numeric_shape(values)
        if shape is not None and _exact_as_array(values, literal, *shape):
            has_float = shape[1]
            try:
                array = _np.asarray(values)
            except (OverflowError, ValueError):  # ragged or unconvertible
                array = None
            # The dtype must reflect the Python types exactly: an int-only
            # vector that came back as anything but int64 (e.g. float64 or
            # uint64 because a value overflowed int64) would compare with
            # rounding, so it drops to the scalar path.
            if array is not None and array.dtype.kind == ("f" if has_float else "i"):
                return _COMPARE_OPS[op](array, literal).tolist()
    return [compare_values(op, value, literal) for value in values]


def selection_from_mask(mask: list) -> List[int]:
    """Indices whose mask entry is exactly ``True`` (NULL/MISSING never pass)."""
    if _np is not None and len(mask) >= MIN_VECTOR_LENGTH:
        # Only the exact booleans (and None, which never passes) may take the
        # array path: np.asarray(..., dtype=bool) would let truthy non-True
        # entries like 1 or MISSING through, breaking ``is True`` semantics.
        if all(value is True or value is False or value is None for value in mask):
            array = _np.asarray([value is True for value in mask], dtype=bool)
            return array.nonzero()[0].tolist()
    return [index for index, value in enumerate(mask) if value is True]


def gather(column: list, indices: List[int]) -> list:
    """Select ``column[i]`` for each selection index (duplicates allowed)."""
    return [column[index] for index in indices]


def _has_nan(values: list) -> bool:
    if _np is not None and len(values) >= MIN_VECTOR_LENGTH:
        try:
            array = _np.asarray(values)
        except (OverflowError, ValueError):
            array = None
        if array is not None:
            if array.dtype.kind == "f":
                return bool(_np.isnan(array).any())
            if array.dtype.kind == "i":
                return False
    return any(value != value for value in values)


def aggregate_add_many(aggregator, values: list) -> None:
    """Feed a whole column vector into one running aggregator.

    ``aggregator`` is a :class:`repro.query.executor._Aggregator` (duck-typed:
    ``function``/``count``/``total``/``minimum``/``maximum``/``add``).  The
    fast paths below perform the same left-fold operations as repeated
    ``add`` calls, so the result is bit-identical — including float rounding
    — and any vector they cannot handle exactly drops to the per-value loop.
    """
    function = aggregator.function
    if function == "count":
        # COUNT counts every row, MISSING and NULL included (SQL++ COUNT(x)
        # equals COUNT(*) in this engine, matching the scalar aggregator).
        aggregator.count += len(values)
        return
    if not values:
        return
    shape = _numeric_shape(values)
    if function == "countv":
        # Internal partial-AVG count (see repro.shard.partial): counts the
        # contributing numeric non-bool values, exactly like the scalar
        # aggregator.  Must be handled explicitly — falling through to the
        # min/max branch below would also accept all-string vectors.
        if shape is not None:
            aggregator.count += len(values)
            return
    elif function in ("sum", "avg"):
        if shape is not None:
            aggregator.count += len(values)
            # sum(values, start) is the exact left fold the scalar path does.
            aggregator.total = sum(values, aggregator.total)
            return
    elif shape is not None or all(type(value) is str for value in values):
        if shape is None or not _has_nan(values):
            aggregator.count += len(values)
            if function == "min":
                best = min(values)
                aggregator.minimum = (
                    best
                    if aggregator.minimum is None
                    else min(aggregator.minimum, best)
                )
            else:
                best = max(values)
                aggregator.maximum = (
                    best
                    if aggregator.maximum is None
                    else max(aggregator.maximum, best)
                )
            return
    for value in values:
        aggregator.add(value)


def aggregate_add_grouped(aggregators: Sequence, values: Optional[list]) -> None:
    """Feed ``values[i]`` into ``aggregators[i]`` for every row ``i``.

    The grouped counterpart of :func:`aggregate_add_many`: ``aggregators``
    holds each row's group aggregator (one function, repeated per group), and
    ``values`` is the aggregate's argument vector (None for ``COUNT(*)``,
    which adds None per row).  For vectors of plain ints and floats, or of
    strings, the loops below perform, per group and in row order, the same
    operations as repeated ``add`` calls — ``min(current, value)`` is
    ``value if value < current else current``, so NaN needs no special case
    here — and any other vector goes value by value through ``add``.
    """
    if not aggregators:
        return
    function = aggregators[0].function
    if function == "count":
        for aggregator in aggregators:
            aggregator.count += 1
        return
    if values is None:
        return  # every other function skips None
    kinds = set(map(type, values))
    if kinds == {str}:
        if function not in ("min", "max"):
            return  # the numeric functions skip strings
    elif not kinds <= {int, float}:
        for aggregator, value in zip(aggregators, values):
            aggregator.add(value)
        return
    if function == "countv":
        for aggregator in aggregators:
            aggregator.count += 1
    elif function in ("sum", "avg"):
        for aggregator, value in zip(aggregators, values):
            aggregator.count += 1
            aggregator.total += value
    elif function == "min":
        for aggregator, value in zip(aggregators, values):
            aggregator.count += 1
            current = aggregator.minimum
            if current is None or value < current:
                aggregator.minimum = value
    else:
        for aggregator, value in zip(aggregators, values):
            aggregator.count += 1
            current = aggregator.maximum
            if current is None or value > current:
                aggregator.maximum = value
