"""Field paths.

A :class:`FieldPath` names a location inside a document, e.g.
``user.name`` or ``entities.hashtags[*].text``.  Paths are used to

* identify columns in the extended Dremel format,
* express projections pushed down to columnar scans, and
* address fields in query expressions.

Steps are either field names (``str``) or the array-wildcard step ``"[*]"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence, Tuple

from .values import MISSING, type_tag_of, TYPE_ARRAY, TYPE_OBJECT

ARRAY_STEP = "[*]"


@dataclass(frozen=True)
class FieldPath:
    """An immutable dotted path with optional array-wildcard steps."""

    steps: Tuple[str, ...]

    # -- construction ---------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FieldPath":
        """Parse ``"a.b[*].c"`` into a path.

        ``[*]`` may be attached to a field name (``b[*]``) or appear as its own
        dotted step (``b.[*]``); both parse to the same path.
        """
        steps: list[str] = []
        for raw in text.split("."):
            if not raw:
                continue
            name = raw
            while name.endswith(ARRAY_STEP):
                name = name[: -len(ARRAY_STEP)]
            if name:
                steps.append(name)
            count = (len(raw) - len(name)) // len(ARRAY_STEP)
            steps.extend([ARRAY_STEP] * count)
        return cls(tuple(steps))

    @classmethod
    def of(cls, value: "FieldPath | str | Sequence[str]") -> "FieldPath":
        """Coerce strings / sequences / paths into a :class:`FieldPath`."""
        if isinstance(value, FieldPath):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(tuple(value))

    # -- basic protocol -------------------------------------------------------
    def __iter__(self) -> Iterator[str]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        out = ""
        for step in self.steps:
            if step == ARRAY_STEP:
                out += ARRAY_STEP
            elif out:
                out += "." + step
            else:
                out = step
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldPath({str(self)!r})"

    # -- manipulation ---------------------------------------------------------
    def child(self, step: str) -> "FieldPath":
        """Return a new path with one extra step appended."""
        return FieldPath(self.steps + (step,))

    def parent(self) -> "FieldPath":
        """Return the path with the last step removed."""
        return FieldPath(self.steps[:-1])

    def startswith(self, other: "FieldPath") -> bool:
        """Return True when ``other`` is a prefix of this path."""
        return self.steps[: len(other.steps)] == other.steps

    @property
    def array_depth(self) -> int:
        """Number of array steps in the path."""
        return sum(1 for step in self.steps if step == ARRAY_STEP)

    @property
    def top_field(self) -> str:
        """The first field-name step (used for coarse projection pushdown)."""
        for step in self.steps:
            if step != ARRAY_STEP:
                return step
        return ""


def get_path(document: Any, path: "FieldPath | str") -> Any:
    """Evaluate a path against a Python document.

    Missing fields return :data:`MISSING`.  An array step applied to an array
    returns the list of per-element results (with missing elements dropped),
    mirroring AsterixDB's quantified field access used by the evaluation
    queries.  Applying a field step to a non-object yields MISSING.
    """
    return _get(document, FieldPath.of(path).steps, 0)


def _get(value: Any, steps: Tuple[str, ...], index: int) -> Any:
    if index == len(steps):
        return value
    step = steps[index]
    if value is MISSING or value is None:
        return MISSING
    tag = type_tag_of(value)
    if step == ARRAY_STEP:
        if tag != TYPE_ARRAY:
            return MISSING
        results = []
        for element in value:
            child = _get(element, steps, index + 1)
            if child is not MISSING:
                results.append(child)
        return results
    if tag != TYPE_OBJECT:
        return MISSING
    if step not in value:
        return MISSING
    return _get(value[step], steps, index + 1)
