"""Schema tree with union types and schema inference (the tuple compactor).

The schema describes the structure of every record seen so far for one
dataset partition.  It is *inferred*, never declared: each flush extends it
(new fields, new types become unions), and the schema persisted with the
newest component is always a superset of all earlier ones (§2.2 of the
paper).

Node kinds
----------
``object``   children keyed by field name
``array``    a single ``item`` child describing every element
``union``    branches keyed by type tag (``string``, ``object`` ...); unions
             are *logical guides* and do not contribute a definition level
atomic       ``int64`` / ``double`` / ``string`` / ``boolean`` / ``null``
             leaves; every atomic leaf owns exactly one column

Definition levels
-----------------
Every non-union node has a ``level``: its depth counting object/array nodes
(root = 0).  A leaf's maximum definition level equals its level.  Union
branches share the level their slot would have had (§3.2.2: "union nodes are
logical guides and do not appear physically in the actual records").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..model.errors import SchemaError
from ..model.values import (
    ATOMIC_TYPE_TAGS,
    MISSING,
    TYPE_ARRAY,
    TYPE_OBJECT,
    type_tag_of,
)

KIND_OBJECT = TYPE_OBJECT
KIND_ARRAY = TYPE_ARRAY
KIND_UNION = "union"

#: Path step used to mark the elements of an array in a column's path.
ARRAY_PATH_STEP = "[*]"


def field_name_steps(steps: Iterable[str]) -> Tuple[str, ...]:
    """Strip array steps and union-branch tags from a path, leaving field names.

    This is the normalization used whenever a query path (which never names
    union branches and may or may not spell out array steps) is matched
    against a column path: ``a.b`` covers ``a.[*].b`` and ``a.<object>.b``.
    """
    return tuple(
        step
        for step in steps
        if step != ARRAY_PATH_STEP and not (step.startswith("<") and step.endswith(">"))
    )


class SchemaNode:
    """Base class for schema tree nodes."""

    __slots__ = ("level",)

    kind: str = "abstract"

    def __init__(self, level: int) -> None:
        self.level = level

    # Subclasses override ------------------------------------------------------
    def iter_children(self) -> Iterator["SchemaNode"]:
        return iter(())

    def to_dict(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError


class ObjectNode(SchemaNode):
    """A nested object; children are keyed by field name."""

    __slots__ = ("children",)

    kind = KIND_OBJECT

    def __init__(self, level: int) -> None:
        super().__init__(level)
        self.children: Dict[str, SchemaNode] = {}

    def iter_children(self) -> Iterator[SchemaNode]:
        return iter(self.children.values())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "children": {name: child.to_dict() for name, child in self.children.items()},
        }


class ArrayNode(SchemaNode):
    """An array; ``item`` describes the elements (None until first element seen)."""

    __slots__ = ("item",)

    kind = KIND_ARRAY

    def __init__(self, level: int) -> None:
        super().__init__(level)
        self.item: Optional[SchemaNode] = None

    def iter_children(self) -> Iterator[SchemaNode]:
        return iter(() if self.item is None else (self.item,))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "item": None if self.item is None else self.item.to_dict(),
        }


class UnionNode(SchemaNode):
    """A union of heterogeneous types observed at one slot."""

    __slots__ = ("branches",)

    kind = KIND_UNION

    def __init__(self, level: int) -> None:
        super().__init__(level)
        self.branches: Dict[str, SchemaNode] = {}

    def iter_children(self) -> Iterator[SchemaNode]:
        return iter(self.branches.values())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "branches": {tag: node.to_dict() for tag, node in self.branches.items()},
        }


class AtomicNode(SchemaNode):
    """An atomic leaf; owns exactly one column."""

    __slots__ = ("type_tag", "column")

    kind = "atomic"

    def __init__(self, level: int, type_tag: str) -> None:
        super().__init__(level)
        self.type_tag = type_tag
        self.column: Optional["ColumnInfo"] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "type": self.type_tag,
            "column": None if self.column is None else self.column.column_id,
        }


@dataclass
class ColumnInfo:
    """Metadata for one physical column (one atomic leaf in the schema tree).

    Attributes mirror what the shredder, the page writers, and the readers
    need: the maximum definition level, how many ancestor arrays the column
    has (which bounds the delimiter values), and the definition level of the
    outermost ancestor array (``None`` for columns not nested in arrays).
    """

    column_id: int
    path: Tuple[str, ...]
    type_tag: str
    max_def: int
    array_count: int
    outer_array_level: Optional[int]
    is_primary_key: bool = False

    @property
    def max_delimiter(self) -> int:
        """Largest delimiter value that can appear in this column (0 if none)."""
        return max(self.array_count - 1, 0)

    @property
    def max_level_value(self) -> int:
        """Largest integer stored in the definition-level stream."""
        return self.max_def

    @property
    def dotted_path(self) -> str:
        return ".".join(self.path) if self.path else "<pk>"

    def to_dict(self) -> dict:
        return {
            "column_id": self.column_id,
            "path": list(self.path),
            "type": self.type_tag,
            "max_def": self.max_def,
            "array_count": self.array_count,
            "outer_array_level": self.outer_array_level,
            "is_primary_key": self.is_primary_key,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnInfo":
        return cls(
            column_id=data["column_id"],
            path=tuple(data["path"]),
            type_tag=data["type"],
            max_def=data["max_def"],
            array_count=data["array_count"],
            outer_array_level=data["outer_array_level"],
            is_primary_key=data["is_primary_key"],
        )


class Schema:
    """The inferred schema of one dataset: a tree plus the column catalog.

    The primary key is kept out of the tree — it is stored in its own column
    whose definition level encodes record vs. anti-matter (§3.2.3).
    """

    PK_COLUMN_ID = 0

    def __init__(self, primary_key_field: str = "id") -> None:
        self.primary_key_field = primary_key_field
        self.root = ObjectNode(level=0)
        self.columns: List[ColumnInfo] = []
        self._version = 0
        pk_column = ColumnInfo(
            column_id=self.PK_COLUMN_ID,
            path=(primary_key_field,),
            type_tag="int64",
            max_def=1,
            array_count=0,
            outer_array_level=None,
            is_primary_key=True,
        )
        self.columns.append(pk_column)

    # -- catalogue accessors ---------------------------------------------------
    @property
    def pk_column(self) -> ColumnInfo:
        return self.columns[self.PK_COLUMN_ID]

    @property
    def version(self) -> int:
        """Monotonically increasing; bumped whenever the tree changes shape."""
        return self._version

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column(self, column_id: int) -> ColumnInfo:
        return self.columns[column_id]

    def value_columns(self) -> List[ColumnInfo]:
        """All columns except the primary key."""
        return self.columns[1:]

    # -- inference (the tuple compactor) ----------------------------------------
    def observe(self, document: dict) -> None:
        """Extend the schema so that ``document`` (pk removed) conforms to it."""
        if not isinstance(document, dict):
            raise SchemaError("top-level documents must be objects")
        for name, value in document.items():
            if name == self.primary_key_field:
                continue
            child = self.root.children.get(name)
            new_child = self._infer(child, value, self.root.level + 1, (name,))
            if new_child is not child:
                self.root.children[name] = new_child

    def _infer(
        self,
        node: Optional[SchemaNode],
        value,
        level: int,
        path: Tuple[str, ...],
    ) -> SchemaNode:
        tag = type_tag_of(value)
        if node is None:
            return self._create(value, level, path)
        if isinstance(node, UnionNode):
            branch = node.branches.get(tag)
            new_branch = self._infer(branch, value, node.level, path + (f"<{tag}>",))
            if new_branch is not branch:
                node.branches[tag] = new_branch
                self._version += 1
            return node
        node_tag = node.type_tag if isinstance(node, AtomicNode) else node.kind
        if node_tag == tag:
            self._extend_in_place(node, value, path)
            return node
        # Type conflict: wrap the existing node and the new value in a union.
        union = UnionNode(level=node.level)
        union.branches[node_tag] = node
        union.branches[tag] = self._create(value, node.level, path + (f"<{tag}>",))
        self._version += 1
        return union

    def _extend_in_place(self, node: SchemaNode, value, path: Tuple[str, ...]) -> None:
        if isinstance(node, ObjectNode):
            for name, child_value in value.items():
                child = node.children.get(name)
                new_child = self._infer(child, child_value, node.level + 1, path + (name,))
                if new_child is not child:
                    node.children[name] = new_child
        elif isinstance(node, ArrayNode):
            for element in value:
                item = node.item
                new_item = self._infer(
                    item, element, node.level + 1, path + (ARRAY_PATH_STEP,)
                )
                if new_item is not item:
                    node.item = new_item
        # atomic nodes with a matching tag need no extension

    def _create(self, value, level: int, path: Tuple[str, ...]) -> SchemaNode:
        tag = type_tag_of(value)
        self._version += 1
        if tag == TYPE_OBJECT:
            node = ObjectNode(level)
            for name, child_value in value.items():
                node.children[name] = self._create(child_value, level + 1, path + (name,))
            return node
        if tag == TYPE_ARRAY:
            node = ArrayNode(level)
            for element in value:
                item = node.item
                new_item = self._infer(
                    item, element, level + 1, path + (ARRAY_PATH_STEP,)
                )
                if new_item is not item:
                    node.item = new_item
            if node.item is None:
                # An empty array must still own a column: without a leaf below
                # the array node there would be nowhere to record the
                # definition level that distinguishes ``[]`` from MISSING, and
                # the shredder would silently drop the field.  A null item
                # behaves exactly like a ``[null]`` element type and unions
                # with whatever element type shows up later.
                node.item = self._create(None, level + 1, path + (ARRAY_PATH_STEP,))
            return node
        leaf = AtomicNode(level, tag)
        leaf.column = self._register_column(leaf, path)
        return leaf

    def _register_column(self, leaf: AtomicNode, path: Tuple[str, ...]) -> ColumnInfo:
        array_count = sum(1 for step in path if step == ARRAY_PATH_STEP)
        outer_array_level = None
        if array_count:
            # The outermost ancestor array's level equals the number of
            # level-contributing steps strictly before the first array step
            # (the "[*]" step descends *into* the array node).
            outer_array_level = 0
            for step in path:
                if step == ARRAY_PATH_STEP:
                    break
                if step.startswith("<") and step.endswith(">"):
                    continue  # union branches do not add levels
                outer_array_level += 1
        info = ColumnInfo(
            column_id=len(self.columns),
            path=path,
            type_tag=leaf.type_tag,
            max_def=leaf.level,
            array_count=array_count,
            outer_array_level=outer_array_level,
            is_primary_key=False,
        )
        self.columns.append(info)
        return info

    # -- traversal helpers -------------------------------------------------------
    def iter_leaves(self, node: Optional[SchemaNode] = None) -> Iterator[AtomicNode]:
        """Yield every atomic leaf below ``node`` (default: the whole tree)."""
        start = self.root if node is None else node
        stack = [start]
        while stack:
            current = stack.pop()
            if isinstance(current, AtomicNode):
                yield current
            else:
                stack.extend(current.iter_children())

    def leaf_columns(self, node: Optional[SchemaNode] = None) -> List[ColumnInfo]:
        """Column metadata for every leaf below ``node`` in column-id order."""
        columns = [leaf.column for leaf in self.iter_leaves(node) if leaf.column]
        return sorted(columns, key=lambda column: column.column_id)

    def field_node(self, field_name: str) -> Optional[SchemaNode]:
        return self.root.children.get(field_name)

    def columns_for_fields(self, field_names: Iterable[str]) -> List[ColumnInfo]:
        """Columns needed to read the given top-level fields (plus the pk)."""
        wanted: List[ColumnInfo] = [self.pk_column]
        for name in field_names:
            node = self.field_node(name)
            if node is not None:
                wanted.extend(self.leaf_columns(node))
        seen = set()
        unique = []
        for column in sorted(wanted, key=lambda column: column.column_id):
            if column.column_id not in seen:
                seen.add(column.column_id)
                unique.append(column)
        return unique

    def columns_for_paths(self, paths: Iterable[object]) -> List[ColumnInfo]:
        """Columns needed to evaluate the given (possibly nested) paths, plus the pk.

        This is the fine-grained companion of :meth:`columns_for_fields`: a
        column is needed iff one of the requested paths is a field-name-wise
        prefix of the column's path (array steps and union-branch tags are
        ignored on both sides, so ``a.b`` covers ``a.[*].b``, ``a.<object>.b``
        and everything beneath them), or it fixes the shape of an array the
        path crosses (:meth:`shape_columns`).  Without those, an array whose
        elements hold none of the requested columns — or predate them —
        would assemble as MISSING, or lose elements, instead of reading what
        the whole document holds.
        """
        from ..model.path import FieldPath

        requested = [field_name_steps(FieldPath.of(path).steps) for path in paths]
        wanted: Dict[int, ColumnInfo] = {self.PK_COLUMN_ID: self.pk_column}
        for column in self.columns:
            if column.is_primary_key:
                continue
            stripped = field_name_steps(column.path)
            if any(stripped[: len(steps)] == steps for steps in requested):
                wanted[column.column_id] = column
        for steps in requested:
            for array in self._arrays_crossed(steps):
                for column in self.shape_columns(array):
                    wanted[column.column_id] = column
        return sorted(wanted.values(), key=lambda column: column.column_id)

    def _arrays_crossed(self, steps: Tuple[str, ...]) -> List[ArrayNode]:
        """The array nodes strictly above the nodes that field-name ``steps``
        reach (arrays and unions are looked through, as by the prefix rule)."""
        crossed: List[ArrayNode] = []
        nodes: List[SchemaNode] = [self.root]
        for step in steps:
            objects: List[ObjectNode] = []
            while nodes:
                node = nodes.pop()
                if isinstance(node, ObjectNode):
                    objects.append(node)
                elif not isinstance(node, AtomicNode):  # an array or a union
                    if isinstance(node, ArrayNode):
                        crossed.append(node)
                    nodes.extend(node.iter_children())
            nodes = [node.children[step] for node in objects if step in node.children]
        return crossed

    def shape_columns(self, array: ArrayNode) -> List[ColumnInfo]:
        """The columns that fix the shape of ``array`` in every record: whether
        the record has the array, and how many elements it holds (§3.2.2).

        First the *anchor*, the array's lowest-id column: it was created with
        the array node, so it is never back-filled over a record that has the
        array (a column inferred mid-flush reads "no array" for the earlier
        records of that flush).  Then, for a union element type, the lowest-id
        column of every other branch: an element leaves one entry at the
        array's level in the branches it does not take, as an empty array
        does, so only a column of the branch it takes tells ``[x]`` from
        ``[]``.  A column that lies under a further array brings that array's
        shape columns too, since assembly rebuilds every array it holds a
        column of.  Sorted by id, so the anchor comes first; empty when no
        column lies under the array.
        """
        shape: Dict[int, ColumnInfo] = {}
        pending = [array]
        while pending:
            node = pending.pop()
            item = node.item
            branches = item.branches.values() if isinstance(item, UnionNode) else ()
            for subtree in (node, *branches):
                leaves = self.leaf_columns(subtree)
                if leaves and leaves[0].column_id not in shape:
                    shape[leaves[0].column_id] = leaves[0]
                    pending.extend(_arrays_between(node, leaves[0]))
        return sorted(shape.values(), key=lambda column: column.column_id)

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "primary_key_field": self.primary_key_field,
            "version": self._version,
            "root": self.root.to_dict(),
            "columns": [column.to_dict() for column in self.columns],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schema":
        schema = cls(primary_key_field=data["primary_key_field"])
        schema.columns = [ColumnInfo.from_dict(entry) for entry in data["columns"]]
        column_by_id = {column.column_id: column for column in schema.columns}
        schema.root = _node_from_dict(data["root"], column_by_id)
        schema._version = data["version"]
        return schema

    def clone(self) -> "Schema":
        """Deep copy (used when persisting a snapshot with a flushed component)."""
        return Schema.from_dict(self.to_dict())

    # -- debugging ----------------------------------------------------------------
    def describe(self) -> str:
        """A human-readable rendering of the schema tree (used by examples)."""
        lines: List[str] = [f"root (object, level 0, pk={self.primary_key_field!r})"]
        self._describe(self.root, indent=1, lines=lines)
        return "\n".join(lines)

    def _describe(self, node: SchemaNode, indent: int, lines: List[str]) -> None:
        prefix = "  " * indent
        if isinstance(node, ObjectNode):
            for name, child in node.children.items():
                lines.append(f"{prefix}{name}: {_describe_node(child)}")
                self._describe(child, indent + 1, lines)
        elif isinstance(node, ArrayNode):
            if node.item is not None:
                lines.append(f"{prefix}[*]: {_describe_node(node.item)}")
                self._describe(node.item, indent + 1, lines)
        elif isinstance(node, UnionNode):
            for tag, branch in node.branches.items():
                lines.append(f"{prefix}<{tag}>: {_describe_node(branch)}")
                self._describe(branch, indent + 1, lines)


def _arrays_between(top: SchemaNode, column: ColumnInfo) -> List[ArrayNode]:
    """The array nodes strictly between ``top`` and ``column``'s leaf."""
    stack = [(top, ())]
    while stack:
        node, arrays = stack.pop()
        if isinstance(node, AtomicNode):
            if node.column is column:
                return list(arrays)
            continue
        if isinstance(node, ArrayNode) and node is not top:
            arrays = arrays + (node,)
        stack.extend((child, arrays) for child in node.iter_children())
    return []


def _describe_node(node: SchemaNode) -> str:
    if isinstance(node, AtomicNode):
        column_id = node.column.column_id if node.column else "?"
        return f"{node.type_tag} (level {node.level}, column {column_id})"
    return f"{node.kind} (level {node.level})"


def _node_from_dict(data: dict, columns: Dict[int, ColumnInfo]) -> SchemaNode:
    kind = data["kind"]
    if kind == KIND_OBJECT:
        node = ObjectNode(data["level"])
        node.children = {
            name: _node_from_dict(child, columns)
            for name, child in data["children"].items()
        }
        return node
    if kind == KIND_ARRAY:
        node = ArrayNode(data["level"])
        node.item = (
            None if data["item"] is None else _node_from_dict(data["item"], columns)
        )
        return node
    if kind == KIND_UNION:
        node = UnionNode(data["level"])
        node.branches = {
            tag: _node_from_dict(branch, columns)
            for tag, branch in data["branches"].items()
        }
        return node
    if kind == "atomic":
        leaf = AtomicNode(data["level"], data["type"])
        if data["column"] is not None:
            leaf.column = columns[data["column"]]
        return leaf
    raise SchemaError(f"unknown schema node kind {kind!r}")
