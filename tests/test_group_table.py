"""Property tests for the batched first breaker against its row-at-a-time oracles.

* :meth:`GroupTable.states` (whole key vectors) against a loop of
  :meth:`GroupTable.state` calls: same groups, same representative, same
  first-seen order, with keys that conflate (``1`` / ``1.0`` / ``True``,
  None / MISSING), NaN, lists and dicts, fed across several batches;
* :func:`kernels.aggregate_add_grouped` against repeated
  :meth:`_Aggregator.add`, for every aggregate function;
* the ORDER BY + LIMIT top-k cut of :func:`run_breakers` against
  ``sorted(...)[:k]``, stability included.

Results are compared by ``repr`` so that ``1`` vs ``1.0`` vs ``True`` counts.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.values import MISSING
from repro.query import kernels
from repro.query.executor import GroupTable, _Aggregator, _sort_key, run_breakers
from repro.query.plan import LimitNode, OrderByNode

NAN = float("nan")

#: Values of every kind a group key or sort key can hold.
ANY_VALUE = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2, 2.5, None, MISSING, NAN]),
    st.sampled_from(["1", "a", "b", [1], [1.0], [True, None], {"a": 1}, {"a": 1.0}]),
    st.builds(lambda: float("nan")),  # a NaN that is not the shared object
)

#: Plain values of mixed types that group together (1 / 1.0 / True).
CONFLATING = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None])

#: Vectors of one type; the plain ones take the batched fast path.
PLAIN_ELEMENTS = [
    st.integers(-3, 3),
    st.sampled_from([1.0, 2.0, 0.0, -0.0, 2.5, NAN]),
    st.booleans(),
    st.sampled_from(["1", "a", "b"]),
    st.none(),
    st.just(MISSING),  # one type, but not a plain one: MISSING hashes as None
]


def _vector(length: int):
    """A key vector: homogeneous (fast path) or of mixed kinds (fallback)."""
    return st.one_of(
        *(st.lists(element, min_size=length, max_size=length) for element in PLAIN_ELEMENTS),
        st.lists(ANY_VALUE, min_size=length, max_size=length),
        st.lists(CONFLATING, min_size=length, max_size=length),
    )


@st.composite
def _batches(draw):
    """Several batches of key vectors, all with one key arity."""
    arity = draw(st.integers(1, 2))
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        length = draw(st.integers(0, 8))
        batches.append(([draw(_vector(length)) for _ in range(arity)], length))
    return arity, batches


def _finish_rows(table: GroupTable, arity: int) -> list:
    names = [f"k{index}" for index in range(arity)]
    return [repr(row) for row in table.rows(names, lambda rows: {"rows": rows})]


@settings(max_examples=300, deadline=None)
@example(drawn=(1, [([[1.0, True, 1]], 3), ([[None]], 1), ([[MISSING]], 1)]))
@given(_batches())
def test_states_matches_per_row_state(drawn):
    arity, batches = drawn
    batched, per_row = GroupTable(list), GroupTable(list)
    row_id = 0
    for vectors, length in batches:
        states = batched.states(vectors, length)
        assert len(states) == length
        for index, state in enumerate(states):
            state.append(row_id)
            per_row.state(tuple(vector[index] for vector in vectors)).append(row_id)
            row_id += 1
    assert _finish_rows(batched, arity) == _finish_rows(per_row, arity)


def test_states_takes_the_fast_path_on_plain_vectors(monkeypatch):
    table = GroupTable(list)
    table.states([[1.0, 2.0]], 2)  # float members first
    monkeypatch.setattr(GroupTable, "state", lambda self, raw: pytest.fail("fallback"))
    (first,) = table.states([[True]], 1)  # then a bool-only and an int-only batch
    one, two, three = table.states([[1, 2, 3]], 3)
    assert first is one and two is not three
    assert [repr(row["g"]) for row in table.rows(["g"], lambda state: {})] == [
        "True",
        "2",
        "3",
    ]


def test_states_without_keys_is_one_group():
    table = GroupTable(list)
    assert len({id(state) for state in table.states([], 4)}) == 1
    assert table.rows([], lambda state: {"n": 1}) == [{"n": 1}]


# -- grouped fold ---------------------------------------------------------------------


FUNCTIONS = ("count", "countv", "sum", "avg", "min", "max")

#: Argument vectors: int / float (with and without NaN) / str ones the loops
#: fold, and mixed ones (bools, None, MISSING, containers) that go through
#: ``add``.
FOLD_ELEMENTS = [
    st.integers(-10 ** 20, 10 ** 20),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(allow_infinity=False),
    st.text(max_size=3),
    st.sampled_from([0, 1, 0.0, -0.0, 1.0]),  # ties whose members differ by repr
    st.one_of(st.integers(-5, 5), st.booleans()),  # add skips the bools
    st.one_of(st.integers(-5, 5), st.floats(-5, 5), st.none(), st.just(MISSING)),
    ANY_VALUE,
]


@contextlib.contextmanager
def _numpy_mode(enabled: bool):
    kernels.use_numpy(enabled)
    try:
        yield
    finally:
        kernels.use_numpy(kernels.numpy_available())


def _outcome(run):
    """What folding did: the per-group (count, result), or the error type."""
    try:
        aggregators = run()
    except TypeError as error:
        return type(error).__name__
    return [(a.count, repr(a.result())) for a in aggregators]


@st.composite
def _grouped_vectors(draw):
    groups = draw(st.integers(1, 3))
    vectors = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(0, 40))
        element = draw(st.sampled_from(FOLD_ELEMENTS))
        values = draw(st.one_of(st.none(), st.lists(element, min_size=length, max_size=length)))
        rows = length if values is None else len(values)
        slots = draw(st.lists(st.integers(0, groups - 1), min_size=rows, max_size=rows))
        vectors.append((slots, values))
    return groups, vectors


@pytest.mark.parametrize("function", FUNCTIONS)
@settings(max_examples=150, deadline=None)
@example(drawn=(2, [([0, 0, 1, 1], [1.0, 1, 0.0, -0.0]), ([0, 0], [2, True])]))
@given(drawn=_grouped_vectors())
def test_grouped_fold_matches_repeated_add(function, drawn):
    groups, vectors = drawn

    def reference():
        aggregators = [_Aggregator(function) for _ in range(groups)]
        for slots, values in vectors:
            for row, slot in enumerate(slots):
                aggregators[slot].add(None if values is None else values[row])
        return aggregators

    def grouped():
        aggregators = [_Aggregator(function) for _ in range(groups)]
        for slots, values in vectors:
            kernels.aggregate_add_grouped([aggregators[slot] for slot in slots], values)
        return aggregators

    expected = _outcome(reference)
    modes = (True, False) if kernels.numpy_available() else (False,)
    for enabled in modes:
        with _numpy_mode(enabled):
            assert _outcome(grouped) == expected, enabled


# -- ORDER BY + LIMIT top-k -------------------------------------------------------------


#: Sort values: every kind, many ties, and plain numbers (with NaN).
SORT_VALUES = [
    ANY_VALUE,
    st.sampled_from([1, 1.0, True, None, MISSING, "a"]),
    st.one_of(st.sampled_from([1, 1.0, 2, 0.5, 0.0, -0.0, NAN]), st.builds(lambda: float("nan"))),
    st.one_of(st.integers(-3, 3), st.floats(-3, 3)),
]


def _rows_of(values: list) -> list:
    return [
        {"position": index} if value is MISSING else {"position": index, "k": value}
        for index, value in enumerate(values)
    ]


@st.composite
def _sortable_rows(draw):
    return _rows_of(draw(st.lists(draw(st.sampled_from(SORT_VALUES)), max_size=30)))


@settings(max_examples=400, deadline=None)
@example(rows=_rows_of([2, 3, 3, NAN, 0.5, NAN, 0.5, NAN, 1]), k=7, descending=False)
@given(
    rows=_sortable_rows(),
    k=st.one_of(st.none(), st.integers(0, 35)),
    descending=st.booleans(),
)
def test_top_k_matches_sorted_prefix(rows, k, descending):
    """ORDER BY + LIMIT k (and ORDER BY alone, k=None) against the stable sort."""
    expected = sorted(
        rows, key=lambda row: _sort_key(row.get("k", MISSING)), reverse=descending
    )[:k]
    breakers = [OrderByNode("k", descending)] + ([] if k is None else [LimitNode(k)])
    got = run_breakers(iter(rows), breakers)
    assert [row["position"] for row in got] == [row["position"] for row in expected]
