"""Doctest runner for the documented public APIs.

The docstring examples in the query/index/storage layers double as tested
documentation (ISSUE 2's docs satellite): this module executes them under
pytest so ``docs/`` and the module docstrings cannot silently rot.  The CI
docs job runs exactly this file plus the markdown link check.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

#: Modules whose docstring examples must both exist and pass.
MODULES_WITH_EXAMPLES = [
    "repro.storage.stats",
    "repro.query.plan",
    "repro.query.expressions",
    "repro.index.secondary",
    "repro.sqlpp",
    "repro.sqlpp.lower",
]

#: Modules checked opportunistically (examples run if present).
MODULES_CHECKED = [
    "repro.query.optimizer",
    "repro.query.stats",
    "repro.query.pushdown",
    "repro.query.executor",
    "repro.query.batch",
    "repro.query.batch_executor",
    "repro.query.kernels",
    "repro.index",
    "repro.sqlpp.lexer",
    "repro.sqlpp.parser",
    "repro.sqlpp.binder",
    "repro.store.datastore",
    "repro.shell",
]


@pytest.mark.parametrize("module_name", MODULES_WITH_EXAMPLES)
def test_doctests_pass_and_exist(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"
    assert results.attempted > 0, f"{module_name} should carry doctest examples"


@pytest.mark.parametrize("module_name", MODULES_CHECKED)
def test_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"
