"""Workload inputs: generated documents, SQL++ texts, and their digests.

Everything the program sees comes from here and is a pure function of
``--seed``: documents from ``repro.datasets.make_generator`` and statement
texts from ``repro.bench.queries.SQLPP_QUERY_SUITES`` plus the few written
below.  Both live outside the benchmark's own directory, so each workload's
inputs are hashed and the default seed's digest is pinned
(``pinned_inputs.json``): a drifted generator aborts the run instead of
silently moving the baseline.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bench.queries import SQLPP_QUERY_SUITES
from repro.datasets import make_generator

DEFAULT_SEED = 11
SMOKE_DIVISOR = 20

#: Records preloaded by the analytics workloads (Figure 14's four datasets).
ANALYTICS_SIZES = {"cell": 20000, "sensors": 2000, "tweet_1": 2000, "wos": 1000}
#: Documents per preload ``insert`` request.
PRELOAD_BATCH = 250

#: The projected field of a point lookup (``lookup(key, fields=[field])``).
LOOKUP_FIELD = {"cell": "duration", "feed": "timestamp"}

MIXED_PRELOAD = 20000
MIXED_WRITER_DOCS_PER_S = 500
MIXED_WRITER_BATCH = 50
#: Point lookups per reader cycle (then one COUNT(*), one filtered aggregate).
MIXED_LOOKUPS_PER_CYCLE = 4
#: The writer's stream grows with ``--seconds``; its digest covers this prefix.
MIXED_DIGEST_WRITER_DOCS = 500

FEED_BATCH = 50
#: The ingest phase is fixed work sized by ``--seconds``: this many documents
#: per second of budget, which is what the program sustains on the reference
#: host.  A time-boxed ingest would end at a random point of the merge
#: sawtooth, and that alone moves docs/s by a tenth from run to run.
FEED_DOCS_PER_BUDGET_SECOND = 650
#: Every tenth feed batch re-sends earlier keys with a bumped ``timestamp``.
FEED_UPSERT_EVERY = 10
#: With an even hash both shards fill their memtables in lockstep, and whether
#: their flush/merge stalls then land in one batch (and overlap on two cores)
#: or in neighbouring ones (and add up) flips with a few bytes: ±12 % docs/s
#: from seed to seed.  A primer of this many documents, all owned by shard 0,
#: is loaded during set-up and puts the shards half a flush period apart.
FEED_PRIMER_DOCS = 200
FEED_PRIMER_FIRST_KEY = 1_000_000_000
FEED_TIMESTAMP_BASE = 1_600_000_000_000
FEED_TIMESTAMP_BUMP = 1_000_000

_PINNED_PATH = Path(__file__).resolve().parent.parent / "pinned_inputs.json"
_ORDER_LIMIT = re.compile(r"ORDER\s+BY\s+(\w+)\s+DESC\s+LIMIT\s+(\d+)\s*;", re.IGNORECASE)


def scaled(count: int, smoke: bool) -> int:
    return max(1, count // SMOKE_DIVISOR) if smoke else count


def canonical_bytes(document: dict) -> bytes:
    """The canonical JSON of a document: what "one byte of user data" means."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class Statement:
    """One SQL++ text plus how its answer is compared.

    ``order_key``/``limit`` are set for ``ORDER BY k DESC LIMIT n`` statements:
    rows tied on ``k`` may come back in any order, so those are compared on
    the key column and on membership in the tie-inclusive candidate set.
    """

    name: str
    dataset: str
    text: str
    order_key: Optional[str] = None
    limit: Optional[int] = None

    @property
    def unlimited_text(self) -> str:
        return re.sub(r"LIMIT\s+\d+\s*;", ";", self.text, flags=re.IGNORECASE)


def make_statement(name: str, dataset: str, text: str) -> Statement:
    text = " ".join(text.split())
    match = _ORDER_LIMIT.search(text)
    if match is None:
        return Statement(name, dataset, text)
    return Statement(name, dataset, text, match.group(1), int(match.group(2)))


def analytics_statements() -> List[Statement]:
    """The 14 Figure-14 queries, each against the dataset of its own name."""
    return [
        make_statement(name, dataset, text.format(dataset=dataset))
        for dataset, suite in SQLPP_QUERY_SUITES.items()
        for name, text in suite.items()
    ]


def analytics_documents(seed: int, smoke: bool) -> Dict[str, List[dict]]:
    return {
        dataset: make_generator(dataset, scaled(count, smoke), seed=seed).documents()
        for dataset, count in ANALYTICS_SIZES.items()
    }


def mixed_statements(preload: int) -> List[Statement]:
    """The reader's two statements.  The filtered one is restricted to the
    preloaded key range, which the writer never touches, so its answer is
    fixed; ``COUNT(*)`` grows with the writer and is range-checked."""
    return [
        make_statement("mixed_count", "cell", "SELECT COUNT(*) FROM cell AS c;"),
        make_statement(
            "mixed_filtered",
            "cell",
            "SELECT COUNT(*) AS n, MAX(c.duration) AS m FROM cell AS c "
            f"WHERE c.duration >= 600 AND c.id < {preload};",
        ),
    ]


def mixed_documents(seed: int, smoke: bool, seconds: float) -> Tuple[List[dict], List[dict]]:
    """(preload, writer) cell documents; the writer continues the key space."""
    preload = scaled(MIXED_PRELOAD, smoke)
    writer = max(MIXED_DIGEST_WRITER_DOCS, int(MIXED_WRITER_DOCS_PER_S * seconds) + MIXED_WRITER_BATCH)
    documents = make_generator("cell", preload + writer, seed=seed).documents()
    return documents[:preload], documents[preload:]


def feed_statements() -> List[Statement]:
    """Read-back statements run over the freshly ingested, un-checkpointed feed."""
    return [
        make_statement("feed_count", "feed", "SELECT COUNT(*) FROM feed AS t;"),
        make_statement(
            "feed_filtered",
            "feed",
            "SELECT COUNT(*) AS n, MAX(t.timestamp) AS latest FROM feed AS t "
            "WHERE t.retweet_count >= 250;",
        ),
        make_statement(
            "feed_langs",
            "feed",
            "SELECT lang AS lang, COUNT(*) AS n FROM feed AS t "
            "GROUP BY t.lang AS lang ORDER BY n DESC LIMIT 10;",
        ),
    ]


class FeedStream:
    """The ingest feed: batches of tweet_1 documents, one in ten an upsert batch.

    New documents take consecutive keys and a ``timestamp``; an upsert batch
    re-sends ``FEED_BATCH`` earlier keys with the timestamp bumped.  ``latest``
    maps every key sent so far to its newest version — what a correct store
    must return after the run, and after the ``kill -9``.
    """

    def __init__(self, seed: int) -> None:
        self._documents: Iterator[dict] = iter(make_generator("tweet_1", 10**9, seed=seed))
        self._choose = random.Random(seed * 7919 + 1)
        self._batches = 0
        self._keys: List[int] = []
        self.latest: Dict[int, dict] = {}
        self.sent_bytes = 0

    def _fresh(self, key: int) -> dict:
        document = next(self._documents)
        document["id"] = key
        document["timestamp"] = FEED_TIMESTAMP_BASE + key
        return document

    def _sent(self, batch: List[dict]) -> List[dict]:
        for document in batch:
            if document["id"] not in self.latest:
                self._keys.append(document["id"])
            self.latest[document["id"]] = document
            self.sent_bytes += len(canonical_bytes(document))
        return batch

    def primer(self, count: int, accept) -> List[dict]:
        """``count`` documents whose keys satisfy ``accept`` (a key predicate),
        taken from a key range the feed itself never uses."""
        keys = (key for key in itertools.count(FEED_PRIMER_FIRST_KEY) if accept(key))
        return self._sent([self._fresh(key) for key in itertools.islice(keys, count)])

    def next_batch(self) -> List[dict]:
        self._batches += 1
        if self._batches % FEED_UPSERT_EVERY == 0:
            batch = [
                dict(self.latest[key], timestamp=self.latest[key]["timestamp"] + FEED_TIMESTAMP_BUMP)
                for key in self._choose.sample(self._keys, FEED_BATCH)
            ]
        else:
            first = (self._batches - 1) * FEED_BATCH
            batch = [self._fresh(key) for key in range(first, first + FEED_BATCH)]
        return self._sent(batch)


def feed_expected(latest: Dict[int, dict]) -> Dict[str, list]:
    """Answers to :func:`feed_statements` over the newest version of each key."""
    documents = list(latest.values())
    hot = [d for d in documents if d["retweet_count"] >= 250]
    langs: Dict[str, int] = {}
    for document in documents:
        langs[document["lang"]] = langs.get(document["lang"], 0) + 1
    return {
        "feed_count": [{"count": len(documents)}],
        "feed_filtered": [
            {"n": len(hot), "latest": max((d["timestamp"] for d in hot), default=None)}
        ],
        "feed_langs": [{"lang": lang, "n": n} for lang, n in langs.items()],
    }


# -- digests ---------------------------------------------------------------------------


class InputDigest:
    """SHA-256 over canonical documents and statement texts, plus byte totals."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.user_bytes = 0

    def add_documents(self, label: str, documents: List[dict]) -> int:
        """Hash ``documents``; returns their canonical byte total."""
        self._hash.update(f"#{label}\n".encode("utf-8"))
        total = 0
        for document in documents:
            data = canonical_bytes(document)
            self._hash.update(data)
            self._hash.update(b"\n")
            total += len(data)
        self.user_bytes += total
        return total

    def add_statements(self, statements: List[Statement]) -> None:
        for statement in statements:
            self._hash.update(f"?{statement.name}:{statement.text}\n".encode("utf-8"))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def pinned_digests() -> Dict[str, str]:
    """``{"<workload>[-smoke]": sha256}`` for :data:`DEFAULT_SEED`."""
    try:
        return json.loads(_PINNED_PATH.read_text())["sha256"]
    except (OSError, ValueError, KeyError):
        return {}


def write_pinned_digests(digests: Dict[str, str]) -> None:
    payload = {"seed": DEFAULT_SEED, "sha256": dict(sorted(digests.items()))}
    _PINNED_PATH.write_text(json.dumps(payload, indent=2) + "\n")


class InputDrift(RuntimeError):
    """The default seed's inputs no longer hash to the pinned digest."""


def check_pinned(key: str, digest: str, seed: int) -> None:
    """Abort when the default seed's inputs changed under the benchmark."""
    if seed != DEFAULT_SEED:
        return
    pinned = pinned_digests().get(key)
    if pinned is not None and pinned != digest:
        raise InputDrift(
            f"inputs of {key!r} for seed {seed} hash to {digest}, pinned {pinned}: "
            "src/repro/datasets or the query suites changed.  Re-baseline with "
            "--regen-golden only in a change that claims no gain."
        )
