"""Read the program's own counters: ``metrics``-op scrapes parsed and diffed.

The coordinator's ``metrics`` op returns only its own registry, so every
shard is scraped directly as well and the samples are summed.  A scrape is a
request like any other: it adds a couple of frames to the wire counters it
reads, which is why scrapes sit at phase boundaries and never inside a timed
loop.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, Tuple

SampleKey = Tuple[str, FrozenSet[Tuple[str, str]]]
Samples = Dict[SampleKey, float]

_LINE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Samples:
    """Prometheus text exposition → ``{(name, labels): value}``."""
    samples: Samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        try:
            number = float(value)
        except ValueError:
            continue
        samples[(name, frozenset(_LABEL.findall(labels or "")))] = number
    return samples


def merge(scrapes: Iterable[Samples]) -> Samples:
    """Sum the same sample across processes."""
    total: Samples = {}
    for samples in scrapes:
        for key, value in samples.items():
            total[key] = total.get(key, 0.0) + value
    return total


def delta(before: Samples, after: Samples) -> Samples:
    """Counter growth between two scrapes (a restarted process counts from 0)."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(samples: Samples, name: str, **labels: str) -> float:
    """Σ of ``name`` over every label set that includes ``labels``."""
    wanted = set(labels.items())
    return sum(
        value
        for (sample_name, sample_labels), value in samples.items()
        if sample_name == name and wanted <= sample_labels
    )
