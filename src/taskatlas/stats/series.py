"""Keyed numeric series: the unit-of-account for correlation-style operations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from ..core import InputError


class StatsError(InputError):
    pass


@dataclass(frozen=True)
class Series:
    """Unit-keyed real values; keys unique, values finite."""

    keys: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.keys) != len(set(self.keys)):
            raise StatsError("duplicate keys in series")
        if len(self.keys) != len(self.values):
            raise StatsError("keys and values differ in length")
        if not np.all(np.isfinite(self.values)):
            raise StatsError("non-finite values in series")

    @classmethod
    def from_mapping(cls, data: Mapping[str, float]) -> "Series":
        keys = tuple(sorted(data))
        return cls(keys=keys, values=np.asarray([float(data[k]) for k in keys], dtype=np.float64))

    def drop(self, key: str) -> "Series":
        idx = [i for i, k in enumerate(self.keys) if k != key]
        return Series(keys=tuple(self.keys[i] for i in idx), values=self.values[idx])


SeriesLike = Union[Series, Mapping[str, float]]


def as_series(data: SeriesLike) -> Series:
    if isinstance(data, Series):
        return data
    return Series.from_mapping(data)


def align(*series: SeriesLike) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Arrays over the sorted key intersection of all inputs."""
    parsed = [as_series(s) for s in series]
    common = set(parsed[0].keys)
    for s in parsed[1:]:
        common &= set(s.keys)
    keys = tuple(sorted(common))
    columns = []
    for s in parsed:
        index = {k: i for i, k in enumerate(s.keys)}
        columns.append(s.values[[index[k] for k in keys]])
    return keys, columns
