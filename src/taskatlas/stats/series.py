"""Unit-keyed series: the input of correlation-style operations, as mappings
from unit key to value, aligned into arrays."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..core import InputError


class StatsError(InputError):
    pass


def align(*series: Mapping[str, float]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Float arrays over the sorted key intersection of all inputs. Every
    value of every input must be finite, whether its key is shared or not."""
    for data in series:
        if not np.all(np.isfinite(np.fromiter(map(float, data.values()), np.float64, len(data)))):
            raise StatsError("non-finite values in series")
    keys = tuple(sorted(set(series[0]).intersection(*series[1:])))
    return keys, [np.asarray([float(data[key]) for key in keys], dtype=np.float64) for data in series]
