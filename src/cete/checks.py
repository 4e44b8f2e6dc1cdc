"""The integer checks of k, lags, orders and lengths.

Standard library only, so that the CLI refuses a bad argument without
loading numpy.
"""
from __future__ import annotations

import operator
from typing import Sequence


def _positive_int(value, name: str, low: int = 1) -> int:
    """value as an int: the one check of k, of lags, of the Markov order, of
    the run length and of the simulated length and burn-in.

    Raises TypeError unless value is an integer (NumPy integers included;
    2.0 and True are not), and ValueError if it is below ``low``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _check_lags(lags: Sequence[int]) -> list[int]:
    """lags as a list of ints: the one lag rule, for the library and the CLI.

    Raises TypeError for a non-integral lag, and ValueError for a lag below
    1, an empty list or lags that are not strictly increasing.
    """
    lags = [_positive_int(lag, "lag") for lag in lags]
    if not lags:
        raise ValueError("at least one lag is required")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ValueError(f"lags must be strictly increasing, got {lags}")
    return lags
