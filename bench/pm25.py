"""Seeded generator of hourly files in the Beijing PM2.5 CSV schema.

The real file is not redistributable here, so the CLI workload runs on a
synthetic stand-in that keeps the properties the code paths depend on:

* the exact 13-column header and one row per hour, with timestamps that
  advance by exactly one hour from 2010-01-01 00:00;
* integer-valued ``pm2.5``, ``DEWP``, ``TEMP`` and ``PRES``, so ranks tie;
* runs of ``NA`` in ``pm2.5`` covering about 5% of the rows, with one
  stretch of complete rows long enough for the default 1000-row window;
* ``pm2.5`` driven by the previous hour's ``TEMP``, so the TEMP -> pm2.5
  scan has a coupling to find.

The same seed gives the same file, byte for byte.
"""
from __future__ import annotations

import math
from datetime import datetime, timedelta

import numpy as np

HEADER = "No,year,month,day,hour,pm2.5,DEWP,TEMP,PRES,cbwd,Iws,Is,Ir"
ROWS = 43_824  # 2010-01-01 00:00 .. 2014-12-31 23:00, as in the real file
NA_SHARE = 0.05
KEEP_COMPLETE = 1200  # NA-free rows spared, more than the CLI's 1000-row window
_START = datetime(2010, 1, 1, 0)
_CBWD = ("NW", "NE", "SE", "cv")


def _ar1(rng: np.random.Generator, n: int, phi: float, sd: float) -> np.ndarray:
    noise = rng.normal(0.0, sd, n)
    out = np.empty(n)
    level = 0.0
    for i in range(n):
        level = phi * level + noise[i]
        out[i] = level
    return out


def _na_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    """Runs of missing values covering NA_SHARE of n, sparing one stretch.

    The spared stretch of KEEP_COMPLETE rows guarantees that a complete
    window of that length exists wherever the runs happen to fall.
    """
    missing = np.zeros(n, dtype=bool)
    keep_start = int(rng.integers(0, n - KEEP_COMPLETE))
    keep = slice(keep_start, keep_start + KEEP_COMPLETE)
    target = int(NA_SHARE * n)
    while missing.sum() < target:
        start = int(rng.integers(0, n))
        length = 1 + int(rng.geometric(1.0 / 12.0))
        missing[start:start + length] = True
        missing[keep] = False
    return missing


def generate(seed: int, rows: int = ROWS) -> str:
    """CSV text of ``rows`` hourly records drawn from ``seed``."""
    if rows <= KEEP_COMPLETE:
        raise ValueError(f"rows={rows} must exceed KEEP_COMPLETE={KEEP_COMPLETE}")
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=float)
    season = math.tau * t / (24 * 365.25)
    day = math.tau * (t - 15.0) / 24.0
    temp = 12.0 - 14.0 * np.cos(season) + 4.0 * np.sin(day) + _ar1(rng, rows, 0.97, 0.8)
    temp_i = np.rint(temp).astype(int)
    dewp_i = np.rint(temp - 9.0 + _ar1(rng, rows, 0.95, 1.0)).astype(int)
    pres_i = np.rint(1016.0 - 0.4 * (temp - 12.0) + _ar1(rng, rows, 0.99, 0.5)).astype(int)

    # log pm2.5 follows an AR(1) pushed down by the previous hour's TEMP
    shock = rng.normal(0.0, 0.25, rows)
    log_pm = np.empty(rows)
    level = 4.2
    for i in range(rows):
        drive = -0.004 * (temp_i[i - 1] - 12.0) if i else 0.0
        level = 4.2 + 0.9 * (level - 4.2) + drive + shock[i]
        log_pm[i] = level
    pm_i = np.maximum(np.rint(np.exp(log_pm)), 1.0).astype(int)
    missing = _na_mask(rng, rows)

    wind = rng.choice(len(_CBWD), size=rows, p=(0.35, 0.2, 0.3, 0.15))
    hold = rng.random(rows) < 0.85  # wind direction persists most hours
    speed = np.round(rng.gamma(2.0, 1.5, rows), 2)
    rain = rng.random(rows) < 0.03

    lines = [HEADER]
    ts = _START
    cbwd = int(wind[0])
    iws = 0.0
    ir = 0
    for i in range(rows):
        if i and not hold[i] and wind[i] != cbwd:
            cbwd = int(wind[i])
            iws = 0.0
        iws = round(iws + float(speed[i]), 2)
        ir = ir + 1 if rain[i] else 0
        pm = "NA" if missing[i] else str(pm_i[i])
        lines.append(
            f"{i + 1},{ts.year},{ts.month},{ts.day},{ts.hour},{pm},"
            f"{dewp_i[i]},{temp_i[i]},{pres_i[i]},{_CBWD[cbwd]},{iws},0,{ir}"
        )
        ts += timedelta(hours=1)
    return "\n".join(lines) + "\n"
