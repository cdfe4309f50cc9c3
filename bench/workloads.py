"""The benchmark's input series and its workloads.

The series generator is the benchmark's own: it shares no code with
`randfnn.timeseries.synth_generate`, so the checks can compare the
program's outputs with values computed apart from it. This module
imports only numpy and the standard library; the program is never
imported here.
"""

from datetime import date, datetime, timedelta

import numpy as np

START = date(2012, 1, 1)
DAYS = 1461  # 2012-01-01 .. 2015-12-31; every test period lies in 2015
HOURS = 24
BASE = 10000.0
DAILY_AMPLITUDE = 0.25  # first daily harmonic, share of the level
DAILY_SEASONAL = 0.30  # winter/summer swing of that amplitude
DAILY_SECOND = 0.08  # second daily harmonic
WEEKLY = (1.00, 1.02, 1.02, 1.01, 0.98, 0.85, 0.78)  # Mon..Sun
YEARLY_AMPLITUDE = 0.15
NOISE = 0.02  # sd of the multiplicative Gaussian noise

# the program's documented default grid for ram, written out here so the
# tuning check does not take it from the program
RAM_GRID_M = tuple(range(5, 55, 5))
RAM_GRID_U = (0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2,
              0.4, 0.6, 0.8, 1.0)

WORKLOADS = {
    # the paper's main experiment: fixed ram, many days, a large bundle
    "ram_fixed": {
        "methods": ["ram", "naive"],
        "model": "ram",
        "tuning": "fixed",
        "fixed_params": {"ram": {"m": 20, "smoothing": 0.4}},
        "test_start": "2015-03-02",
        "test_end": "2015-04-26",
        "trials": 100,
    },
    # per-node kNN and hyperplane fits dominate; small bundle
    "ddm_fixed": {
        "methods": ["ddm", "naive"],
        "model": "ddm",
        "tuning": "fixed",
        "fixed_params": {"ddm": {"m": 20, "smoothing": 31.0}},
        "test_start": "2015-06-01",
        "test_end": "2015-06-14",
        "trials": 100,
    },
    # grid search over the default ram grid, one test week
    "ram_tune": {
        "methods": ["ram", "naive"],
        "model": "ram",
        "tuning": "once",
        "fixed_params": None,
        "test_start": "2015-09-07",
        "test_end": "2015-09-13",
        "trials": 100,
    },
}


def clean_signal() -> np.ndarray:
    """Noise-free series, shape (DAYS, 24).

    clean[i, h] = BASE * D(h, y) * WEEKLY[weekday(i)] * (1 + YEARLY_AMPLITUDE * c)
    with c = cos(2 pi t / 8766), t = 24 i + h hours since START (winter
    peak), y = 1 + DAILY_SEASONAL * c, and the daily profile
    D(h, y) = 1 - DAILY_AMPLITUDE * y * cos(2 pi (h + 0.5) / 24)
                + DAILY_SECOND * sin(4 pi (h + 0.5) / 24).
    """
    i = np.arange(DAYS)[:, None]
    h = np.arange(HOURS)[None, :]
    c = np.cos(2 * np.pi * (HOURS * i + h) / 8766.0)
    phase = 2 * np.pi * (h + 0.5) / HOURS
    daily = (1.0 - DAILY_AMPLITUDE * (1.0 + DAILY_SEASONAL * c) * np.cos(phase)
             + DAILY_SECOND * np.sin(2 * phase))
    weekly = np.array(WEEKLY)[(START.weekday() + i) % 7]
    return BASE * daily * weekly * (1.0 + YEARLY_AMPLITUDE * c)


def series(seed: int) -> np.ndarray:
    """clean * (1 + NOISE * eps), eps i.i.d. standard normal from PCG64(seed)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return clean_signal() * (1.0 + NOISE * rng.standard_normal((DAYS, HOURS)))


def write_series(values: np.ndarray, path) -> None:
    """Hourly CSV with ISO timestamps; values written with repr (exact)."""
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,value\n")
        for i, row in enumerate(values):
            d = START + timedelta(days=i)
            base = datetime(d.year, d.month, d.day)
            for h in range(HOURS):
                fh.write(f"{(base + timedelta(hours=h)).isoformat()},{float(row[h])!r}\n")
