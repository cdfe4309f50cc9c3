from datetime import date, timedelta

import numpy as np

from randfnn.timeseries import TimeSeries


def make_series(start: date, days: int, n: int = 24, rng=None, omit=(), flat=()):
    """Toy series: distinct non-constant values per day, optional omitted
    dates (absent from the series, simulating gaps) and dates whose values
    are constant."""
    rng = rng or np.random.default_rng(0)
    dates, rows = [], []
    for i in range(days):
        d = start + timedelta(days=i)
        if d in omit:
            continue
        values = 100.0 + 10.0 * i + 5.0 * np.sin(2 * np.pi * np.arange(n) / n) \
            + rng.normal(0, 0.5, n)
        dates.append(d)
        rows.append(np.full(n, 42.0) if d in flat else values)
    return TimeSeries(dates, np.array(rows), n=n)
