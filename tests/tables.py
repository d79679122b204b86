"""In-memory record tables for the tests, built through
``RecordTable.from_arrays``, which validates every cell as the CSV reader
does."""

import numpy as np

import fairprice as fp
from fairprice.demand import CSV_TRAILING_COLUMNS


def record_table(rows) -> fp.RecordTable:
    """A RecordTable of ``rows``: dicts with ``id``, ``group`` and
    ``covariates``, and any of ``price``, ``demand``, ``outcome``,
    ``valuation`` and ``weight``; an absent or None field is an empty cell."""
    rows = list(rows)
    cells = np.array([[row.get(name) for name in CSV_TRAILING_COLUMNS]
                      for row in rows], dtype=object)
    cells = cells.reshape(len(rows), len(CSV_TRAILING_COLUMNS))
    present = cells != None  # noqa: E711
    X = np.array([np.ravel(row["covariates"]) for row in rows], dtype=float)
    ids = [row["id"] for row in rows]
    return fp.RecordTable.from_arrays(
        ids, [row["group"] for row in rows], X.reshape(len(rows), -1),
        np.where(present, cells, np.nan).astype(float), present,
        lambda i: f"record {ids[i]}")
