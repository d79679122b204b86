"""In-memory record tables and tabular policies for the tests, built
through ``RecordTable.from_arrays`` and ``policy_from_dict``, which validate
every cell as the CSV reader and a policy file's reader do."""

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


def tabular_policy(support, table) -> fp.TabularPolicy:
    """A TabularPolicy on ``support`` of ``table``, a ``(support_index,
    label) -> price`` dict, read as a policy file's ``prices`` rows."""
    return fp.policy_from_dict({
        "kind": "tabular", "support": np.asarray(support, dtype=float).tolist(),
        "prices": [{"x_index": i, "group": a, "price": price}
                   for (i, a), price in table.items()]})


def customer(model, x, group):
    """``kernel(p, kind="demand")``: the ``kind`` kernel ("demand",
    "gradient" or "curvature") of ``model`` for one customer at covariates
    ``x`` in ``group``, at price ``p``, from the row terms of the one-row
    matrix of ``x``, computed once per label: a float at one price, an array
    at a 1-D array of prices. A ``{label: weight}`` mixture adds ``weight *
    kernel`` over its groups, starting from zeros; logistic demand takes no
    group."""
    X = np.reshape(np.asarray(x, dtype=float), (1, -1))
    mixture = isinstance(group, dict) and not isinstance(model, fp.LogisticDemand)
    parts = [(w, model.row_terms(X, [0], (g,)))
             for g, w in (group.items() if mixture else [(group, None)])]

    def kernel(p, kind="demand"):
        if mixture:
            out = sum((w * model.kernels(terms, p, kind)[0]
                       for w, terms in parts), np.zeros(np.shape(p)))
        else:
            out = model.kernels(parts[0][1], p, kind)[0]
        return float(out[0]) if np.ndim(p) == 0 else out

    return kernel


def one_customer(model, x, group, p, kind="demand"):
    """``customer(model, x, group)(p, kind)``, for a single call."""
    return customer(model, x, group)(p, kind)


def one_price(policy, x, a=None) -> float:
    """``policy``'s price for one customer at covariates ``x`` in group
    ``a``: its ``price_batch`` of the one row ``x``."""
    return float(policy.price_batch(np.reshape(x, (1, -1)), [0], (a,))[0])
