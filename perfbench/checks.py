"""Result checkers that follow SQL, not the program's current output.

* Numbers compare by value (``1``, ``1.0`` and ``Decimal("1.00")`` are
  equal), as ``tests/integration/test_equivalence.py`` normalizes them.
* Rows compare as multisets. Under ORDER BY the result must also be
  sorted on the ORDER BY keys; the order of tied rows is unspecified, so
  it is not compared. NULLs sort together, either all first or all
  last for a key (SQL leaves the choice to the implementation).
* Where the transport must keep types (the remote workload), every cell
  must have exactly the Python type of the expected cell.

Each checker returns a list of problem strings; empty means correct.
"""

from __future__ import annotations

import datetime
from collections import Counter
from decimal import Decimal


def normalize(value):
    if isinstance(value, (int, Decimal, float)) and \
            not isinstance(value, bool):
        return ("n", Decimal(str(value)).normalize())
    if value is None:
        return ("0",)
    if isinstance(value, (datetime.date, datetime.time)):
        return ("t", value.isoformat())
    return (type(value).__name__, value)


def normalize_row(row) -> tuple:
    return tuple(normalize(value) for value in row)


def _rank(value, nulls_first: bool):
    """A total sort rank for one ORDER BY key value."""
    if value is None:
        return (0,) if nulls_first else (2,)
    if isinstance(value, (int, float, Decimal)) and \
            not isinstance(value, bool):
        return (1, Decimal(str(value)))
    if isinstance(value, (datetime.date, datetime.time)):
        return (1, value.isoformat())
    return (1, value)


def _sorted_on(rows, keys, nulls_first: bool) -> bool:
    """True when *rows* are non-decreasing on *keys*, a sequence of
    ``(column_index, ascending)``."""
    previous = None
    for row in rows:
        current = []
        for index, ascending in keys:
            rank = _rank(row[index], nulls_first)
            current.append(rank)
        if previous is not None:
            for before, after, (_, ascending) in zip(previous, current,
                                                     keys):
                if before == after:
                    continue
                if (before < after) != ascending:
                    return False
                break
        previous = current
    return True


def is_sorted(rows, keys) -> bool:
    return _sorted_on(rows, keys, True) or _sorted_on(rows, keys, False)


def compare_rows(actual, expected, order_keys=(), label="") -> list[str]:
    """Multiset equality under value normalization, plus sortedness on
    *order_keys* when the statement has ORDER BY."""
    problems = []
    got = Counter(normalize_row(row) for row in actual)
    want = Counter(normalize_row(row) for row in expected)
    if got != want:
        missing = want - got
        extra = got - want
        problems.append(
            f"{label}: {len(actual)} rows, expected {len(expected)}; "
            f"missing {list(missing.elements())[:3]}, "
            f"unexpected {list(extra.elements())[:3]}")
    if order_keys and not is_sorted(actual, order_keys):
        problems.append(f"{label}: rows not sorted on ORDER BY keys "
                        f"{list(order_keys)}")
    return problems


def compare_types(actual, expected, label="") -> list[str]:
    """Cell-by-cell Python type identity between two row lists that hold
    the same rows (a Decimal must stay a Decimal over the wire)."""
    def kinds(rows):
        return Counter(tuple(type(cell).__name__ for cell in row)
                       for row in rows)

    got, want = kinds(actual), kinds(expected)
    if got != want:
        return [f"{label}: cell types {sorted(got)[:2]} != "
                f"expected {sorted(want)[:2]}"]
    return []


def compare_rowcount(actual: int, expected: int, label="") -> list[str]:
    if actual != expected:
        return [f"{label}: rowcount {actual}, expected {expected}"]
    return []


def fingerprint(rows, order_keys=()) -> tuple:
    """A cheap digest of one result, for comparing a repeated execution
    with the fully checked first one in the same process: row count, an
    order-insensitive multiset hash of the rows, and, under ORDER BY,
    the hash of the sequence of sort-key values (the same for every
    correct answer, whatever the order of ties). Python hashes equal
    numbers equally across int, float and Decimal."""
    total = sum(map(hash, rows)) & 0xFFFFFFFFFFFFFFFF
    keys = 0
    if order_keys:
        columns = [index for index, _ in order_keys]
        keys = hash(tuple(tuple(row[index] for index in columns)
                          for row in rows))
    return len(rows), total, keys
