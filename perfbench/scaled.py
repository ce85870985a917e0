"""The scaled FACTS/DETAILS runtime, and its rows recomputed from the
data formula of ``repro.workloads.scaling`` so expected answers never
come from the program under test.
"""

from __future__ import annotations

import datetime
from decimal import Decimal

#: FACTS rows for ``report_warm`` (DETAILS holds twice as many).
REPORT_ROWS = 10_000
#: FACTS rows served by the ``remote_warm`` server.
REMOTE_ROWS = 20_000

NAMES = ("Acme Widget Stores", "Supermart", "Ajax Distributors",
         "Zenith Parts and Service", "Omega Retail", "Delta Trading")
REGIONS = ("WEST", "EAST", "NORTH", "SOUTH")
_BASE_DATE = datetime.date(2005, 1, 1)


def build_runtime(rows: int):
    """``build_scaled_runtime(rows)`` with the pinned configuration
    (the library helper takes none)."""
    from harness import pinned_config
    from repro.catalog import Application
    from repro.engine import DSPRuntime, import_tables
    from repro.workloads import build_scaled_storage
    from repro.workloads.scaling import APPLICATION, PROJECT

    storage = build_scaled_storage(rows)
    application = Application(APPLICATION)
    import_tables(application, PROJECT, storage)
    return DSPRuntime(application, storage, config=pinned_config())


def server_runtime():
    """Runtime factory for ``python -m repro.server --app``."""
    return build_runtime(REMOTE_ROWS)


def fact(row_id: int) -> tuple:
    """FACTS row *row_id*: (ID, NAME, REGION, AMOUNT); every tenth
    AMOUNT is NULL."""
    amount = None if row_id % 10 == 0 \
        else Decimal(row_id * 7 % 10_000) / 100
    return (row_id, NAMES[row_id % len(NAMES)],
            REGIONS[row_id % len(REGIONS)], amount)


def facts(rows: int) -> list[tuple]:
    return [fact(row_id) for row_id in range(rows)]


def details(rows: int) -> list[tuple]:
    """DETAILS rows: (DETAILID, FACTID, QTY, SHIPDATE)."""
    return [(detail_id, detail_id % max(rows, 1), detail_id % 17,
             _BASE_DATE + datetime.timedelta(days=detail_id % 365))
            for detail_id in range(rows * 2)]
