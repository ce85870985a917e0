"""Program set-up for one embedded workload, and the child process that
times it from a cold interpreter.

``python3 perfbench/setup_child.py <workload>`` imports the program,
builds the workload's runtime over its source, connects, lists the
catalogue (tables and their columns, as a reporting tool does), prints
``ready`` and exits. The parent times spawn-to-ready.
"""

from __future__ import annotations

import sys


def list_catalogue(connection) -> int:
    """Every table and its columns; returns the column count."""
    metadata = connection.metadata
    return sum(len(metadata.columns(table, schema))
               for schema, table in metadata.tables())


def open_connection(workload: str):
    """Build *workload*'s runtime with the pinned configuration and
    connect to it; returns ``(runtime, connection)``."""
    from harness import pinned_config
    from repro import connect
    from repro.workloads import build_runtime

    config = pinned_config()
    if workload == "adhoc_cold":
        runtime = build_runtime(config=config, backend="memory")
    elif workload == "mixed_rw":
        runtime = build_runtime(config=config, backend="sqlite")
    elif workload == "report_warm":
        import scaled
        runtime = scaled.build_runtime(scaled.REPORT_ROWS)
    else:
        raise ValueError(f"no embedded set-up for {workload!r}")
    connection = connect(runtime, config=config)
    list_catalogue(connection)
    return runtime, connection


def main(argv: list[str]) -> int:
    from harness import pin_environment

    pin_environment()
    _runtime, connection = open_connection(argv[0])
    print("ready", flush=True)
    connection.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
