"""The pin-leak net of the engine suite.

A pinned snapshot keeps every page of its table version alive, so a
statement that returns — or raises — without unpinning leaks storage
for the life of the process.  Every test here runs with
``Table.pin_snapshot`` wrapped to record the tables it pinned, and
fails when one of them still holds a pin once the test is over.  A
test that holds a pin on purpose releases it before it returns.
"""

import pytest

from repro.engine.table import Table


@pytest.fixture(autouse=True)
def no_pin_outlives_the_test(monkeypatch):
    pinned: dict[int, Table] = {}
    pin_snapshot = Table.pin_snapshot

    def recording(table):
        pinned[id(table)] = table
        return pin_snapshot(table)

    monkeypatch.setattr(Table, "pin_snapshot", recording)
    yield
    leaked = {table.name: table.pinned_versions()
              for table in pinned.values() if table.pinned_versions()}
    if leaked:
        pytest.fail(f"pins outlived the test: {leaked}")
