"""The write path moves records as runs: an INSERT is encoded as one
record matrix and fills a leaf with one body append, a split at the end
of a garbage-free leaf moves only the new record, and a range DELETE
settles a leaf's key run by its two end slots — all leaving the page
file exactly as the row-at-a-time path does."""

from unittest import mock

import numpy as np

from repro.engine import Database, Page, Table
from repro.engine import btree as btree_module
from repro.engine.btree import BTree, _leaf_slot
from repro.engine.sqlfront import SqlSession
from repro.tsql import FloatArray

BATCH = 256


def churn_session(batches=8):
    """The churn shape: ``(id, k, v)`` rows with 5-vectors in ``v``,
    loaded as ``batches`` SQL INSERTs of :data:`BATCH` rows."""
    session = SqlSession(Database())
    session.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, k INT, "
                    "v VARBINARY(100))")
    for index in range(batches):
        session.execute(insert_sql(index))
    return session


def insert_sql(index):
    values = np.random.default_rng(index).standard_normal((BATCH, 5))
    ids = range(index * BATCH, (index + 1) * BATCH)
    return "INSERT INTO t VALUES " + ", ".join(
        "({}, {}, FloatArray.Vector_5({}))".format(
            i, i % 97, ", ".join(repr(float(x)) for x in row))
        for i, row in zip(ids, values))


def delete_sql(index):
    return (f"DELETE FROM t WHERE id >= {index * BATCH} "
            f"AND id < {(index + 1) * BATCH}")


def churn(session, ops, first=8):
    """``ops`` churn writes: the next batch in, the oldest one out."""
    for done in range(ops):
        assert session.execute(insert_sql(first + done)) == BATCH
        assert session.execute(delete_sql(done)) == BATCH


def page_file(db):
    """Every page and every retained page version, field for field."""
    f = db.pagefile

    def fields(p):
        return (p.page_id, p.kind, p.level, p.prev_page, p.next_page,
                p.pv, list(p._slots), bytes(p._body), p._dense)

    return ([None if p is None else fields(p) for p in f._pages],
            {pid: [fields(p) for p in hist]
             for pid, hist in f._history.items()})


# -- the row-at-a-time path, as the reference --------------------------------

def _declined(self, rows, keys):
    return None


def _one_record_at_a_time(self, records):
    for record in records:
        self.add_record(record)


def _one_key_at_a_time(self, keys, records):
    for key, record in zip(keys, records):
        self._insert_record(key, record)


_split = BTree._split


def _split_by_rebuilding(self, page, slot, record):
    page._dense = -1  # take the rebuild; re-adding resets the marker
    return _split(self, page, slot, record)


def _one_lookup_a_key(page, victims):
    runs = []
    for key in victims:
        slot, found = _leaf_slot(page, key)
        if not found:
            continue
        if runs and runs[-1][1] == slot:
            runs[-1][1] = slot + 1
        else:
            runs.append([slot, slot + 1])
    return runs


def row_at_a_time():
    """Patches that put back the per-row encoder, one ``add_record`` a
    record, one descent a key, the rebuilding split and one lookup a
    victim."""
    patches = [
        mock.patch.object(Table, "_encode_records", _declined),
        mock.patch.object(Page, "add_records", _one_record_at_a_time),
        mock.patch.object(BTree, "insert_many", _one_key_at_a_time),
        mock.patch.object(BTree, "_split", _split_by_rebuilding),
        mock.patch.object(btree_module, "_victim_slots",
                          _one_lookup_a_key)]
    for patch in patches:
        patch.start()
    return patches


def test_churn_writes_leave_the_page_file_the_row_path_leaves():
    files = []
    for reference in (True, False):
        patches = row_at_a_time() if reference else []
        try:
            session = churn_session()
            churn(session, 12)
            # Scattered victims, keys out of order and into holes (the
            # per-key branches), then a range with holes in it.
            session.execute("DELETE FROM t WHERE k = 5")
            session.execute("DELETE FROM t WHERE id >= 3300 "
                            "AND id < 3400")
            session.execute("INSERT INTO t VALUES (9000, 1, NULL), "
                            "(3350, 2, 'a'), (3320, 3, 'bc'), "
                            "(3000, 4, NULL)")
            session.execute("DELETE FROM t WHERE id >= 3050 "
                            "AND id < 3500")
        finally:
            for patch in patches:
                patch.stop()
        files.append(page_file(session.db))
    assert files[0] == files[1]


def _calls_on_leaves(spy):
    return sum(1 for call in spy.call_args_list if call.args[0].level == 0)


def test_a_churn_insert_is_encoded_once_and_appended_a_run_a_leaf():
    session = churn_session()
    table = session.db.tables["t"]
    leaves = len(table.data_page_ids())
    spies = {name: mock.patch.object(Page, name, autospec=True,
                                     side_effect=getattr(Page, name))
             for name in ("add_record", "insert_record", "add_records")}
    with mock.patch.object(Table, "_encode_row", autospec=True,
                           side_effect=Table._encode_row) as encode, \
            spies["add_record"] as add, \
            spies["insert_record"] as insert, \
            spies["add_records"] as runs:
        assert session.execute(insert_sql(8)) == BATCH
    new_leaves = len(table.data_page_ids()) - leaves
    assert encode.call_count == 0
    assert new_leaves >= 2
    # No record goes in alone but the one that opens each new leaf (the
    # split moves only it); one body append fills each leaf written.
    assert _calls_on_leaves(add) + _calls_on_leaves(insert) == 0
    assert _calls_on_leaves(runs) <= 2 * new_leaves + 1
    assert sum(len(call.args[1]) == 1 for call in runs.call_args_list
               if call.args[0].level == 0) <= new_leaves
    assert [row[0] for row in table.scan()] == list(range(9 * BATCH))


def test_a_range_delete_reads_two_slots_a_leaf():
    session = churn_session()
    table = session.db.tables["t"]
    churn(session, 2)
    victims = range(2 * BATCH, 3 * BATCH)
    holding = [pid for pid in table.data_page_ids()
               if {int.from_bytes(r[:8], "little", signed=True)
                   for r in session.db.pagefile.get(pid).records()}
               & set(victims)]
    with mock.patch.object(Page, "get_record", autospec=True,
                           side_effect=Page.get_record) as read, \
            mock.patch.object(btree_module, "_leaf_slot",
                              wraps=btree_module._leaf_slot) as search:
        assert table.delete_many(victims) == BATCH
    assert len(holding) >= 3
    assert _calls_on_leaves(read) <= 2 * len(holding)
    assert search.call_count == 0
    assert [row[0] for row in table.scan()][0] == 3 * BATCH


def test_a_snapshot_reads_its_rows_across_a_run_fill_and_a_run_delete():
    session = churn_session()
    table = session.db.tables["t"]
    pool = session.db.pool
    with table.pin_snapshot() as snap:
        rows = list(snap.scan())
        records = [batch._records.tobytes()
                   for batch in snap.scan_batches(pool)]
        churn(session, 3)
        assert list(snap.scan()) == rows
        assert [batch._records.tobytes()
                for batch in snap.scan_batches(pool)] == records
        assert snap.row_count == len(rows)
    assert [row[0] for row in table.scan()] == list(
        range(3 * BATCH, 11 * BATCH))
    vector = table.get(11 * BATCH - 1)[2]
    assert np.frombuffer(vector, np.uint8).size == len(
        FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0))


def test_a_row_no_two_way_cut_places_splits_its_leaf_three_ways():
    """Rows of 3 000, 3 000 and 2 000 bytes fill a leaf; a 7 000-byte
    row after the first leaves more than a page on one side of every
    two-way cut (this raised ``PageFullError``, an ``INTERNAL`` on the
    wire), so the leaf splits in three."""
    session = SqlSession(Database())
    session.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, "
                    "b VARBINARY(8000))")
    table = session.db.tables["t"]
    session.insert_rows(table, [(1, b"a" * 3000), (3, b"c" * 3000),
                                (4, b"d" * 2000)])
    assert len(table.data_page_ids()) == 1
    assert session.insert_rows(table, [(2, b"b" * 7000)]) == 1
    assert [(key, len(b)) for key, b in table.scan()] == [
        (1, 3000), (2, 7000), (3, 3000), (4, 2000)]
    assert len(table.data_page_ids()) == 3
    assert session.query("SELECT MAX(b) FROM t WHERE id = 2")[0][0] \
        == b"b" * 7000
