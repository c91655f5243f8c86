"""Seeded RL001 violation: a public session entry point charges a run of
version-resolved pages (the MVCC read path's ``fetch_pages``) without a
statement latch."""


class BufferPool:
    def fetch_pages(self, pages):
        return list(pages)


class Database:
    def __init__(self):
        self.pool = BufferPool()


class SqlSession:
    def __init__(self, db):
        self.db = db

    def scan_snapshot(self, pages):
        # RL001: no `with self.db.latches.catalog_latch():` around the
        # charge.
        return self.db.pool.fetch_pages(pages)
