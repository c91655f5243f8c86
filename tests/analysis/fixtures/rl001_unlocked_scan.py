"""Seeded RL001 violation: a public session entry point reaches the buffer
pool without taking a statement latch first."""


class BufferPool:
    def fetch(self, page_id):
        return page_id


class Database:
    def __init__(self):
        self.pool = BufferPool()


class SqlSession:
    def __init__(self, db):
        self.db = db

    def peek_page(self, page_id):
        # RL001: no `with self.db.latches.read_latch(...):` around the
        # pool access.
        return self.db.pool.fetch(page_id)
