"""Suite-wide fixtures."""

import pytest

from repro.txn.durable_wal import DurableWal


@pytest.fixture(autouse=True)
def close_durable_wals(monkeypatch):
    """Close every :class:`DurableWal` a test opened.

    Many tests drop workers with a durable WAL without closing it; the
    open segment file then raises an unclosed-file ``ResourceWarning``
    whenever the garbage collector happens to reach the peer, so the
    suite's warning count would depend on GC timing.
    """
    opened = []
    init = DurableWal.__init__

    def tracking_init(self, *args, **kwargs):
        opened.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DurableWal, "__init__", tracking_init)
    yield
    for wal in opened:
        if getattr(wal, "_fh", None) is not None:
            wal.close()
