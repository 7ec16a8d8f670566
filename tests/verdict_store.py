"""One way for tests to open a verdict store from directories."""

from pathlib import Path

from repro.prevention import BucketStore, TieredVerdictStore


def open_store(local=None, shared=None, max_entries=None, chaos=None,
               **kwargs) -> TieredVerdictStore:
    """Memory over one bucket store: the remote in ``shared/cas`` when
    *shared* is given (``local`` is then never touched), else the local
    store in ``local/cas``; memory only when neither is.  Other keyword
    arguments go to :class:`TieredVerdictStore`."""
    if shared is not None:
        kwargs["remote"] = BucketStore(Path(shared) / "cas",
                                       max_entries=max_entries,
                                       chaos=chaos, tier="remote")
    elif local is not None:
        kwargs["local"] = BucketStore(Path(local) / "cas",
                                      max_entries=max_entries,
                                      chaos=chaos, tier="local")
    return TieredVerdictStore(chaos=chaos, **kwargs)
