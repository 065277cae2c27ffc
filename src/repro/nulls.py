"""Pickle support shared by the disabled-instrument singletons."""

from __future__ import annotations


class NullSingleton:
    """Mixin for the class of a disabled instrument's module singleton.

    Pickles as a reference to the module global named by
    :attr:`SINGLETON`, so identity gates (``handle is NULL_TELEMETRY``)
    survive a pickle round-trip such as the shard executor's worker
    pool.
    """

    __slots__ = ()

    #: Module-level name of the one instance (set by each subclass).
    SINGLETON = ""

    def __reduce__(self) -> str:
        return self.SINGLETON
