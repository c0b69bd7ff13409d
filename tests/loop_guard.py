"""A test guard: no blocking service call runs on an event-loop thread.

The asyncio gateway calls the pool from its event loop only to
normalize and submit a request, and reads its own ``served`` counter
there; it awaits the future ``submit`` returns, and cancels it on a
deadline, without a pool call.  Each of those takes at most a short
lock.  Every other public method of :class:`WorkerPool`, every
public non-coroutine member of :class:`AsyncGateway` (the control-op
body ``control``, ``flush_snapshot`` and ``close``), and every
``decide*`` entry point of :class:`ContainmentEngine`, may block, so
the gateway must run it on an executor thread.

:func:`loop_thread_guard` wraps all of those methods for the duration
of a ``with`` block and records each call made on a thread that is
running an event loop.  A call that is not listed as loop-safe counts
as blocking by default.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
from contextlib import contextmanager

from repro.api import ContainmentEngine
from repro.service import AsyncGateway, WorkerPool

#: The only pool and gateway members the event loop may call itself.
LOOP_SAFE = frozenset({"normalize", "submit", "served"})


def _guarded_names(cls) -> list[str]:
    if cls is ContainmentEngine:
        return [name for name in vars(cls) if name.startswith("decide")]
    # Coroutine functions (``serve``, ``serve_stdio``) are the loop's own.
    return [name for name, member in vars(cls).items()
            if not name.startswith("_") and name not in LOOP_SAFE
            and not inspect.iscoroutinefunction(member)
            and (callable(member) or isinstance(member, property))]


def _on_loop_thread() -> bool:
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


def _guard(label: str, member, violations: list[str]):
    if isinstance(member, property):
        return property(_guard(label, member.fget, violations))

    @functools.wraps(member)
    def guarded(*args, **kwargs):
        if _on_loop_thread():
            violations.append(label)
        return member(*args, **kwargs)
    return guarded


@contextmanager
def loop_thread_guard():
    """Yield the list of blocking calls made on an event-loop thread."""
    violations: list[str] = []
    originals = []
    for cls in (WorkerPool, AsyncGateway, ContainmentEngine):
        for name in _guarded_names(cls):
            member = vars(cls)[name]
            originals.append((cls, name, member))
            setattr(cls, name,
                    _guard(f"{cls.__name__}.{name}", member, violations))
    try:
        yield violations
    finally:
        for cls, name, member in reversed(originals):
            setattr(cls, name, member)
