"""Future primitives for the engine layer's asynchronous submission API.

Blocking batch calls (:meth:`~repro.engine.base.ExecutionEngine.run_batch`,
:meth:`~repro.engine.base.ExecutionEngine.expectation_batch`) run on the
caller's thread, and every library caller uses them.  Callers that share one
engine — the service's tenants, or user threads — submit instead and are
served fairly.  This module provides :class:`EngineFuture`, the ordered
handle the ``submit*`` API returns: it wraps one in-flight result value, a
raised exception, or cancellation, and mirrors the
:class:`concurrent.futures.Future` surface.

Execution of submitted batches is the job of the
:class:`~repro.engine.scheduler.BatchScheduler` (see
:mod:`repro.engine.scheduler` and ``docs/scheduler.md``), which resolves
these futures from its worker threads.

Determinism
-----------
Async submission changes *when* a batch executes, never *what* it computes:
each dispatched batch runs through the same ``_dispatch_batch`` path a
blocking call uses, and the content-derived seeding contract
(:func:`repro.engine.fingerprint.derive_seed`) makes every sampled value a
function of ``(engine seed, item content)`` rather than execution order.  A
seeded engine therefore returns bit-identical results whether a batch is
submitted asynchronously, blocked on, split across submissions, or
interleaved with other batches.

Cancellation and errors
-----------------------
``EngineFuture.cancel()`` succeeds only while the future's batch has not
started executing (anything the scheduler has not yet dispatched is
cancellable).  Cancelled items are pruned from their batch before dispatch —
they cost nothing.  If executing a batch raises, the exception is stored on
every unresolved future of that batch and re-raised by
:meth:`EngineFuture.result`.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import CancelledError
from typing import Any, Callable, List, Optional, Sequence

from ..exceptions import EngineError

__all__ = ["EngineFuture", "gather", "CancelledError"]

#: Default bound on queued (not yet executing) batches per engine; see
#: ``engine.max_pending_batches`` and ``docs/scheduler.md``.
DEFAULT_MAX_PENDING = 8

_PENDING = "pending"
_RUNNING = "running"
_CANCELLED = "cancelled"
_DONE = "done"


class EngineFuture:
    """An ordered handle to one in-flight engine result.

    Futures are created by the ``submit*`` methods and resolved by the
    engine's scheduler; user code only ever reads them.  The API mirrors
    :class:`concurrent.futures.Future` (``result`` / ``exception`` /
    ``cancel`` / ``done`` / ``add_done_callback``), and cancellation raises
    the standard :class:`concurrent.futures.CancelledError`.
    """

    def __init__(self):
        self._condition = threading.Condition()
        self._state = _PENDING
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["EngineFuture"], None]] = []

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    def cancelled(self) -> bool:
        with self._condition:
            return self._state == _CANCELLED

    def running(self) -> bool:
        with self._condition:
            return self._state == _RUNNING

    def done(self) -> bool:
        """Whether the future is resolved (result, exception or cancelled)."""
        with self._condition:
            return self._state in (_CANCELLED, _DONE)

    # ------------------------------------------------------------------
    # Resolution (consumer side)
    # ------------------------------------------------------------------
    def result(self, timeout: Optional[float] = None) -> Any:
        """The resolved value; blocks until the batch lands.

        Raises :class:`concurrent.futures.CancelledError` if the future was
        cancelled, re-raises the batch's exception if execution failed, and
        raises :class:`~repro.exceptions.EngineError` on timeout.
        """
        with self._condition:
            self._wait_resolved(timeout)
            if self._state == _CANCELLED:
                raise CancelledError()
            if self._exception is not None:
                raise self._exception
            return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The exception execution raised, ``None`` on success.

        Like :meth:`result` this blocks until resolution and raises
        :class:`~concurrent.futures.CancelledError` for cancelled futures.
        """
        with self._condition:
            self._wait_resolved(timeout)
            if self._state == _CANCELLED:
                raise CancelledError()
            return self._exception

    def _wait_resolved(self, timeout: Optional[float]) -> None:
        """Wait (under the condition) until the future leaves PENDING/RUNNING."""
        if self._state in (_CANCELLED, _DONE):
            return
        if not self._condition.wait_for(
            lambda: self._state in (_CANCELLED, _DONE), timeout
        ):
            raise EngineError(f"future was not resolved within {timeout} s")

    def add_done_callback(self, callback: Callable[["EngineFuture"], None]) -> None:
        """Run ``callback(self)`` when the future resolves (immediately if it
        already has).  As with :class:`concurrent.futures.Future`, a raising
        callback is logged and swallowed — it must never be able to kill the
        scheduler thread mid-batch."""
        with self._condition:
            if self._state not in (_CANCELLED, _DONE):
                self._callbacks.append(callback)
                return
        self._run_callbacks([callback])

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self) -> bool:
        """Cancel the future if its batch has not started executing.

        Returns ``True`` if the future is (now) cancelled, ``False`` once it
        is running or resolved.
        """
        with self._condition:
            if self._state == _CANCELLED:
                return True
            if self._state != _PENDING:
                return False
            self._state = _CANCELLED
            callbacks = self._drain_callbacks()
            self._condition.notify_all()
        self._run_callbacks(callbacks)
        return True

    # ------------------------------------------------------------------
    # Resolution (scheduler side)
    # ------------------------------------------------------------------
    def _set_running(self) -> bool:
        """PENDING -> RUNNING; ``False`` if the future was cancelled first."""
        with self._condition:
            if self._state == _CANCELLED:
                return False
            self._state = _RUNNING
            return True

    def _set_result(self, value: Any) -> None:
        with self._condition:
            if self._state == _CANCELLED:
                return
            self._result = value
            self._state = _DONE
            callbacks = self._drain_callbacks()
            self._condition.notify_all()
        self._run_callbacks(callbacks)

    def _set_exception(self, error: BaseException) -> None:
        with self._condition:
            if self._state == _CANCELLED:
                return
            self._exception = error
            self._state = _DONE
            callbacks = self._drain_callbacks()
            self._condition.notify_all()
        self._run_callbacks(callbacks)

    def _drain_callbacks(self) -> List[Callable[["EngineFuture"], None]]:
        callbacks, self._callbacks = self._callbacks, []
        return callbacks

    def _run_callbacks(self, callbacks: Sequence[Callable[["EngineFuture"], None]]) -> None:
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - a callback must not kill the resolver
                logging.getLogger(__name__).exception(
                    "exception in EngineFuture done-callback %r", callback
                )

    def __repr__(self):
        with self._condition:
            state = self._state
        return f"EngineFuture({state})"


def gather(futures: Sequence[EngineFuture], timeout: Optional[float] = None) -> List[Any]:
    """Resolve many futures in order (a convenience around ``result()``).

    The per-future ``timeout`` applies to each resolution individually.
    """
    return [future.result(timeout) for future in futures]
