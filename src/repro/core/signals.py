"""Cooperative SIGINT/SIGTERM handling for long-running runs.

Long CLI paths — a big governed search, ``repro quantify --capacity``,
an engine warm fan-out — used to die mid-run on Ctrl-C: the
default ``KeyboardInterrupt`` unwinds wherever the interpreter happens
to be, losing every closure still in flight and skipping the persistent
store flush.  The serve layer has the same problem spelled SIGTERM.

:func:`interrupt_token` turns the first signal into a *cooperative*
cancellation instead: it yields a
:class:`~repro.core.budget.CancellationToken` wired to SIGINT/SIGTERM,
which callers thread into an :class:`~repro.core.budget.ExecutionBudget`.
Every governed loop observes the token at its next budget check and
raises :class:`~repro.core.budget.BudgetExceededError` with reason
``"cancelled"`` — the caller then persists completed work
(:meth:`DependencyEngine.persist_memos`) and exits cleanly.  The second
signal falls through to the previous handler (normally: process death),
so a wedged run can still be force-killed.

Handlers can only be installed from the main thread; elsewhere the token
is yielded un-wired (still usable for manual cancellation), so library
code may call this unconditionally.
"""

from __future__ import annotations

import signal
import threading
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

from repro.core.budget import CancellationToken

#: Conventional exit code for a run ended by an interrupt signal
#: (128 + SIGINT), used by the CLI's graceful-interrupt paths.
EXIT_INTERRUPTED = 130


@contextmanager
def interrupt_token(
    signums: Sequence[int] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[CancellationToken]:
    """Yield a :class:`CancellationToken` cancelled by the first of
    ``signums``; restore the previous handlers on exit.

    First signal: cancel the token *and* restore the previous handlers,
    so a second signal behaves as if this context never existed (for
    SIGINT, raise ``KeyboardInterrupt``; for SIGTERM, terminate).
    """
    token = CancellationToken()
    if threading.current_thread() is not threading.main_thread():
        # signal.signal raises ValueError off the main thread; the token
        # still works for manual / programmatic cancellation.
        yield token
        return
    previous: dict[int, object] = {}

    def restore() -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass

    def on_signal(signum: int, frame: object) -> None:
        token.cancel()
        restore()

    for signum in signums:
        previous[signum] = signal.signal(signum, on_signal)
    try:
        yield token
    finally:
        restore()
