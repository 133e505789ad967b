"""Verdict provenance: which mechanism produced an engine answer.

"A Theory of Service Dependency" frames dependency evidence as something
*auditable*: a non-flow verdict is only as trustworthy as the mechanism
that established it.  This module gives every public engine answer a
small, always-on record of that mechanism — which kernel path ran
(compiled integer BFS, bulk bitset BFS, or the seed per-state fallback
for foreign operations), whether the answer came from a memoized closure
or a fresh search, how execution was governed, and how long the witness
is when one exists.

Provenance is attached unconditionally (it is a single frozen dataclass
allocation, far below the cost of even a memo hit) and **never**
participates in result equality — two identical verdicts reached through
different paths still compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.telemetry import current_trace

#: The kernel paths a verdict can come from.
KERNEL_PATHS = (
    "compiled",         # integer kernel: canonical unordered pairs / arrays
    "compiled-bitset",  # bulk frontier kernel: bitset visited set, whole-
                        # frontier expansion (witness-identical to compiled)
    "seed-fallback",  # direct per-state Def 2-10 checker (foreign operations)
    "one-step",       # budget-degraded audit cell: length-1 witness only
    "unknown",        # budget exhausted, nothing established
)

#: Memo outcomes.
MEMO_OUTCOMES = ("hit", "fresh", "n/a")

#: Budget states.
BUDGET_STATES = ("none", "governed", "exhausted")

#: Persistent-store outcomes (PR 7).  ``off`` — no store attached, or
#: an answer kind the store does not keep (fixed-history sweeps; the
#: field is omitted from ``describe()``); ``ram`` — the in-RAM memo
#: answered before the disk tier was consulted; ``hit`` — deserialized
#: from disk instead of computed; ``miss`` — disk consulted, absent,
#: computed fresh (and persisted).
STORE_STATES = ("off", "ram", "hit", "miss")


@dataclass(frozen=True, slots=True)
class Provenance:
    """How one dependency verdict was produced.

    ``kernel`` is the decision path (:data:`KERNEL_PATHS`); ``memo``
    says whether the underlying closure/sweep was served from the
    engine's memo (:data:`MEMO_OUTCOMES`); ``budget`` records the
    governance state the query ran under (:data:`BUDGET_STATES`);
    ``witness_length`` is the history length of the positive witness
    (``None`` for negative or unknown verdicts); ``closure_pairs`` is
    the size of the pair closure that answered an existential-history
    query (``None`` for fixed-history sweeps); ``store`` records the
    persistent-store tier's involvement (:data:`STORE_STATES` —
    ``off`` when no store is attached, and omitted from ``describe()``
    so storeless provenance strings are unchanged); ``trace_id`` is the
    request trace the verdict was produced under (auto-filled from the
    ambient trace context, ``None`` outside a traced request and omitted
    from ``describe()`` so untraced provenance strings are unchanged).
    """

    kernel: str
    memo: str = "n/a"
    budget: str = "none"
    witness_length: int | None = None
    closure_pairs: int | None = None
    store: str = "off"
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if self.trace_id is None:
            # Frozen dataclass: bypass the frozen __setattr__ guard.
            object.__setattr__(self, "trace_id", current_trace())

    def describe(self) -> str:
        bits = [f"kernel={self.kernel}", f"memo={self.memo}",
                f"budget={self.budget}"]
        if self.store != "off":
            bits.append(f"store={self.store}")
        if self.witness_length is not None:
            bits.append(f"witness_len={self.witness_length}")
        if self.closure_pairs is not None:
            bits.append(f"closure_pairs={self.closure_pairs}")
        if self.trace_id is not None:
            bits.append(f"trace={self.trace_id}")
        return " ".join(bits)

    def short(self) -> str:
        """Compact ``kernel/memo`` form for table cells."""
        return f"{self.kernel}/{self.memo}"
