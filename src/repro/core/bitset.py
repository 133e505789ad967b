"""Bulk frontier closure kernel: the pair-graph BFS as bitset/array ops.

The scalar :class:`~repro.core.compiled.CompiledKernel` walks the pair
graph one pair per Python iteration — an interpreter-bound loop that
caps the reachable problem sizes well below the n=12–14 systems the
ROADMAP targets.  This module re-expresses the same BFS as bulk integer
operations over *frontiers*:

- **Pair-set membership is a bitset.**  Visited pairs live in one flat
  bit array indexed by the canonical pair code ``i * n + j`` (one bit
  per pair, 64x denser than a dict of ints), so membership tests and
  inserts are O(1) loads with no hashing.
- **Whole-frontier expansion.**  Each BFS level is expanded in chunks:
  one indexed gather per operation produces the successor components of
  every pair in the chunk at once, successors are canonicalized
  (``min``/``max``), diagonal pairs masked out, and the surviving
  candidates deduplicated *in first-occurrence order* before being
  appended, all as NumPy array expressions.
- **Vectorized seeding and scans.**  The Def 1-1 bucket seeding and the
  Def 5-5/5-7 column scans reduce to arithmetic on the id arrays
  (rest-key subtraction, ``unique``, column-compare masks); see
  :func:`first_differing_scan` / :func:`first_differing_at_all_scan`.

**Witness identity.**  The scalar BFS is exactly level-synchronous: the
order list doubles as the FIFO queue, pairs are expanded in discovery
order, and within one expansion the operations apply in index order.
The bulk kernel processes the pending region of the order list in
contiguous chunks and appends each chunk's fresh discoveries in
(frontier-position, operation-index) order after first-occurrence
deduplication, with the visited bitset updated between chunks — so the
produced ``order`` sequence and packed parent pointers are *identical*
to the scalar kernel's, not merely equivalent (property-tested in
``tests/property/test_bitset_agreement.py``; the layer-order argument
is spelled out in docs/FORMALISM.md, "Bitset frontier closure").

**Parents by BFS position.**  A parent pointer packs the *order
position* of the expanded pair with the operation index,
``parent_position * n_ops + op`` (:data:`INITIAL` for seeds), in one
int64 vector aligned with ``order``.  The frontier of each level is a
contiguous run of ``order``, so a survivor's parent position is the
level's base position plus its chunk offset plus its row in the chunk;
its index in the chunk's flattened (pair, op) candidate stream is
already ``row * n_ops + op``, so packing is one add.  No
code-to-position index is ever built, and a witness walks back by plain
indexing.

The kernel needs NumPy: it engages when :mod:`numpy` imports and
``REPRO_BITSET_NUMPY`` is not ``"0"``, and otherwise the engine runs
every closure on the scalar kernel (measured faster than a pure-Python
bulk loop on the same tables).  Budgets are metered in frontier-sized
steps via :meth:`~repro.core.budget.BudgetMeter.advance`; trip *points*
therefore differ from the scalar kernel's per-256-expansion checks, but
trip semantics (zero-expansion budgets, completed-run-is-exact
soundness) are preserved.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Iterable, Sequence

from repro.core.budget import BudgetMeter

#: Feature flag for the NumPy paths: set to "0" to run closures on the
#: scalar kernel and the column scans as scalar sweeps even when numpy
#: is importable.
ENV_NUMPY_FLAG = "REPRO_BITSET_NUMPY"

#: Packed-parent sentinel for Def 2-8 initial pairs (kept numerically
#: identical to :data:`repro.core.compiled.INITIAL`; not imported to
#: keep this module free of circular dependencies).
INITIAL = -1

#: Pairs expanded per metering/visited-update step.  Chunking bounds the
#: candidate-matrix working set to ``CHUNK_PAIRS * n_ops`` entries and is
#: the granularity at which bulk budgets are charged.
CHUNK_PAIRS = 1 << 16

#: Below this closure size the vectorized column scans are not worth the
#: array round-trip; the scalar sweep runs instead.
SCAN_MIN_PAIRS = 1024


def load_numpy():
    """The numpy module when the bulk path may use it, else ``None``.

    Re-evaluated per call (not cached at import) so tests can flip
    :data:`ENV_NUMPY_FLAG` per-case without reloading the module.
    """
    if os.environ.get(ENV_NUMPY_FLAG, "1") == "0":
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - the container ships numpy
        return None
    return numpy


def _as_code_array(np, codes) -> array:
    """A numpy code vector as the ``array('L')`` the closure API speaks.

    ``array('L')`` is 8 bytes on this platform's ABI (4 on ILP32);
    round-tripping through ``tobytes`` keeps the copy at memcpy speed
    rather than one Python int per element.
    """
    out = array("L")
    dtype = np.uint64 if out.itemsize == 8 else np.uint32
    out.frombytes(np.ascontiguousarray(codes, dtype=dtype).tobytes())
    return out


def _flat_int64(np, flat):
    """A flat 'L' buffer (array/memoryview) as an int64 numpy vector."""
    return np.frombuffer(flat, dtype=np.uint64).astype(np.int64, copy=False)


class BitsetKernel:
    """Bulk-expansion twin of a scalar ``CompiledKernel``.

    Wraps the scalar kernel's flat ``array('L')`` tables and answers
    :meth:`closure` with byte-identical ``order``/parents, keeping an
    int64 copy of the successor tables as one matrix.  Raises
    ``RuntimeError`` when NumPy is unavailable (see :func:`load_numpy`).
    """

    __slots__ = ("scalar", "np", "_succ_t", "_code_dtype", "_triu_cache")

    def __init__(self, scalar) -> None:
        self.scalar = scalar
        self.np = np = load_numpy()
        if np is None:
            raise RuntimeError("the bitset kernel requires numpy")
        n = scalar.n
        # Pair codes fit int32 up to ~46k states; the narrower dtype
        # halves the memory traffic of the hot loop.
        self._code_dtype = np.int32 if n * n < 2**31 else np.int64
        if scalar.successors:
            # Stored state-major (n, n_ops) and C-contiguous: the
            # per-chunk gather ``succ_t[ids]`` then copies whole rows and
            # lands directly in the (pair, op) layout the discovery order
            # needs — no transpose copies later.
            stacked = np.stack([_flat_int64(np, s) for s in scalar.successors])
            self._succ_t = np.ascontiguousarray(
                stacked.T.astype(self._code_dtype)
            )
        else:
            self._succ_t = np.empty((n, 0), dtype=self._code_dtype)
        self._triu_cache: dict[int, tuple] = {}

    # -- Def 1-1 seeding ------------------------------------------------------

    def _seed_codes_np(
        self, source_indices: Sequence[int], sat_ids: Iterable[int] | None
    ):
        """Vectorized Def 2-8 seeding: canonical initial-pair codes in
        the exact order the scalar kernel's nested bucket loops produce
        them — buckets in first-seen (enumeration) order, members
        ascending, pairs row-major within each bucket."""
        np = self.np
        scalar = self.scalar
        n = scalar.n
        if sat_ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = _flat_int64(np, sat_ids)
        # rest-key = id minus its source-coordinate contributions — the
        # same arithmetic as CompiledKernel.buckets, one vector op per
        # source object.
        rest = ids.copy()
        for k in source_indices:
            stride = scalar.strides[k]
            rest -= ((ids // stride) % scalar.sizes[k]) * stride
        uniq, inverse, counts = np.unique(
            rest, return_inverse=True, return_counts=True
        )
        # First-occurrence position of each bucket restores the
        # first-seen bucket order np.unique's sort destroyed.
        first_pos = np.full(len(uniq), len(ids), dtype=np.int64)
        np.minimum.at(first_pos, inverse, np.arange(len(ids), dtype=np.int64))
        # Members grouped by bucket, buckets by first occurrence, member
        # order preserved (stable sort on the bucket's first position).
        perm = np.argsort(first_pos[inverse], kind="stable")
        counts_ordered = counts[np.argsort(first_pos, kind="stable")]
        chunks = []
        start = 0
        for m in counts_ordered:
            m = int(m)
            members = ids[perm[start : start + m]]
            start += m
            if m < 2:
                continue
            a, b = self._triu_cache.get(m, (None, None))
            if a is None:
                a, b = np.triu_indices(m, k=1)
                self._triu_cache[m] = (a, b)
            chunks.append(members[a] * n + members[b])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    # -- the bulk BFS ---------------------------------------------------------

    def closure(
        self,
        source_indices: Sequence[int],
        sat_ids: Iterable[int] | None = None,
        meter: BudgetMeter | None = None,
        stats: dict[str, int] | None = None,
    ) -> tuple[array, Sequence[int]]:
        """Bulk counterpart of ``CompiledKernel.closure`` — identical
        contract, identical output sequence.  Parents come back as the
        int64 NumPy vector the levels were assembled in (an ``array('q')``
        copy would only slow the hot path down); it indexes like the
        scalar kernel's ``array('q')``."""
        np = self.np
        scalar = self.scalar
        n = scalar.n
        succ_t = self._succ_t
        n_ops = succ_t.shape[1]
        n_ops_or1 = n_ops or 1
        seeds = self._seed_codes_np(source_indices, sat_ids).astype(
            self._code_dtype, copy=False
        )
        visited = np.zeros(n * n, dtype=bool)
        if n:
            # Self-pairs (lo == hi after an operation merges the two
            # states) are never discoveries; pre-marking the diagonal
            # folds the scalar loop's lo != hi test into the one
            # visited-mask gather below.
            visited[np.arange(n, dtype=np.int64) * (n + 1)] = True
        visited[seeds] = True
        # First-occurrence scratch for intra-chunk dedup; never read
        # before being written (every gathered entry is scattered first),
        # so it starts uninitialized.
        idx_dtype = (
            np.int32 if CHUNK_PAIRS * n_ops_or1 < 2**31 else np.int64
        )
        scratch = np.empty(n * n, dtype=idx_dtype)
        discovered = len(seeds)
        order_parts = [seeds]
        parent_parts = [np.full(len(seeds), INITIAL, dtype=np.int64)]
        if meter is not None:
            meter.check(0, discovered, discovered)
        frontier = seeds
        # Order position of the frontier's first pair: each level is the
        # contiguous run of ``order`` the previous level appended.
        level_base = 0
        expanded = 0
        levels = 0
        max_frontier = len(seeds)
        try:
            while len(frontier):
                levels += 1
                if len(frontier) > max_frontier:
                    max_frontier = len(frontier)
                new_codes: list = []
                new_parents: list = []
                level_new = 0
                for start in range(0, len(frontier), CHUNK_PAIRS):
                    chunk = frontier[start : start + CHUNK_PAIRS]
                    if n_ops:
                        i = chunk // n
                        j = chunk - i * n
                        si = succ_t[i]  # (C, n_ops): row gathers
                        sj = succ_t[j]
                        lo = np.minimum(si, sj)
                        hi = np.maximum(si, sj)
                        lo *= n
                        lo += hi
                        # Contiguous (pair, op) layout, so ravel() is a
                        # view and the flattened candidate stream is
                        # already in the scalar loop's pair-major,
                        # operation-minor discovery order.
                        codes = lo.ravel()
                        pos = np.flatnonzero(~visited[codes])
                        codes = codes[pos]
                        if len(codes):
                            # First-occurrence dedup without a sort:
                            # scatter stream indices in reverse so the
                            # earliest write wins, keep positions whose
                            # readback matches their own index.
                            idx = np.arange(len(codes), dtype=idx_dtype)
                            scratch[codes[::-1]] = idx[::-1]
                            first = scratch[codes] == idx
                            codes = codes[first]
                            pos = pos[first]
                            visited[codes] = True
                            # Parent pointers, packed as
                            # ``parent_position * n_ops + op``: a stream
                            # index is already ``row * n_ops + op`` for
                            # the chunk row it came from, so one offset
                            # by the chunk's order position packs it.
                            packed = pos + (level_base + start) * n_ops
                            new_codes.append(codes)
                            new_parents.append(packed)
                            discovered += len(codes)
                            level_new += len(codes)
                    expanded += len(chunk)
                    if meter is not None:
                        remaining = len(frontier) - start - len(chunk)
                        meter.advance(
                            len(chunk), discovered, remaining + level_new
                        )
                level_base += len(frontier)
                if new_codes:
                    frontier = np.concatenate(new_codes)
                    order_parts.append(frontier)
                    parent_parts.extend(new_parents)
                else:
                    frontier = seeds[:0]
        finally:
            if stats is not None:
                stats["expansions"] = expanded
                stats["discovered"] = discovered
                stats["frontier_high_water"] = max_frontier
                stats["levels"] = levels
        order_np = (
            np.concatenate(order_parts)
            if len(order_parts) > 1
            else order_parts[0]
        )
        packed_np = (
            np.concatenate(parent_parts)
            if len(parent_parts) > 1
            else parent_parts[0]
        )
        return _as_code_array(np, order_np), packed_np

# -- vectorized column scans --------------------------------------------------


def touched_scan(n: int, order) -> bytes:
    """The *read set* of a closure as a state bitset: bit ``i`` (little-
    endian, bit ``i & 7`` of byte ``i >> 3``) is set iff state ``i``
    appears as a component of some pair in ``order``.

    This is the provenance delta invalidation tests against: the BFS
    read every operation's successor table exactly at these ids (each
    expanded pair applies each operation to both of its components), so
    a modified system whose changed successor entries avoid this set
    replays the closure bit-identically — same order, same parents, same
    witnesses (docs/FORMALISM.md, "Persistent memoization").  Derived
    from the order array when a diff asks, so neither the hot BFS loops
    nor the store pay for the tracking.
    """
    np = load_numpy()
    if np is not None and len(order):
        codes = _flat_int64(np, order)
        mask = np.zeros(n, dtype=bool)
        mask[codes // n] = True
        mask[codes % n] = True
        return np.packbits(mask, bitorder="little").tobytes()
    out = bytearray((n + 7) >> 3)
    for code in order:
        i, j = divmod(code, n)
        out[i >> 3] |= 1 << (i & 7)
        out[j >> 3] |= 1 << (j & 7)
    return bytes(out)


def first_differing_scan(kernel, order: array) -> dict[str, int] | None:
    """Vectorized Def 5-5 single-target scan over a closure's order:
    for each object name, the order position of the earliest pair whose
    components differ there.  Returns ``None`` when the NumPy path is
    off or the closure is too small to be worth the array round-trip
    (caller falls back to the scalar sweep — results are identical
    either way: diagonal pairs never enter a closure, and ``argmax`` of
    the difference mask is by construction the earliest BFS position)."""
    np = load_numpy()
    if np is None or len(order) < SCAN_MIN_PAIRS:
        return None
    codes = _flat_int64(np, order)
    i = codes // kernel.n
    j = codes % kernel.n
    first: dict[str, int] = {}
    for name, column in zip(kernel.names, kernel.columns):
        col = _flat_int64(np, column)
        diff = col[i] != col[j]
        k = int(np.argmax(diff))
        if diff[k]:
            first[name] = k
    return first


def first_differing_at_all_scan(
    kernel, order: array, targets: Sequence[str]
) -> tuple[bool, int | None]:
    """Vectorized Def 5-7 set-target scan: the order position of the
    earliest pair differing at *every* target simultaneously.  Returns
    ``(handled, position)``; ``handled=False`` means the caller should
    run the scalar sweep."""
    np = load_numpy()
    if np is None or len(order) < SCAN_MIN_PAIRS:
        return False, None
    codes = _flat_int64(np, order)
    i = codes // kernel.n
    j = codes % kernel.n
    column_of = dict(zip(kernel.names, kernel.columns))
    mask = np.ones(len(codes), dtype=bool)
    for target in targets:
        col = _flat_int64(np, column_of[target])
        mask &= col[i] != col[j]
        if not mask.any():
            return True, None
    return True, int(np.argmax(mask))
