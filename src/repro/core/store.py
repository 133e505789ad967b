"""Disk-backed persistent memo store: warm starts across processes.

PR 6 made the *first* computation of a closure ~11x faster; this module
makes the *second* computation — in a new CLI run, a restarted service,
or another process sharing the file — a single row fetch.  Three memo
families from the dependency stack persist to one sqlite file
(stdlib-only, WAL-journaled):

* **closures** — the per-``(A, phi)`` canonical-pair BFS results
  (``order`` as packed ``array('L')`` bytes, parents as order-aligned
  int64 bytes), plus each closure's *touched-states bitset*;
* **history_tables** — the Def 1-1 sweep tables of
  :meth:`DependencyEngine._history_table`;
* **buckets** — the Def 1-1 partitions themselves.

**Canonical system hashing.**  Rows are keyed by a content hash of the
compiled system: the object names, domain sizes and operation names,
plus one sha256 per operation over its flat successor table in a
canonical little-endian 8-byte encoding (:func:`system_hash`,
:func:`delta_hash`).  Two systems whose compiled tables are identical —
however their lambdas are spelled — share every memo; any behavioural
change to any operation re-keys the store.  Constraints are keyed the
same way, by the hash of their satisfying-id array (:func:`sat_key`),
so equal-but-distinct :class:`~repro.core.constraints.Constraint`
instances share disk entries even though they cannot share RAM entries.

**Incremental invalidation.**  Each stored closure carries the bitset
of state ids its BFS actually read (every operation's successor table
is consulted exactly at the components of reached pairs —
:meth:`CompiledClosure.touched_states`).  When one operation's delta
changes, only the closures whose touched set intersects the changed
entries are invalid; the rest replay *bit-identically* under the new
system — same order, parents, and witnesses — and
:func:`repro.analysis.diff.diff_systems` carries them across to the new
system hash instead of recomputing (soundness argument in
docs/FORMALISM.md, "Persistent memoization").

**Soundness posture.**  Content-hash keying means a stored row is never
*wrong* — at worst it is for a system nobody asks about again.  Partial
results never persist: budget trips raise before the engine's
memoization point, so only complete closures reach :meth:`save_closure`
(see :mod:`repro.core.budget`).  And the store is an accelerator, not a
dependency: any sqlite-level failure — a truncated file, a foreign
schema version, a concurrent writer holding the lock past the busy
timeout — *degrades* the store to the in-memory path (``store.degraded``
counter + one :class:`RuntimeWarning`), never an exception to the
caller.  Concurrent processes sharing one store coordinate through WAL
journaling and a busy timeout.

The on-disk payload is bounded (``max_bytes`` /
``REPRO_STORE_MAX_BYTES``) with LRU-by-last-access eviction across the
payload tables, accounted by the shared
:class:`~repro.core.cache.ByteMeter` policy.  The ``systems`` table is
exempt: it records each registered system's hash, shape and
per-operation hashes in one small row, and no stored successor tables —
every row decodes against the engine's in-memory compile of the system,
which computing the hash required anyway.

Blobs use the platform's native int width/endianness (the store is a
same-machine cache, not an interchange format); the *hash* is computed
over the canonical little-endian encoding, so ids agree across
architectures even though blobs would not.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import sys
import threading
import time
import warnings
from array import array
from collections.abc import Iterable, Mapping, Sequence

from repro import obs
from repro.core import bitset
from repro.core.cache import ByteMeter
from repro.core.compiled import CompiledKernel

#: Version of the on-disk layout.  A file written by any other version
#: degrades soundly to the in-memory path instead of being misread.
SCHEMA_VERSION = 2

#: Environment variables: default store path (the CLI's ``--store``
#: fallback) and the byte bound on the payload tables.
ENV_STORE = "REPRO_STORE"
ENV_MAX_BYTES = "REPRO_STORE_MAX_BYTES"

#: How long a connection waits on a concurrent writer before giving up
#: (and degrading) instead of deadlocking.
BUSY_TIMEOUT_MS = 10_000

#: Attempts at switching a file to WAL.  Two connections converting one
#: fresh file at once can get "database is locked" immediately — sqlite
#: skips the busy timeout where waiting would deadlock — so the loser
#: retries after a short sleep instead of degrading.
WAL_ATTEMPTS = 20

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS systems (
    hash TEXT PRIMARY KEY,
    n INTEGER NOT NULL,
    names TEXT NOT NULL,
    sizes TEXT NOT NULL,
    op_names TEXT NOT NULL,
    op_hashes TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS closures (
    system_hash TEXT NOT NULL,
    sources TEXT NOT NULL,
    constraint_key TEXT NOT NULL,
    kernel_path TEXT NOT NULL,
    n_pairs INTEGER NOT NULL,
    order_blob BLOB NOT NULL,
    parents_blob BLOB NOT NULL,
    touched BLOB NOT NULL,
    first_diff TEXT,
    parent_index BLOB,
    nbytes INTEGER NOT NULL,
    last_access REAL NOT NULL,
    PRIMARY KEY (system_hash, sources, constraint_key)
);
CREATE TABLE IF NOT EXISTS history_tables (
    system_hash TEXT NOT NULL,
    sources TEXT NOT NULL,
    op_indices TEXT NOT NULL,
    constraint_key TEXT NOT NULL,
    table_json TEXT NOT NULL,
    nbytes INTEGER NOT NULL,
    last_access REAL NOT NULL,
    PRIMARY KEY (system_hash, sources, op_indices, constraint_key)
);
CREATE TABLE IF NOT EXISTS buckets (
    system_hash TEXT NOT NULL,
    source_indices TEXT NOT NULL,
    constraint_key TEXT NOT NULL,
    members BLOB NOT NULL,
    nbytes INTEGER NOT NULL,
    last_access REAL NOT NULL,
    PRIMARY KEY (system_hash, source_indices, constraint_key)
);
CREATE TABLE IF NOT EXISTS composed (
    system_hash TEXT NOT NULL,
    op_indices TEXT NOT NULL,
    comp BLOB NOT NULL,
    nbytes INTEGER NOT NULL,
    last_access REAL NOT NULL,
    PRIMARY KEY (system_hash, op_indices)
);
"""

#: The tables the byte budget governs (``systems`` is exempt).
_PAYLOAD_TABLES = ("closures", "history_tables", "buckets", "composed")


# -- canonical hashing --------------------------------------------------------


def _table_bytes(table) -> bytes:
    """One flat id table in the canonical encoding hashes are computed
    over: unsigned 8-byte little-endian.  ``table`` is any iterable of
    non-negative ints (``array('L')``, memoryview, list)."""
    arr = table if isinstance(table, array) and table.itemsize == 8 else array(
        "Q", table
    )
    if sys.byteorder != "little":
        arr = arr[:]
        arr.byteswap()
    return arr.tobytes()


def delta_hash(table) -> str:
    """The per-operation content hash: sha256 of the operation's flat
    successor table in canonical encoding.  Equal tables — however the
    operation was written — hash equal."""
    return hashlib.sha256(_table_bytes(table)).hexdigest()[:16]


def system_hash(kernel: CompiledKernel) -> str:
    """The canonical content hash of a compiled system: its shape
    (names, domain sizes, operation names) plus every operation's
    :func:`delta_hash`.  This is the store's primary key — computing it
    requires compiling (each operation runs once per state), so warm
    starts skip the BFS, not the compile.
    """
    header = json.dumps(
        {
            "names": list(kernel.names),
            "sizes": list(kernel.sizes),
            "ops": list(kernel.op_names),
            "deltas": [delta_hash(table) for table in kernel.successors],
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(header.encode("ascii")).hexdigest()[:32]


def sat_key(sat_ids) -> str:
    """The content key of a resolved constraint: ``"*"`` for the
    unconstrained fast path (``None`` — any trivially-true instance),
    else the hash of the satisfying-id array.  Semantically equal
    constraints share one key even as distinct instances."""
    if sat_ids is None:
        return "*"
    return hashlib.sha256(_table_bytes(sat_ids)).hexdigest()[:16]


def _sources_key(sources: Iterable[str]) -> str:
    return json.dumps(sorted(sources), separators=(",", ":"))


def _indices_key(indices: Sequence[int]) -> str:
    return json.dumps(list(indices), separators=(",", ":"))


# -- state bitsets ------------------------------------------------------------


def bitset_intersects(a: bytes, b: bytes) -> bool:
    """Whether two little-endian state bitsets share a set bit — the
    survival test of delta invalidation (touched ∩ changed)."""
    return bool(int.from_bytes(a, "little") & int.from_bytes(b, "little"))


def bitset_count(a: bytes) -> int:
    return int.from_bytes(a, "little").bit_count()


def changed_state_bitset(n: int, old_tables, new_tables, indices=None) -> bytes:
    """The states where any (selected) operation's successor entry
    differs between two compiled systems, as a little-endian bitset —
    the ``changed`` half of the invalidation test."""
    if indices is None:
        indices = range(min(len(old_tables), len(new_tables)))
    np = bitset.load_numpy()
    if np is not None:
        mask = np.zeros(n, dtype=bool)
        for d in indices:
            a = np.frombuffer(_table_bytes(old_tables[d]), dtype=np.uint64)
            b = np.frombuffer(_table_bytes(new_tables[d]), dtype=np.uint64)
            mask |= a != b
        return np.packbits(mask, bitorder="little").tobytes()
    out = bytearray((n + 7) >> 3)
    for d in indices:
        a = old_tables[d]
        b = new_tables[d]
        for i in range(n):
            if a[i] != b[i]:
                out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def changed_op_indices(old_tables, new_tables) -> list[int]:
    """Operations (by index) whose successor tables differ."""
    return [
        d
        for d in range(min(len(old_tables), len(new_tables)))
        if _table_bytes(old_tables[d]) != _table_bytes(new_tables[d])
    ]


# -- closure serialization ----------------------------------------------------


def _parents_blob(order, parents: Mapping[int, int]) -> bytes:
    """Parent pointers packed order-aligned as native int64 bytes.  The
    bulk kernel's :class:`~repro.core.bitset.PackedParents` is already
    order-aligned; the scalar dict's insertion order *is* the BFS order,
    but the explicit per-code lookup keeps this correct for any Mapping.
    """
    if isinstance(parents, bitset.PackedParents):
        return parents.packed_bytes()
    return array("q", (parents[code] for code in order)).tobytes()


def _decode_order(blob: bytes) -> array:
    arr = array("L")
    arr.frombytes(blob)
    return arr


def _decode_parents(order: array, blob: bytes):
    """The mapping back: :class:`~repro.core.bitset.PackedParents` over
    the two arrays when NumPy is importable (no per-entry Python ints),
    a plain dict otherwise — both byte-identical in content to what was
    stored."""
    np = bitset.load_numpy()
    if np is not None:
        codes = np.frombuffer(order, dtype=np.uint64).astype(np.int64, copy=False)
        packed = np.frombuffer(blob, dtype=np.int64)
        return bitset.PackedParents(codes, packed)
    packed = array("q")
    packed.frombytes(blob)
    return dict(zip(order, packed))


def _decode_first_diff(text) -> dict | None:
    """The stored first-differing scan back as ``{name: pair_code}``, or
    ``None`` when absent/malformed (the closure then just re-scans)."""
    if not text:
        return None
    try:
        decoded = json.loads(text)
    except ValueError:
        return None
    if not isinstance(decoded, dict) or not all(
        isinstance(k, str) and isinstance(v, int) for k, v in decoded.items()
    ):
        return None
    return decoded


def _pack_buckets(buckets: Sequence[Sequence[int]]) -> bytes:
    flat = array("L", [len(buckets)])
    for bucket in buckets:
        flat.append(len(bucket))
        flat.extend(bucket)
    return flat.tobytes()


def _unpack_buckets(blob: bytes) -> list[list[int]]:
    flat = array("L")
    flat.frombytes(blob)
    count = flat[0]
    out: list[list[int]] = []
    pos = 1
    for _ in range(count):
        size = flat[pos]
        pos += 1
        out.append(list(flat[pos : pos + size]))
        pos += size
    if pos != len(flat):
        raise ValueError("bucket blob length mismatch")
    return out


# -- the store ----------------------------------------------------------------


class PersistentStore:
    """One sqlite-backed memo store, shared by any number of engines
    (and, through WAL + busy timeout, any number of processes).

    All methods are miss-tolerant by contract: after any sqlite-level
    failure the store flips to *degraded* (``store.degraded`` counter +
    one warning) and every later call is a cheap no-op miss — engines
    keep computing exactly as if no store were attached.
    """

    def __init__(self, path: str | os.PathLike, max_bytes: int | None = None) -> None:
        self.path = os.fspath(path)
        if max_bytes is None:
            env = os.environ.get(ENV_MAX_BYTES)
            max_bytes = int(env) if env else None
        self.meter = ByteMeter(max_bytes, "store.evictions")
        self.degraded = False
        self.degraded_reason: str | None = None
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._conn: sqlite3.Connection | None = None
        self._lock = threading.RLock()

    @classmethod
    def coerce(
        cls, store: "PersistentStore | str | os.PathLike | None"
    ) -> "PersistentStore | None":
        """``None`` passes through, an existing store passes through, a
        path opens one — the engine/CLI/diff argument convention."""
        if store is None or isinstance(store, PersistentStore):
            return store
        return cls(store)

    # -- connection lifecycle -------------------------------------------------

    def _degrade(self, reason: str, exc: BaseException | None = None) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = f"{reason}: {exc}" if exc is not None else reason
        obs.count("store.degraded")
        warnings.warn(
            f"persistent store {self.path!r} degraded to the in-memory path "
            f"({self.degraded_reason})",
            RuntimeWarning,
            stacklevel=4,
        )
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def _connect(self) -> sqlite3.Connection | None:
        """The lazily opened connection, or ``None`` once degraded.
        Opening validates the schema version: a file written by a
        different layout degrades instead of being misread."""
        if self.degraded:
            return None
        if self._conn is not None:
            return self._conn
        try:
            conn = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT_MS / 1000,
                check_same_thread=False,
            )
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            for attempt in range(1, WAL_ATTEMPTS + 1):
                try:
                    conn.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as exc:
                    if attempt == WAL_ATTEMPTS or "locked" not in str(exc):
                        raise
                    time.sleep(0.005 * attempt)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
                conn.commit()
            elif row[0] != str(SCHEMA_VERSION):
                conn.close()
                self._degrade(
                    f"schema version mismatch (file {row[0]}, "
                    f"expected {SCHEMA_VERSION})"
                )
                return None
        except sqlite3.Error as exc:
            self._degrade("sqlite open failed", exc)
            return None
        self._conn = conn
        return conn

    def close(self) -> None:
        with self._lock:
            conn, self._conn = self._conn, None
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass

    def __enter__(self) -> "PersistentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _bump_meta(self, conn: sqlite3.Connection, key: str, by: int = 1) -> None:
        """Lifetime counters (hits/misses/writes/evictions across every
        process that ever used this file) live in the meta table."""
        conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET "
            "value = CAST(CAST(value AS INTEGER) + ? AS TEXT)",
            (key, str(by), by),
        )

    def _miss(self, conn: sqlite3.Connection | None) -> None:
        self.misses += 1
        obs.count("store.miss")
        if conn is not None:
            self._bump_meta(conn, "misses")
            conn.commit()

    def _hit(self, conn: sqlite3.Connection) -> None:
        self.hits += 1
        obs.count("store.hit")
        self._bump_meta(conn, "hits")

    # -- systems --------------------------------------------------------------

    def register_system(self, kernel: CompiledKernel) -> str | None:
        """Record the system's shape and per-operation hashes and
        return its canonical hash — the key every other method takes.
        Returns ``None`` when degraded (callers then skip the store
        entirely)."""
        with self._lock:
            conn = self._connect()
            if conn is None:
                return None
            h = system_hash(kernel)
            try:
                row = conn.execute(
                    "SELECT 1 FROM systems WHERE hash=?", (h,)
                ).fetchone()
                if row is None:
                    conn.execute(
                        "INSERT OR IGNORE INTO systems "
                        "(hash, n, names, sizes, op_names, op_hashes, "
                        " created) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?)",
                        (
                            h,
                            kernel.n,
                            json.dumps(list(kernel.names)),
                            json.dumps(list(kernel.sizes)),
                            json.dumps(list(kernel.op_names)),
                            json.dumps(
                                [delta_hash(t) for t in kernel.successors]
                            ),
                            time.time(),
                        ),
                    )
                    self.writes += 1
                    obs.count("store.write")
                    self._bump_meta(conn, "writes")
                    conn.commit()
            except sqlite3.Error as exc:
                self._degrade("register_system failed", exc)
                return None
            return h

    # -- closures -------------------------------------------------------------

    def save_closure(self, h: str, constraint_key: str, closure) -> None:
        """Persist one complete :class:`CompiledClosure` (first writer
        wins, like the engine's ``setdefault`` memo).  The engine only
        calls this after its memoization point, which budget trips raise
        past — partial results can never reach here."""
        order = closure.order
        order_blob = order.tobytes()
        parents_blob = _parents_blob(order, closure.parents)
        touched = closure.touched_states()
        # Two derived artifacts ride along so a warm start replays
        # queries without re-deriving them: the Def 5-5 first-differing
        # scan and the packed-parents sorted index.  Both are pure
        # functions of the closure (content-hash keying keeps them
        # correct) and both are work the *saving* process does anyway on
        # its first query — forcing them here just moves that work in
        # front of the persist.
        first_diff = json.dumps(closure.first_differing(), sort_keys=True)
        parents = closure.parents
        index_blob = (
            parents.index_bytes()
            if isinstance(parents, bitset.PackedParents)
            else None
        )
        nbytes = (
            len(order_blob)
            + len(parents_blob)
            + len(touched)
            + len(first_diff)
            + (len(index_blob) if index_blob is not None else 0)
        )
        with self._lock:
            conn = self._connect()
            if conn is None:
                return
            try:
                with obs.span("store.save", kind="closure"):
                    conn.execute(
                        "INSERT OR IGNORE INTO closures "
                        "(system_hash, sources, constraint_key, kernel_path, "
                        " n_pairs, order_blob, parents_blob, touched, "
                        " first_diff, parent_index, nbytes, last_access) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            h,
                            _sources_key(closure.sources),
                            constraint_key,
                            closure.kernel_path,
                            len(order),
                            order_blob,
                            parents_blob,
                            touched,
                            first_diff,
                            index_blob,
                            nbytes,
                            time.time(),
                        ),
                    )
                    self.writes += 1
                    obs.count("store.write")
                    self._bump_meta(conn, "writes")
                    self._enforce_budget(conn)
                    conn.commit()
            except sqlite3.Error as exc:
                self._degrade("save_closure failed", exc)

    def load_closure(
        self, h: str, sources: Iterable[str], constraint_key: str
    ) -> tuple[str, array, Mapping[int, int], bytes, dict | None] | None:
        """One row fetch instead of a BFS: ``(kernel_path, order,
        parents, touched, first_diff)`` for ``(A, phi)`` under system
        ``h``, or ``None``.  A structurally corrupt row is deleted and
        counted (``store.corrupt``), then treated as a miss — the engine
        just recomputes.  The two derived columns are best-effort: a
        missing or malformed ``first_diff``/``parent_index`` degrades to
        lazy recomputation, never to a miss."""
        key = (h, _sources_key(sources), constraint_key)
        with self._lock:
            conn = self._connect()
            if conn is None:
                self._miss(None)
                return None
            try:
                with obs.span("store.load", kind="closure"):
                    row = conn.execute(
                        "SELECT kernel_path, n_pairs, order_blob, "
                        "parents_blob, touched, first_diff, parent_index "
                        "FROM closures "
                        "WHERE system_hash=? AND sources=? AND constraint_key=?",
                        key,
                    ).fetchone()
                    if row is None:
                        self._miss(conn)
                        return None
                    (
                        kernel_path,
                        n_pairs,
                        order_blob,
                        parents_blob,
                        touched,
                        first_diff_json,
                        index_blob,
                    ) = row
                    if (
                        len(order_blob) != 8 * n_pairs
                        or len(parents_blob) != 8 * n_pairs
                    ):
                        obs.count("store.corrupt")
                        conn.execute(
                            "DELETE FROM closures WHERE system_hash=? "
                            "AND sources=? AND constraint_key=?",
                            key,
                        )
                        self._miss(conn)
                        return None
                    conn.execute(
                        "UPDATE closures SET last_access=? WHERE system_hash=? "
                        "AND sources=? AND constraint_key=?",
                        (time.time(), *key),
                    )
                    self._hit(conn)
                    conn.commit()
            except sqlite3.Error as exc:
                self._degrade("load_closure failed", exc)
                return None
        order = _decode_order(order_blob)
        parents = _decode_parents(order, parents_blob)
        if index_blob is not None and isinstance(parents, bitset.PackedParents):
            try:
                parents.preload_index(index_blob)
            except (ValueError, TypeError):
                pass  # fall back to the lazy argsort
        first_diff = _decode_first_diff(first_diff_json)
        return kernel_path, order, parents, touched, first_diff

    def closure_rows(
        self, h: str
    ) -> list[tuple[str, str, bytes]]:
        """Every stored closure key for system ``h`` with its touched
        bitset — ``(sources_json, constraint_key, touched)`` — the
        inventory ``repro diff`` sweeps for survivors."""
        with self._lock:
            conn = self._connect()
            if conn is None:
                return []
            try:
                return list(
                    conn.execute(
                        "SELECT sources, constraint_key, touched "
                        "FROM closures WHERE system_hash=?",
                        (h,),
                    )
                )
            except sqlite3.Error as exc:
                self._degrade("closure_rows failed", exc)
                return []

    # -- history tables -------------------------------------------------------

    def save_history_table(
        self,
        h: str,
        sources: Iterable[str],
        op_indices: Sequence[int],
        constraint_key: str,
        table: Mapping[str, tuple[int, int]],
    ) -> None:
        payload = json.dumps(
            {name: list(pair) for name, pair in table.items()},
            separators=(",", ":"),
        )
        with self._lock:
            conn = self._connect()
            if conn is None:
                return
            try:
                with obs.span("store.save", kind="history_table"):
                    conn.execute(
                        "INSERT OR IGNORE INTO history_tables "
                        "(system_hash, sources, op_indices, constraint_key, "
                        " table_json, nbytes, last_access) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?)",
                        (
                            h,
                            _sources_key(sources),
                            _indices_key(op_indices),
                            constraint_key,
                            payload,
                            len(payload),
                            time.time(),
                        ),
                    )
                    self.writes += 1
                    obs.count("store.write")
                    self._bump_meta(conn, "writes")
                    self._enforce_budget(conn)
                    conn.commit()
            except sqlite3.Error as exc:
                self._degrade("save_history_table failed", exc)

    def load_history_table(
        self,
        h: str,
        sources: Iterable[str],
        op_indices: Sequence[int],
        constraint_key: str,
    ) -> dict[str, tuple[int, int]] | None:
        key = (h, _sources_key(sources), _indices_key(op_indices), constraint_key)
        with self._lock:
            conn = self._connect()
            if conn is None:
                self._miss(None)
                return None
            try:
                with obs.span("store.load", kind="history_table"):
                    row = conn.execute(
                        "SELECT table_json FROM history_tables "
                        "WHERE system_hash=? AND sources=? AND op_indices=? "
                        "AND constraint_key=?",
                        key,
                    ).fetchone()
                    if row is None:
                        self._miss(conn)
                        return None
                    conn.execute(
                        "UPDATE history_tables SET last_access=? "
                        "WHERE system_hash=? AND sources=? AND op_indices=? "
                        "AND constraint_key=?",
                        (time.time(), *key),
                    )
                    self._hit(conn)
                    conn.commit()
            except sqlite3.Error as exc:
                self._degrade("load_history_table failed", exc)
                return None
        try:
            decoded = json.loads(row[0])
            return {name: (pair[0], pair[1]) for name, pair in decoded.items()}
        except (ValueError, TypeError, IndexError):
            obs.count("store.corrupt")
            return None

    # -- Def 1-1 buckets ------------------------------------------------------

    def save_buckets(
        self,
        h: str,
        source_indices: Sequence[int],
        constraint_key: str,
        buckets: Sequence[Sequence[int]],
    ) -> None:
        blob = _pack_buckets(buckets)
        with self._lock:
            conn = self._connect()
            if conn is None:
                return
            try:
                with obs.span("store.save", kind="buckets"):
                    conn.execute(
                        "INSERT OR IGNORE INTO buckets "
                        "(system_hash, source_indices, constraint_key, "
                        " members, nbytes, last_access) "
                        "VALUES (?, ?, ?, ?, ?, ?)",
                        (
                            h,
                            _indices_key(source_indices),
                            constraint_key,
                            blob,
                            len(blob),
                            time.time(),
                        ),
                    )
                    self.writes += 1
                    obs.count("store.write")
                    self._bump_meta(conn, "writes")
                    self._enforce_budget(conn)
                    conn.commit()
            except sqlite3.Error as exc:
                self._degrade("save_buckets failed", exc)

    def load_buckets(
        self, h: str, source_indices: Sequence[int], constraint_key: str
    ) -> list[list[int]] | None:
        key = (h, _indices_key(source_indices), constraint_key)
        with self._lock:
            conn = self._connect()
            if conn is None:
                self._miss(None)
                return None
            try:
                with obs.span("store.load", kind="buckets"):
                    row = conn.execute(
                        "SELECT members FROM buckets WHERE system_hash=? "
                        "AND source_indices=? AND constraint_key=?",
                        key,
                    ).fetchone()
                    if row is None:
                        self._miss(conn)
                        return None
                    conn.execute(
                        "UPDATE buckets SET last_access=? WHERE system_hash=? "
                        "AND source_indices=? AND constraint_key=?",
                        (time.time(), *key),
                    )
                    self._hit(conn)
                    conn.commit()
            except sqlite3.Error as exc:
                self._degrade("load_buckets failed", exc)
                return None
        try:
            return _unpack_buckets(row[0])
        except ValueError:
            obs.count("store.corrupt")
            return None

    # -- composed history arrays ----------------------------------------------

    def save_composed(
        self, h: str, op_indices: Sequence[int], comp
    ) -> None:
        """Persist one composed successor array (``comp[i] = id(H(i))``)
        keyed by the history's op-index tuple, in the canonical 8-byte
        little-endian encoding :func:`delta_hash` hashes."""
        blob = _table_bytes(comp)
        with self._lock:
            conn = self._connect()
            if conn is None:
                return
            try:
                with obs.span("store.save", kind="composed"):
                    conn.execute(
                        "INSERT OR IGNORE INTO composed "
                        "(system_hash, op_indices, comp, nbytes, last_access) "
                        "VALUES (?, ?, ?, ?, ?)",
                        (
                            h,
                            _indices_key(op_indices),
                            blob,
                            len(blob),
                            time.time(),
                        ),
                    )
                    self.writes += 1
                    obs.count("store.write")
                    self._bump_meta(conn, "writes")
                    self._enforce_budget(conn)
                    conn.commit()
            except sqlite3.Error as exc:
                self._degrade("save_composed failed", exc)

    def load_composed(
        self, h: str, op_indices: Sequence[int], n: int
    ) -> array | None:
        """The composed array back, or ``None`` on miss/corruption.  A
        blob of the wrong length for an ``n``-state space is deleted and
        counted rather than trusted."""
        key = (h, _indices_key(op_indices))
        with self._lock:
            conn = self._connect()
            if conn is None:
                self._miss(None)
                return None
            try:
                with obs.span("store.load", kind="composed"):
                    row = conn.execute(
                        "SELECT comp FROM composed WHERE system_hash=? "
                        "AND op_indices=?",
                        key,
                    ).fetchone()
                    if row is None:
                        self._miss(conn)
                        return None
                    if len(row[0]) != 8 * n:
                        conn.execute(
                            "DELETE FROM composed WHERE system_hash=? "
                            "AND op_indices=?",
                            key,
                        )
                        conn.commit()
                        obs.count("store.corrupt")
                        self._miss(None)
                        return None
                    conn.execute(
                        "UPDATE composed SET last_access=? WHERE system_hash=? "
                        "AND op_indices=?",
                        (time.time(), *key),
                    )
                    self._hit(conn)
                    conn.commit()
            except sqlite3.Error as exc:
                self._degrade("load_composed failed", exc)
                return None
        arr = array("L")
        arr.frombytes(row[0])
        if sys.byteorder != "little":
            arr.byteswap()
        return arr

    # -- bounding / stats -----------------------------------------------------

    def _payload_bytes(self, conn: sqlite3.Connection) -> int:
        total = 0
        for table in _PAYLOAD_TABLES:
            row = conn.execute(
                f"SELECT COALESCE(SUM(nbytes), 0) FROM {table}"
            ).fetchone()
            total += row[0]
        return total

    def _enforce_budget(self, conn: sqlite3.Connection) -> None:
        """LRU-by-last-access eviction across the payload tables until
        the :class:`~repro.core.cache.ByteMeter` budget holds.  The
        ``systems`` table is exempt: one small row per distinct system,
        bounded by the number of systems, not by the query stream."""
        self.meter.set_used(self._payload_bytes(conn))
        obs.gauge_max("store.bytes", self.meter.used)
        while self.meter.over_budget():
            victim = conn.execute(
                " UNION ALL ".join(
                    f"SELECT '{t}' AS tbl, rowid, nbytes, last_access FROM {t}"
                    for t in _PAYLOAD_TABLES
                )
                + " ORDER BY last_access ASC LIMIT 1"
            ).fetchone()
            if victim is None:
                break
            tbl, rowid, nbytes, _ = victim
            conn.execute(f"DELETE FROM {tbl} WHERE rowid=?", (rowid,))
            self.meter.evicted(nbytes)
            self._bump_meta(conn, "evictions")

    def stats_brief(self) -> dict[str, int]:
        """The integer-only section ``DependencyEngine.cache_stats()``
        embeds: this process's view of the store."""
        out = {
            "attached": 1,
            "degraded": int(self.degraded),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }
        out.update(self.meter.stats())
        return out

    def stats(self) -> dict:
        """The full surface ``repro stats --store`` prints: file size,
        schema version, per-table row counts, this process's hit rate,
        and the lifetime meta counters."""
        out: dict = {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "degraded": int(self.degraded),
            "degraded_reason": self.degraded_reason,
            "process": {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "evictions": self.meter.evictions,
            },
        }
        try:
            out["file_bytes"] = os.path.getsize(self.path)
        except OSError:
            out["file_bytes"] = 0
        with self._lock:
            conn = self._connect()
            if conn is None:
                return out
            try:
                tables: dict[str, int] = {}
                for table in ("systems", *_PAYLOAD_TABLES):
                    tables[table] = conn.execute(
                        f"SELECT COUNT(*) FROM {table}"
                    ).fetchone()[0]
                out["rows"] = tables
                out["payload_bytes"] = self._payload_bytes(conn)
                out["max_bytes"] = self.meter.capacity
                lifetime = {
                    key: int(value)
                    for key, value in conn.execute(
                        "SELECT key, value FROM meta WHERE key IN "
                        "('hits', 'misses', 'writes', 'evictions')"
                    )
                }
                out["lifetime"] = lifetime
                asked = lifetime.get("hits", 0) + lifetime.get("misses", 0)
                out["hit_rate"] = (
                    lifetime.get("hits", 0) / asked if asked else None
                )
            except sqlite3.Error as exc:
                self._degrade("stats failed", exc)
        return out
