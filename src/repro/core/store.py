"""Disk-backed persistent memo store: warm starts across processes.

PR 6 made the *first* computation of a closure ~11x faster; this module
makes the *second* computation — in a new CLI run, a restarted service,
or another process sharing the file — a single row fetch.  One memo
family persists to one sqlite file (stdlib-only, WAL-journaled): the
per-``(A, phi)`` canonical-pair BFS results, each row holding ``order``
(packed ``array('L')`` bytes), the order-aligned int64 parent pointers
(``parent_position * n_ops + op``, the one format both kernels emit) and
the Def 5-5 ``first_diff`` scan, nothing else.  Everything else the
dependency stack memoizes (Def 1-1 buckets, composed history arrays,
fixed-history sweep tables) is cheaper to recompute next to the compile
a warm process pays anyway than to read back, so it stays in RAM.

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

**Incremental invalidation.**  A closure's BFS read every operation's
successor table exactly at the components of its reached pairs — its
*touched set* (:meth:`CompiledClosure.touched_states`, computed from
``order`` when a diff runs, not stored).  When one operation's delta
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
``REPRO_STORE_MAX_BYTES``) with LRU-by-last-access eviction over the
closure rows, accounted by the shared
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
from collections.abc import Iterable

from repro import obs
from repro.core import bitset
from repro.core.cache import ByteMeter
from repro.core.compiled import CompiledKernel

#: Version of the on-disk layout.  A file written by any other version
#: degrades soundly to the in-memory path instead of being misread.
SCHEMA_VERSION = 3

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
    first_diff TEXT,
    nbytes INTEGER NOT NULL,
    last_access REAL NOT NULL,
    PRIMARY KEY (system_hash, sources, constraint_key)
);
"""


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
    requires the successor tables (one tabulation of every operation
    over the space), so warm starts skip the BFS, not the tabulation.
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


def _decode_array(typecode: str, blob: bytes) -> array:
    """A stored blob back as a native ``array``: ``'L'`` for the order
    codes, ``'q'`` for the parent pointers — no NumPy needed, whichever
    kernel wrote them."""
    arr = array(typecode)
    arr.frombytes(blob)
    return arr


def _decode_first_diff(text, n_pairs: int) -> dict | None:
    """The stored first-differing scan back as ``{name: position}``, or
    ``None`` when absent/malformed (the closure then just re-scans)."""
    if not text:
        return None
    try:
        decoded = json.loads(text)
    except ValueError:
        return None
    if not isinstance(decoded, dict) or not all(
        isinstance(k, str) and isinstance(v, int) and 0 <= v < n_pairs
        for k, v in decoded.items()
    ):
        return None
    return decoded


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
        order_blob = closure.order.tobytes()
        parents_blob = closure.parents.tobytes()
        # The Def 5-5 first-differing scan rides along so a warm start
        # answers queries without re-scanning: it is a pure function of
        # the closure (content-hash keying keeps it correct), and the
        # saving process runs it on its first query anyway.
        first_diff = json.dumps(closure.first_differing(), sort_keys=True)
        nbytes = len(order_blob) + len(parents_blob) + len(first_diff)
        with self._lock:
            conn = self._connect()
            if conn is None:
                return
            try:
                with obs.span("store.save", kind="closure"):
                    conn.execute(
                        "INSERT OR IGNORE INTO closures "
                        "(system_hash, sources, constraint_key, kernel_path, "
                        " n_pairs, order_blob, parents_blob, first_diff, "
                        " nbytes, last_access) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            h,
                            _sources_key(closure.sources),
                            constraint_key,
                            closure.kernel_path,
                            len(closure),
                            order_blob,
                            parents_blob,
                            first_diff,
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
    ) -> tuple[str, array, array, dict | None] | None:
        """One row fetch instead of a BFS: ``(kernel_path, order,
        parents, first_diff)`` for ``(A, phi)`` under system ``h``, or
        ``None``.  A structurally corrupt row is deleted and counted
        (``store.corrupt``), then treated as a miss — the engine just
        recomputes.  ``first_diff`` is best-effort: a missing or
        malformed scan degrades to lazy recomputation, never to a miss."""
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
                        "parents_blob, first_diff FROM closures "
                        "WHERE system_hash=? AND sources=? AND constraint_key=?",
                        key,
                    ).fetchone()
                    if row is None:
                        self._miss(conn)
                        return None
                    kernel_path, n_pairs, order_blob, parents_blob, first_diff = row
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
        return (
            kernel_path,
            _decode_array("L", order_blob),
            _decode_array("q", parents_blob),
            _decode_first_diff(first_diff, n_pairs),
        )

    # -- bounding / stats -----------------------------------------------------

    def _payload_bytes(self, conn: sqlite3.Connection) -> int:
        return conn.execute(
            "SELECT COALESCE(SUM(nbytes), 0) FROM closures"
        ).fetchone()[0]

    def _enforce_budget(self, conn: sqlite3.Connection) -> None:
        """LRU-by-last-access eviction over the closure rows until the
        :class:`~repro.core.cache.ByteMeter` budget holds.  The
        ``systems`` table is exempt: one small row per distinct system,
        bounded by the number of systems, not by the query stream."""
        self.meter.set_used(self._payload_bytes(conn))
        obs.gauge_max("store.bytes", self.meter.used)
        while self.meter.over_budget():
            victim = conn.execute(
                "SELECT rowid, nbytes FROM closures "
                "ORDER BY last_access ASC LIMIT 1"
            ).fetchone()
            if victim is None:
                break
            rowid, nbytes = victim
            conn.execute("DELETE FROM closures WHERE rowid=?", (rowid,))
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
                for table in ("systems", "closures"):
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
