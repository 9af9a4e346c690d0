"""Cross-process disk cache for compiled artifacts.

The bench runner memoizes :func:`~repro.simdize.driver.simdize` results
per process and the jit engine memoizes compiled kernels per process —
but ``measure_many`` fans work out over a ``ProcessPoolExecutor``, and
repeated CLI invocations are separate processes, so identical lowering
work is redone everywhere.  This module gives those memos a shared
disk tier: a content-addressed pickle store under ``~/.cache/repro``
(overridable with ``REPRO_CACHE_DIR`` or ``--cache-dir``).

Design rules:

* **Versioned keys.** Every key embeds the package version plus a
  per-artifact schema version (see :data:`CACHE_SCHEMA_VERSION` and the
  artifact modules), so entries written by older code are simply never
  hit — a stale code version means a recompute, not a wrong answer.
* **Silent misses.** Any I/O or unpickling failure — missing file,
  truncated write, corrupted or hostile bytes, unwritable directory —
  degrades to a cache miss.  The cache can only make runs faster,
  never make them fail.
* **Quarantined corruption.** An entry that fails to unpickle is
  renamed to ``*.corrupt`` (bounded count, oldest dropped) instead of
  being silently re-missed forever: the bad bytes stay available for
  diagnosis, the key's slot is freed so the next ``put`` repairs it,
  and ``stats()`` counts ``corrupt_quarantined``.
* **Unwritable degradation.** When writes keep failing (read-only
  directory, wrong owner, full disk), the disk tier turns itself off
  after :data:`WRITE_FAILURE_LIMIT` consecutive failures with a single
  recorded warning; reads keep working and the in-process memos carry
  on alone.  Nothing ever raises.
* **Atomic writes.** Entries are written to a temp file and renamed,
  so concurrent ``measure_many`` workers sharing one directory never
  observe half-written pickles.
* **Self-checking entries.** Each entry stores ``(key, value)`` and a
  ``get`` whose stored key differs (hash collision, foreign file) is a
  miss.
* **Bounded size.** The store holds at most ``max_bytes`` of entries
  (``REPRO_CACHE_MAX_BYTES``, default 1 GiB, ``0`` = unlimited).
  Every instance keeps a running size estimate, shared by all
  instances on one directory in a process: one scan seeds it, each
  write adds its bytes, and only a write that pushes it past the
  budget rescans the tree and evicts least-recently-*used* groups
  first — a ``get`` hit touches the file's mtime — so long sweep
  campaigns cannot grow the cache without limit, the hot working set
  survives, and a put costs no tree walk.  Writes by *other
  processes* reach the estimate only at that rescan, so a directory
  shared across processes can overshoot by what the others wrote
  since; the next crossing in any of them restores the budget.
* **Sibling artifacts.** A key may carry raw byte artifacts next to
  its pickle entry (``put_artifact`` / ``put_artifact_file`` /
  ``artifact_path``), or consist of artifacts alone.  Every file
  sharing one digest stem is one *group*: it counts toward the size
  budget, is touched and evicted as a unit, and quarantines to
  ``<name>.<suffix>.corrupt`` like any other corruption.  The native
  tier files compiled code this way, *content-addressed*: one
  artifact-only group per shared object, keyed by the object's
  sha256, holds the ``.so`` and the C source it was built from, and
  each kernel's small pickle entry names that digest.  The groups age
  and evict independently, so a reader must treat a missing referenced
  group as a miss (and touch it with :meth:`touch` when it uses it,
  so the two keep the same LRU order).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import threading
import warnings
from pathlib import Path

from repro import faults

#: Bump when the on-disk entry layout itself changes.
CACHE_SCHEMA_VERSION = 1

#: Most ``*.corrupt`` quarantine files kept around for diagnosis.
QUARANTINE_MAX = 32

#: Consecutive ``put`` failures before the disk tier disables itself.
WRITE_FAILURE_LIMIT = 3

#: Default size budget for the disk tier when neither the constructor
#: nor ``REPRO_CACHE_MAX_BYTES`` says otherwise.
DEFAULT_CACHE_MAX_BYTES = 1 << 30  # 1 GiB


def _env_max_bytes() -> int:
    """The size budget from ``REPRO_CACHE_MAX_BYTES`` (0 = unlimited)."""
    env = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if env is None:
        return DEFAULT_CACHE_MAX_BYTES
    try:
        value = int(env)
    except ValueError:
        return DEFAULT_CACHE_MAX_BYTES
    return max(0, value)


#: Running size estimates, one per cache directory in this process
#: (see :meth:`DiskCache._evict_if_needed`); absent until first scanned.
#: Server worker threads write concurrently, so updates take the lock.
_SIZE_ESTIMATES: dict[Path, int] = {}
_SIZE_LOCK = threading.Lock()


def _new_size_lock() -> None:
    # A fork taken while another thread held the lock must not leave
    # the child's copy locked forever.
    global _SIZE_LOCK
    _SIZE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_size_lock)


def _live(name: str) -> bool:
    """Is ``name`` a live entry file (not a temp or quarantined one)?"""
    return not name.endswith((".tmp", ".corrupt"))


class DiskCache:
    """A content-addressed pickle store with never-fail semantics."""

    def __init__(self, root: str | Path, max_bytes: int | None = None):
        self.root = Path(root)
        self.max_bytes = _env_max_bytes() if max_bytes is None else max_bytes
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0
        self.evictions = 0
        self.corrupt_quarantined = 0
        self.write_failures = 0
        self.disabled = False

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / digest[:2] / f"{digest}.pkl"

    def _siblings(self, path: Path) -> list[Path]:
        """Every live file sharing ``path``'s digest stem (path included).

        One ``scandir`` of the two-hex bucket: this runs on every
        ``get`` hit (LRU touch), so it must not compile a glob pattern
        or stat anything.
        """
        prefix = path.stem + "."
        try:
            with os.scandir(path.parent) as entries:
                return [path.parent / entry.name for entry in entries
                        if entry.name.startswith(prefix)
                        and _live(entry.name)]
        except OSError:
            return []

    def get(self, key: str):
        """The cached value for ``key``, or None (silently) on any miss."""
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        data = faults.mangle("cache", data)
        try:
            stored_key, value = pickle.loads(data)
            if stored_key != key:
                raise ValueError("key mismatch")
        except Exception:
            # Corrupted, truncated, or foreign entry: a miss, not a
            # crash — but quarantine the bytes so the slot frees up and
            # the corruption stays diagnosable instead of re-missing on
            # every lookup forever.
            self.errors += 1
            self.misses += 1
            self._quarantine(path)
            return None
        self._touch(path)
        self.hits += 1
        return value

    def touch(self, key: str) -> None:
        """Mark ``key``'s whole group as just used (LRU recency).

        For groups a reader uses without reading them through
        :meth:`get` or :meth:`artifact_path` — the native tier touches
        the shared-object group a kernel's entry names on every hit.
        """
        self._touch(self._path(key))

    def _touch(self, path: Path) -> None:
        # Touch for LRU recency: eviction takes oldest group mtime
        # first, and an entry's sibling artifacts age with it.
        for member in self._siblings(path):
            try:
                os.utime(member)
            except OSError:
                pass

    def _quarantine(self, path: Path) -> None:
        """Move a corrupted entry aside as ``*.corrupt`` (best-effort).

        The population of quarantine files is bounded: past
        :data:`QUARANTINE_MAX` the corrupted entry is simply unlinked,
        so a corruption storm cannot grow the directory without limit.
        Pickle entries keep the historical ``<digest>.corrupt`` name;
        non-pickle artifacts append (``<digest>.so.corrupt``) so the
        failing artifact kind stays visible.
        """
        try:
            kept = sum(1 for _ in self.root.glob("??/*.corrupt"))
            if kept >= QUARANTINE_MAX:
                path.unlink()
            elif path.suffix == ".pkl":
                path.rename(path.with_suffix(".corrupt"))
            else:
                path.rename(path.with_suffix(path.suffix + ".corrupt"))
            self.corrupt_quarantined += 1
        except OSError:
            pass

    def quarantine_artifacts(self, key: str) -> None:
        """Quarantine ``key``'s whole entry group after a load failure.

        Used when a *loaded* artifact turns out bad (a ``.so`` that
        fails checksum or ``dlopen``): the pickle metadata and every
        sibling move aside together, so the next ``put`` repairs the
        slot instead of re-serving the same broken object forever.
        """
        for member in self._siblings(self._path(key)):
            self._quarantine(member)

    def _write(self, path: Path, fill) -> None:
        """Atomically create ``path`` via ``fill(tmp_path)``; never raises.

        Writes a temp file in the bucket and renames it into place, so
        concurrent writers never expose a torn file.  Persistent write
        failure (read-only directory, full disk) degrades the whole
        disk tier to read-only after :data:`WRITE_FAILURE_LIMIT`
        consecutive misfires, with one recorded warning — in-process
        memos keep the run correct.  A success feeds the size estimate
        and enforces the budget.
        """
        if self.disabled:
            return
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            os.close(fd)
            fill(tmp)
            size = os.path.getsize(tmp)
            try:
                size -= os.path.getsize(path)   # replacing an old copy
            except OSError:
                pass
            os.replace(tmp, path)
            tmp = None
            self.puts += 1
            self.write_failures = 0
        except Exception:
            self.errors += 1
            self.write_failures += 1
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if self.write_failures >= WRITE_FAILURE_LIMIT:
                self.disabled = True
                warnings.warn(
                    f"repro disk cache at {self.root} is unwritable after "
                    f"{self.write_failures} attempts; continuing with "
                    f"in-process caching only",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return
        self._evict_if_needed(size)

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``; failures are silently dropped."""

        def fill(tmp):
            with open(tmp, "wb") as handle:
                pickle.dump((key, value), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)

        self._write(self._path(key), fill)

    # -- raw byte artifacts (native-tier .c / .so) -----------------------

    def put_artifact(self, key: str, suffix: str, data: bytes) -> None:
        """Store raw bytes as ``<digest>{suffix}`` in ``key``'s group.

        Same never-fail discipline as :meth:`put`: atomic tmp+rename,
        silent drops, the write-failure counter shared with pickles so
        a dead disk disables the whole tier, and the size budget
        enforced over the *group* (entry plus artifacts).
        """
        self._write(self._path(key).with_suffix(suffix),
                    lambda tmp: Path(tmp).write_bytes(data))

    def put_artifact_file(self, key: str, suffix: str, src: Path) -> None:
        """Store an existing file as ``key``'s ``suffix`` artifact.

        Copies ``src`` into place as a *distinct inode*.  The native
        pipeline files each freshly compiled shared object this way,
        out of the process's scratch directory.  A copy — never a
        hardlink — is deliberate: the source object is usually
        dlopen-mapped by the producing process, and a shared inode
        would let in-place corruption of a cache entry (tampering,
        partial writes) reach straight into live executable mappings.
        Same atomic tmp+rename and never-fail discipline as
        :meth:`put_artifact`.
        """
        self._write(self._path(key).with_suffix(suffix),
                    lambda tmp: shutil.copyfile(src, tmp))

    def artifact_path(self, key: str, suffix: str) -> Path | None:
        """The on-disk path of ``key``'s ``suffix`` artifact, or None.

        Touches the whole entry group on a hit, like :meth:`get`, so
        an artifact read keeps its pickle sibling warm too.
        """
        path = self._path(key).with_suffix(suffix)
        try:
            if not path.is_file():
                return None
        except OSError:
            return None
        self._touch(path)
        return path

    def _scan(self) -> tuple[int, dict[str, list]]:
        """(total live bytes, digest stem -> [newest mtime, size, paths])."""
        groups: dict[str, list] = {}
        total = 0
        with os.scandir(self.root) as buckets:
            bucket_paths = [entry.path for entry in buckets
                            if len(entry.name) == 2 and entry.is_dir()]
        for bucket in bucket_paths:
            try:
                with os.scandir(bucket) as entries:
                    files = [entry for entry in entries if _live(entry.name)]
            except OSError:
                continue
            for entry in files:
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                group = groups.setdefault(entry.name.split(".", 1)[0],
                                          [0.0, 0, []])
                group[0] = max(group[0], stat.st_mtime)
                group[1] += stat.st_size
                group[2].append(entry.path)
                total += stat.st_size
        return total, groups

    def _evict_if_needed(self, written: int = 0) -> None:
        """Drop least-recently-used entry *groups* until under ``max_bytes``.

        ``written`` is the net byte growth of the write that just
        landed.  It goes onto the directory's running size estimate;
        only when the estimate crosses the budget is the tree scanned
        again (which also re-seeds the estimate with the true size,
        other processes' writes included).  A group is every file
        sharing one digest stem — the pickle entry plus any sibling
        artifacts (``.c``/``.so``) — sized as a sum, aged by its most
        recent member, and unlinked as a unit, so no group is ever
        left half-evicted.  Best-effort and never-fail like everything
        else here: entries racing with concurrent workers may vanish
        mid-scan (fine — the goal was deletion), and any other error
        simply leaves the cache over budget until the next crossing.
        """
        with _SIZE_LOCK:
            estimate = _SIZE_ESTIMATES.get(self.root)
            if estimate is not None:
                estimate += written
                _SIZE_ESTIMATES[self.root] = estimate
        if not self.max_bytes or (estimate is not None
                                  and estimate <= self.max_bytes):
            return
        try:
            total, groups = self._scan()
            if total > self.max_bytes:
                for _, size, members in sorted(groups.values()):
                    removed = False
                    for path in members:
                        try:
                            os.unlink(path)
                            removed = True
                        except OSError:
                            continue
                    if not removed:
                        continue
                    self.evictions += 1
                    total -= size
                    if total <= self.max_bytes:
                        break
            _SIZE_ESTIMATES[self.root] = total
        except Exception:
            self.errors += 1
            _SIZE_ESTIMATES.pop(self.root, None)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "errors": self.errors,
                "evictions": self.evictions,
                "corrupt_quarantined": self.corrupt_quarantined,
                "write_failures": self.write_failures,
                "disabled": int(self.disabled)}


# ---------------------------------------------------------------------------
# Process-global cache selection
# ---------------------------------------------------------------------------

_UNSET = object()
_cache: DiskCache | None | object = _UNSET


def default_cache_dir() -> Path | None:
    """The directory ``get_cache`` uses when none was set explicitly.

    ``REPRO_CACHE_DIR`` overrides the default of ``~/.cache/repro``;
    setting it to an empty string disables disk caching entirely.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return Path(env) if env else None
    return Path.home() / ".cache" / "repro"


def get_cache() -> DiskCache | None:
    """The process-wide disk cache, or None when disk caching is off."""
    global _cache
    if _cache is _UNSET:
        root = default_cache_dir()
        _cache = DiskCache(root) if root is not None else None
    return _cache  # type: ignore[return-value]


def set_cache_dir(path: str | Path | None) -> None:
    """Point the process-wide cache at ``path`` (None disables it)."""
    global _cache
    _cache = DiskCache(path) if path is not None else None


def reset_cache_dir() -> None:
    """Forget any explicit choice; resolve the default again lazily."""
    global _cache
    _cache = _UNSET


def current_cache_dir() -> Path | None:
    """The directory the process-wide cache writes to (None when off)."""
    cache = get_cache()
    return cache.root if cache is not None else None
