"""Content-addressed analysis-artifact cache.

Per-function analysis results (CFG construction, function-pointer scans,
trampoline placement) are pure functions of their inputs, so they can be
stored under a stable digest of those inputs and reused across rewrites:
re-rewriting the same binary with a different instrumentation payload, or
re-running a batch over a corpus, skips every analysis whose inputs did
not change.

Three properties keep the cache honest:

* **Content addressing.**  Keys are SHA-256 digests of a canonical,
  type-tagged encoding of the key parts (:func:`stable_digest`) — never
  of object identities or repr strings — so equal inputs collide exactly
  and unequal inputs never do.  Every key's prefix includes a digest of
  the *whole* binary image: per-function analyses may read data far from
  the function body (jump tables in ``.rodata``, pointer slots under
  relocations), so the image digest conservatively over-approximates the
  true input set.

* **Versioned keys.**  Each artifact kind carries a schema version
  (:data:`ARTIFACT_VERSIONS`) that is baked into the digest, so changing
  an artifact's shape silently invalidates every stale entry — no
  unpickling of old-layout objects, ever.

* **Copy-on-hit.**  Values are stored *pickled* (both in memory and on
  disk) and every hit unpickles a fresh copy, so downstream mutation of
  a returned artifact (block splitting, failure injection) can never
  poison the cache.

The store is a bounded in-memory LRU with an optional on-disk directory
behind it (``directory=...``), making it shareable across processes and
sessions.  Disk writes are atomic (temp file + rename); unreadable or
corrupt disk entries are treated as misses.
"""

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict

#: Schema version per artifact kind; bump when an artifact's pickled
#: shape changes and every stale cache entry self-invalidates (the
#: version participates in the key digest and the on-disk subdirectory).
ARTIFACT_VERSIONS = {
    "cfg": 1,
    "funcptr-data": 1,
    "funcptr-fn": 1,
    "placement": 1,
}

#: Sentinel returned by :meth:`ArtifactCache.get` on a miss (``None`` is
#: a legitimate cached value).
MISS = object()


def stable_digest(parts):
    """Hex SHA-256 of a canonical encoding of ``parts``.

    Accepts None, bool, int, float, str, bytes and nested
    tuple/list/dict/set/frozenset of those.  Unsupported types raise
    TypeError — silently falling back to ``repr`` would make keys depend
    on object identity.
    """
    h = hashlib.sha256()
    _encode(parts, h.update)
    return h.hexdigest()


def _encode(obj, feed):
    if obj is None:
        feed(b"N;")
    elif obj is True:
        feed(b"B1;")
    elif obj is False:
        feed(b"B0;")
    elif isinstance(obj, int):
        body = str(obj).encode("ascii")
        feed(b"I%d:" % len(body))
        feed(body)
    elif isinstance(obj, float):
        body = repr(obj).encode("ascii")
        feed(b"F%d:" % len(body))
        feed(body)
    elif isinstance(obj, str):
        body = obj.encode("utf-8")
        feed(b"S%d:" % len(body))
        feed(body)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        body = bytes(obj)
        feed(b"Y%d:" % len(body))
        feed(body)
    elif isinstance(obj, (tuple, list)):
        feed(b"T(")
        for item in obj:
            _encode(item, feed)
        feed(b")")
    elif isinstance(obj, dict):
        feed(b"D(")
        for key in sorted(obj, key=lambda k: stable_digest(k)):
            _encode(key, feed)
            _encode(obj[key], feed)
        feed(b")")
    elif isinstance(obj, (set, frozenset)):
        feed(b"E(")
        for digest in sorted(stable_digest(item) for item in obj):
            feed(digest.encode("ascii"))
        feed(b")")
    else:
        raise TypeError(
            f"cannot canonically encode {type(obj).__name__!r} into a "
            f"cache key; pass primitives/containers only"
        )


def image_digest(binary):
    """Digest of the whole binary image (the conservative key prefix)."""
    return hashlib.sha256(binary.to_bytes()).hexdigest()


def function_bytes_digest(binary, entry, range_end):
    """Digest of a function's own byte range, or None when the extent is
    unknown (stripped binary) or unreadable."""
    if range_end is None or range_end <= entry:
        return None
    try:
        body = binary.read(entry, range_end - entry)
    except (KeyError, ValueError):
        return None
    return hashlib.sha256(bytes(body)).hexdigest()


class ArtifactCache:
    """Bounded LRU of pickled artifacts, optionally backed by a directory.

    Thread-safe: one cache instance is shared across every binary of a
    ``repro batch`` run, and callers may share it between threads.
    """

    def __init__(self, max_entries=4096, directory=None):
        self.max_entries = max_entries
        self.directory = directory
        self._mem = OrderedDict()    # full key -> pickled payload
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_hits = 0
        self.evictions = 0
        self.corrupt = 0

    # -- keys --------------------------------------------------------------

    def key(self, kind, parts):
        """The full content-addressed key: kind + schema version + parts."""
        version = ARTIFACT_VERSIONS.get(kind, 0)
        return f"{kind}-v{version}-{stable_digest(parts)}"

    # -- store/load --------------------------------------------------------

    def get(self, kind, key):
        """The cached ``(seconds, value)`` pair for ``key`` (a fresh
        unpickled copy), or :data:`MISS`."""
        from_disk = False
        with self._lock:
            payload = self._mem.get(key)
            if payload is not None:
                self._mem.move_to_end(key)
                self.hits += 1
        if payload is None:
            payload = self._disk_read(kind, key)
            if payload is None:
                with self._lock:
                    self.misses += 1
                return MISS
            from_disk = True
            with self._lock:
                self.hits += 1
                self.disk_hits += 1
                self._remember(key, payload)
        try:
            return pickle.loads(payload)
        except Exception:
            # Corrupt payload (e.g. truncated disk file): undo the
            # optimistic hit accounting, count the corruption, drop the
            # entry everywhere — including the bad ``.pkl``, which would
            # otherwise keep poisoning every process sharing the
            # directory — and miss so the artifact is recomputed and
            # overwritten.
            with self._lock:
                self._mem.pop(key, None)
                self.hits = max(0, self.hits - 1)
                if from_disk:
                    self.disk_hits = max(0, self.disk_hits - 1)
                self.misses += 1
                self.corrupt += 1
            self._disk_unlink(kind, key)
            return MISS

    def put(self, kind, key, value, seconds=0.0):
        """Store ``value`` (with its original compute time) under ``key``."""
        payload = pickle.dumps((seconds, value),
                               protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self.stores += 1
            self._remember(key, payload)
        self._disk_write(kind, key, payload)

    def _remember(self, key, payload):
        self._mem[key] = payload
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
            self.evictions += 1

    # -- disk backing ------------------------------------------------------

    def _disk_path(self, kind, key):
        version = ARTIFACT_VERSIONS.get(kind, 0)
        return os.path.join(str(self.directory), f"{kind}-v{version}",
                            key + ".pkl")

    def _disk_read(self, kind, key):
        if self.directory is None:
            return None
        try:
            with open(self._disk_path(kind, key), "rb") as f:
                return f.read()
        except OSError:
            return None

    def _disk_unlink(self, kind, key):
        """Remove a corrupt entry's backing file (quietly: the file may
        be gone already, or the directory read-only)."""
        if self.directory is None:
            return
        try:
            os.unlink(self._disk_path(kind, key))
        except OSError:
            pass

    def _disk_write(self, kind, key, payload):
        if self.directory is None:
            return
        path = self._disk_path(kind, key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            with os.fdopen(fd, "wb") as f:
                f.write(payload)
            os.replace(tmp, path)   # atomic: concurrent writers race safely
        except OSError:
            pass   # a read-only or full cache dir degrades to memory-only

    # -- introspection -----------------------------------------------------

    def __len__(self):
        with self._lock:
            return len(self._mem)

    def stats(self):
        """Lifetime counters (over every rewrite this cache served)."""
        with self._lock:
            return {
                "entries": len(self._mem),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
            }

    def __repr__(self):
        s = self.stats()
        return (f"<ArtifactCache {s['entries']} entries, "
                f"{s['hits']} hits / {s['misses']} misses>")
