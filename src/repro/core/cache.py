"""Content-addressed analysis-artifact cache.

Two of the rewriter's analysis stages — CFG construction and
function-pointer analysis — are pure functions of ``(binary image,
arch, construction options)``, so the rewriter stores each stage's
whole result as one artifact under a stable digest of those inputs
(``cfg`` and ``funcptr``, looked up once per rewrite in
:meth:`repro.core.rewriter.IncrementalRewriter.rewrite`).  Rewriting a
byte-identical binary again — with another instrumentation payload or
mode, in a later ``repro batch --repeat`` round, or in a later process
sharing the directory — skips both stages; any change to the image
misses both.  Trampoline placement is not cached: it depends on the
mode and the relocated set, and it is cheap (about 3 ms on the
firefox-like app).

Three properties keep the cache honest:

* **Content addressing.**  Keys are SHA-256 digests of the key parts
  as canonical JSON (:func:`stable_digest`) — never of object
  identities or repr strings — so equal inputs collide exactly and
  unequal inputs never do.  Every key starts with a digest of the
  *whole* binary image: the analyses read data anywhere in it (jump
  tables in ``.rodata``, pointer slots under relocations).

* **Versioned keys.**  Each artifact kind carries a schema version
  (:data:`ARTIFACT_VERSIONS`) that is baked into the key and the
  entry's subdirectory, so changing an artifact's shape silently
  invalidates every stale entry — no unpickling of old-layout objects,
  ever.

* **Copy-on-hit.**  Values are stored pickled and every hit unpickles
  a fresh copy, so downstream mutation of a returned artifact (block
  splitting, failure injection) can never poison the cache.

The store is a directory, one file per entry.  Writes are atomic (temp
file + rename), so threads and processes sharing it race safely.  The
cache keeps no counters: the rewriter counts each lookup on the span
of the stage that made it.
"""

import glob
import hashlib
import json
import os
import pickle

from repro.util.files import atomic_write

#: Schema version per artifact kind; bump when an artifact's pickled
#: shape changes and every stale cache entry self-invalidates (the
#: version participates in the key and the on-disk subdirectory).
ARTIFACT_VERSIONS = {
    "cfg": 2,
    "funcptr": 2,
}

#: Sentinel returned by :meth:`ArtifactCache.get` when there is no
#: entry (``None`` is a legitimate cached value).
MISS = object()

#: Sentinel returned by :meth:`ArtifactCache.get` when an entry was
#: there but could not be read back (its file has been removed).
CORRUPT = object()


def stable_digest(parts):
    """Hex SHA-256 of ``parts`` as canonical JSON (sorted dict keys).

    Accepts None, bool, int, float, str and nested tuple/list/dict of
    those.  Unsupported types raise TypeError — silently falling back
    to ``repr`` would make keys depend on object identity.
    """
    text = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def image_digest(binary):
    """Digest of the whole binary image (the conservative key prefix)."""
    return hashlib.sha256(binary.to_bytes()).hexdigest()


class ArtifactCache:
    """A directory of pickled artifacts, one file per ``(kind, key)``
    under ``directory/<kind>-v<N>/``."""

    def __init__(self, directory):
        self.directory = directory

    def key(self, kind, parts):
        """The full content-addressed key: kind + schema version + parts."""
        version = ARTIFACT_VERSIONS.get(kind, 0)
        return f"{kind}-v{version}-{stable_digest(parts)}"

    def get(self, kind, key):
        """The cached ``(seconds, value)`` pair for ``key`` (a fresh
        unpickled copy), :data:`MISS` when there is none, or
        :data:`CORRUPT` when the entry does not unpickle — its file is
        then removed, since it would otherwise keep poisoning every
        process sharing the directory."""
        path = self._path(kind, key)
        try:
            with open(path, "rb") as f:
                payload = f.read()
        except OSError:
            return MISS
        try:
            return pickle.loads(payload)
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass   # gone already, or the directory is read-only
            return CORRUPT

    def put(self, kind, key, value, seconds=0.0):
        """Store ``value`` (with its original compute time) under
        ``key``; True when stored.  An unusable directory (read-only,
        full, or not a directory) stores nothing and raises nothing."""
        path = self._path(kind, key)
        payload = pickle.dumps((seconds, value),
                               protocol=pickle.HIGHEST_PROTOCOL)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write(path, payload)
        except OSError:
            return False
        return True

    def entry_paths(self):
        """Every entry's file, in sorted path order."""
        pattern = os.path.join(glob.escape(str(self.directory)),
                               "*-v*", "*.pkl")
        return sorted(glob.glob(pattern))

    def _path(self, kind, key):
        version = ARTIFACT_VERSIONS.get(kind, 0)
        return os.path.join(str(self.directory), f"{kind}-v{version}",
                            key + ".pkl")

    def __repr__(self):
        return f"<ArtifactCache {self.directory}>"
