"""Atomic file replacement, shared by the record ledger and the
artifact cache."""

import os
import tempfile


def atomic_write(path, data, prefix=".tmp-"):
    """Write ``data`` (bytes or str) to ``path`` atomically.

    The temp file lives in the destination directory so the final
    ``os.replace`` never crosses a filesystem boundary: a reader sees
    the old file or the new one, never half of either.  On any failure
    the temp file is removed, the original is untouched and the error
    propagates.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=prefix, dir=directory)
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
