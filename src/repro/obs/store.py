"""Persistence for the obs layer's durable records.

The rewrite-record ledger behind ``RECORDS.jsonl`` (one JSON object per
line, :class:`~repro.obs.receipt.RecordLedger`) stores through
:class:`JsonlStore`, which owes its callers three guarantees:

* **Atomic writes** (:func:`repro.util.atomic_write`): every persist
  goes through a temp file + ``os.replace``, so a crashed writer never
  leaves a half-written store behind.
* **Corrupt tolerance**: loading skips — and *counts*, never raises
  on — lines that are not JSON, so one bad row cannot take the whole
  store down.  Schema checking is the caller's business: the ledger
  skips and counts rows of a schema it does not speak the same way.
* **Foreign preservation**: appending re-emits every existing line
  verbatim, so the skip-on-load tolerance never turns into
  destroy-on-append.
"""

import json

from repro.util.files import atomic_write

__all__ = ["JsonlStore"]


class JsonlStore:
    """An append-only JSON-lines store: one record per line.

    ``load_raw`` returns every line that parses as JSON (unparseable
    lines are counted, not raised); ``append_raw`` re-emits the
    existing lines verbatim — including ones this reader cannot parse —
    plus the new record, through one atomic write.  Schema checking is
    the caller's business; this class only owns the line/file
    discipline.
    """

    def __init__(self, path):
        self.path = path

    def _read_lines(self):
        try:
            with open(self.path) as f:
                return [line for line in f.read().splitlines()
                        if line.strip()]
        except OSError:
            return []

    def load_raw(self):
        """``(objects, bad_lines)``: every JSON-parseable line, in file
        order, plus the count of lines that were not even JSON."""
        objects = []
        bad = 0
        for line in self._read_lines():
            try:
                objects.append(json.loads(line))
            except json.JSONDecodeError:
                bad += 1
        return objects, bad

    def append_raw(self, obj):
        """Append one JSON-ready record and atomically rewrite the
        file, preserving every existing line (corrupt ones included)
        byte-for-byte."""
        lines = self._read_lines()
        lines.append(json.dumps(obj, sort_keys=True))
        return atomic_write(self.path, "\n".join(lines) + "\n",
                            prefix=".records-")

    def __repr__(self):
        return f"<JsonlStore {self.path}>"
