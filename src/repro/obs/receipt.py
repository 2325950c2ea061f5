"""Rewrite records: one typed, content-addressed record per rewrite.

A :class:`RewriteRecord` is the single auditable record of one rewrite
— the answer to "what exactly produced this binary, at what cost, and
how much of it got rewritten?":

* input/output content digests and the resolved option set;
* the environment fingerprint, per-stage wall time, and cache
  accounting;
* the degradation ladder's verdict and the outcome (with a typed error
  when the rewrite failed);
* the report's trampoline and trap counts;
* for a successful rewrite, the atlas section: one row per function
  (CFG shape, byte coverage split into cfg/padding/unreached,
  indirect-target set size with a precision class, the ladder's
  verdict, trampoline count/bytes by kind, relocated blocks, analysis
  wall time) plus whole-binary rollups.  Figure 2's mode distribution
  and Table 2's space overhead are reproducible from this section
  alone.  A failed rewrite has no output, so its record carries no
  atlas section.

Records are assembled only where they are persisted:
:func:`record_rewrite` runs a rewriter, builds the record off the
finished ``rewrite`` span and the report, and appends it to a ledger.
The atlas section is assembled *during* that rewrite — the
:class:`AtlasBuilder` it hands the rewriter is fed by the pipeline
stages as they run, so nothing is re-analyzed.

Records are schema-versioned and content-addressed: ``record_id`` is the
SHA-256 of the canonical JSON body, and a ledger line whose stored id
does not match its content is refused as corrupt.  Two rewrites of the
same input with the same options are identical *modulo timings*:
:meth:`RewriteRecord.comparable_dict` strips the wall-clock and cache
fields (the only legitimate cold-vs-warm difference) and the machine's
fingerprint, and :func:`diff_records` compares those.  A coverage
regression — a function losing cfg bytes, falling down the ladder, or
disappearing — is flagged so ``repro record diff`` can gate on it.

The :class:`RecordLedger` persists records as JSON lines: atomic
writes, corrupt/foreign lines skipped-and-counted on load but preserved
on append.

The environment fingerprint (python, platform, cpu count, git sha) is
a plain dict stamped on every record, collected once per process by
:func:`session_fingerprint`; :func:`stamp_record` puts the same stamp
on the ``bench_*.py`` JSON rows.

Everything here speaks plain data and duck types its inputs — this
module never imports :mod:`repro.core`.
"""

import bisect
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

from repro.util.errors import ReproError
from repro.util.files import atomic_write

#: Schema tags; bump the version when a field changes meaning.
RECORD_SCHEMA = "RewriteRecord/v2"
BENCH_RECORD_SCHEMA = "BENCH_record/v1"

DEFAULT_LEDGER = "RECORDS.jsonl"

#: The degradation ladder's absolute rungs, mirrored as plain data so
#: this module stays core-free; ``test_record`` cross-checks the table
#: against :func:`repro.core.modes.ladder_rung`.
MODE_RUNGS = {"func-ptr": 0, "jt": 1, "dir": 2, "skip": 3}

#: ``repro record top --by`` orderings: flag value -> (row field, label).
TOP_ORDERINGS = {
    "trampoline-bytes": ("trampoline_bytes", "trampoline bytes"),
    "unreached": ("unreached_bytes", "unreached bytes"),
    "analysis-seconds": ("analysis_seconds", "analysis seconds"),
    "indirect-targets": ("indirect_targets", "indirect targets"),
}

__all__ = [
    "RECORD_SCHEMA",
    "DEFAULT_LEDGER",
    "MODE_RUNGS",
    "TOP_ORDERINGS",
    "BENCH_RECORD_SCHEMA",
    "collect_fingerprint",
    "session_fingerprint",
    "stamp_record",
    "AtlasBuilder",
    "RewriteRecord",
    "record_rewrite",
    "RecordLedger",
    "content_digest",
    "diff_records",
    "render_record",
    "render_record_list",
    "render_record_top",
    "render_record_diff",
]


# -- environment fingerprint ------------------------------------------------


def collect_fingerprint():
    """Where a record comes from, as a plain dict: the interpreter,
    platform and cpu count, plus the git sha when the working tree has
    one (the key is omitted otherwise)."""
    out = {"python": "%d.%d.%d" % sys.version_info[:3],
           "platform": f"{platform.system()}-{platform.machine()}",
           "cpus": os.cpu_count() or 1}
    sha = _git_sha()
    if sha:
        out["git_sha"] = sha
    return out


def _git_sha():
    """Short HEAD sha of the working tree, or None outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def stamp_record(record, fingerprint=None):
    """Stamp one benchmark JSON row with schema + fingerprint.

    The shared helper behind every ``bench_*.py`` machine-readable
    record (``benchmarks/conftest.py`` routes all of them through here),
    so BENCH_*.json rows are self-describing and attributable.
    """
    if fingerprint is None:
        fingerprint = session_fingerprint()
    stamped = {"schema": BENCH_RECORD_SCHEMA,
               "fingerprint": dict(fingerprint)}
    stamped.update(record)
    return stamped


_SESSION_FINGERPRINT = None


def session_fingerprint():
    """The process-wide fingerprint dict, collected once.

    :func:`collect_fingerprint` shells out for the git sha — a few
    milliseconds, which would dominate record assembly if paid per
    rewrite.  The environment cannot change under a running process,
    so every record shares one collection.
    """
    global _SESSION_FINGERPRINT
    if _SESSION_FINGERPRINT is None:
        _SESSION_FINGERPRINT = collect_fingerprint()
    return _SESSION_FINGERPRINT


def content_digest(obj):
    """SHA-256 hex digest of anything with ``to_bytes()`` (or raw
    bytes); None for None — the input/output identity of a record."""
    if obj is None:
        return None
    data = obj.to_bytes() if hasattr(obj, "to_bytes") else bytes(obj)
    return hashlib.sha256(data).hexdigest()


def _cache_section(span):
    """The record's cache accounting: the ``cache.*`` counters summed
    over the rewrite span's subtree (zeros under a null span)."""
    totals = span.total_counters() if hasattr(span, "total_counters") \
        else {}
    section = {
        "hits": totals.get("cache.hits", 0),
        "misses": totals.get("cache.misses", 0),
        "stores": totals.get("cache.stores", 0),
        "saved_seconds": totals.get("cache.seconds_saved", 0.0),
    }
    by_kind = {}
    for name, value in totals.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "cache" \
                and parts[2] in ("hits", "misses"):
            by_kind.setdefault(parts[1], {})[parts[2]] = value
    if by_kind:
        section["by_kind"] = by_kind
    return section


def _stage_section(span):
    """Per-stage wall time off the rewrite span's children."""
    return {child.name: {"seconds": child.duration}
            for child in getattr(span, "children", ()) or ()}


# -- the atlas section -------------------------------------------------------


class AtlasBuilder:
    """Accumulates one record's atlas section as the pipeline stages run.

    The rewriter calls one ``observe_*`` method per stage with the data
    that stage already computed — the builder only *accounts*, it never
    re-analyzes.  ``finish`` seals the rows and computes the rollups.
    """

    def __init__(self):
        self.mode = None
        self._rows = {}          # function name -> row dict
        self._entries = []       # sorted entry addrs (address -> row)
        self._by_entry = {}      # entry addr -> row dict
        self._failed = {}        # function name -> failure reason
        self._text_range = None

    # -- per-stage feeds -----------------------------------------------------

    def observe_cfg(self, cfg, mode, text_range=None):
        """cfg-construction: one row per non-runtime-support function —
        CFG shape (blocks/edges), body extent, cfg byte coverage, the
        jump-table-resolved indirect target set, and the construction's
        wall seconds (``cfg.seconds``, as first computed when the CFG
        came from a cache)."""
        self.mode = str(mode)
        self._text_range = list(text_range) if text_range else None
        for fcfg in cfg.sorted_functions():
            if fcfg.is_runtime_support:
                continue
            low = fcfg.low
            high = fcfg.high
            cfg_bytes = sum(b.size for b in fcfg.blocks.values())
            targets = {t for table in fcfg.jump_tables
                       for t in table.targets}
            row = {
                "function": fcfg.name,
                "entry": fcfg.entry,
                "body_bytes": max(0, high - low),
                "blocks": len(fcfg.blocks),
                "edges": sum(len(b.succs) for b in fcfg.blocks.values()),
                "cfg_bytes": cfg_bytes,
                "padding_bytes": 0,
                "unreached_bytes": max(0, (high - low) - cfg_bytes),
                "indirect_targets": len(targets),
                "precision": "precise",
                "mode": self.mode,
                "rung": MODE_RUNGS.get(self.mode, 0),
                "reason": "",
                "trampolines": {},
                "trampoline_bytes": 0,
                "relocated_blocks": 0,
                "analysis_seconds": cfg.seconds.get(fcfg.entry, 0.0),
            }
            self._rows[fcfg.name] = row
            self._by_entry[fcfg.entry] = row
            if fcfg.failed:
                self._failed[fcfg.name] = str(fcfg.failed)
        self._entries = sorted(self._by_entry)

    def observe_funcptrs(self, funcptrs):
        """funcptr-analysis: per-function precision class, the pointer
        definitions that target each function's entry (they join the
        jump-table targets in the indirect-target count), and the code
        scan's wall seconds (added to ``analysis_seconds``)."""
        targeting = {}
        for attr in ("data_defs", "code_defs"):
            for d in getattr(funcptrs, attr, ()) or ():
                targeting.setdefault(d.target, set()).add(
                    getattr(d, "slot", None) or ("code", d.target))
        for row in self._rows.values():
            row["precision"] = funcptrs.precision_class(row["function"])
            row["indirect_targets"] += len(
                targeting.get(row["entry"], ()))
            row["analysis_seconds"] += funcptrs.seconds.get(
                row["function"], 0.0)

    def observe_plan(self, degradation, candidate_entries):
        """degradation-planning: the ladder's verdict per function.

        Failed functions and functions the instrumentation did not
        select land on ``skip`` with their reason; degraded functions
        get the ladder's final mode/rung/reason; everything else keeps
        the requested mode (already stamped by ``observe_cfg``)."""
        candidates = set(candidate_entries)
        for row in self._rows.values():
            name = row["function"]
            if name in self._failed:
                self._set_mode(row, "skip", self._failed[name])
            elif row["entry"] not in candidates:
                self._set_mode(row, "skip",
                               "not selected for instrumentation")
        for rec in getattr(degradation, "entries", ()) or ():
            row = self._rows.get(rec.function)
            if row is not None:
                self._set_mode(row, str(rec.final), rec.reason)

    @staticmethod
    def _set_mode(row, mode, reason):
        row["mode"] = mode
        row["rung"] = MODE_RUNGS.get(mode, len(MODE_RUNGS) - 1)
        row["reason"] = reason

    def observe_padding(self, pad_ranges):
        """trampoline-installation: verified inter-function nop runs,
        each attributed to the function whose body precedes it."""
        for start, end in pad_ranges:
            row = self._row_at(start)
            if row is not None:
                row["padding_bytes"] += max(0, end - start)

    def observe_relocation(self, block_labels):
        """relocation: how many of each function's blocks got relocated
        (the per-function relocation count)."""
        for addr in block_labels:
            row = self._row_at(addr)
            if row is not None:
                row["relocated_blocks"] += 1

    def observe_trampolines(self, records):
        """trampoline-installation: count and byte cost per function,
        split by trampoline kind."""
        for rec in records:
            row = self._rows.get(rec.function)
            if row is None:
                continue
            nbytes = sum(n for _, n in rec.written)
            kind = row["trampolines"].setdefault(
                rec.kind, {"count": 0, "bytes": 0})
            kind["count"] += 1
            kind["bytes"] += nbytes
            row["trampoline_bytes"] += nbytes

    def _row_at(self, addr):
        """The row owning ``addr``: the nearest function entry at or
        below it (padding and block addresses always trail an entry)."""
        idx = bisect.bisect_right(self._entries, addr) - 1
        if idx < 0:
            return None
        return self._by_entry[self._entries[idx]]

    # -- sealing -------------------------------------------------------------

    def finish(self):
        """Seal the rows and compute the rollups: ``(rows, rollup)``."""
        rows = [self._by_entry[e] for e in self._entries]
        return rows, _rollup(rows, self._text_range)


def _rollup(rows, text_range):
    """Whole-binary aggregates over the sealed rows."""
    text_bytes = 0
    if text_range and len(text_range) == 2:
        text_bytes = max(0, text_range[1] - text_range[0])
    cfg_bytes = sum(r["cfg_bytes"] for r in rows)
    padding = sum(r["padding_bytes"] for r in rows)
    unreached = sum(r["unreached_bytes"] for r in rows)
    modes = {}
    precision = {}
    trampolines = {}
    tramp_bytes = 0
    for r in rows:
        modes[r["mode"]] = modes.get(r["mode"], 0) + 1
        precision[r["precision"]] = precision.get(r["precision"], 0) + 1
        for kind, entry in r["trampolines"].items():
            agg = trampolines.setdefault(kind, {"count": 0, "bytes": 0})
            agg["count"] += entry["count"]
            agg["bytes"] += entry["bytes"]
        tramp_bytes += r["trampoline_bytes"]
    denom = text_bytes or (cfg_bytes + padding + unreached) or 1
    return {
        "functions": len(rows),
        "text_bytes": text_bytes,
        "cfg_bytes": cfg_bytes,
        "padding_bytes": padding,
        "unreached_bytes": unreached,
        "cfg_fraction": cfg_bytes / denom,
        "padding_fraction": padding / denom,
        "unreached_fraction": unreached / denom,
        "mode_distribution": modes,
        "precision_histogram": precision,
        "trampolines": trampolines,
        "trampoline_bytes": tramp_bytes,
        "trampoline_overhead": tramp_bytes / denom,
        "relocated_blocks": sum(r["relocated_blocks"] for r in rows),
        "analysis_seconds": sum(r["analysis_seconds"] for r in rows),
    }


# -- the record --------------------------------------------------------------

#: Body fields that vary between two runs of the same rewrite (wall
#: clock, cache warmth) or name the machine rather than the rewrite;
#: :meth:`RewriteRecord.comparable_dict` drops them.
_RUN_FIELDS = ("unix_time", "total_seconds", "stages", "cache",
               "fingerprint")


class RewriteRecord:
    """One rewrite's typed record (see module docstring)."""

    __slots__ = ("workload", "arch", "mode", "input_digest",
                 "output_digest", "options", "fingerprint",
                 "total_seconds", "stages", "cache",
                 "trampolines", "traps", "degradation",
                 "outcome", "error", "functions", "rollup", "unix_time")

    def __init__(self, workload, arch, mode, input_digest,
                 output_digest=None, options=None, fingerprint=None,
                 total_seconds=0.0, stages=None, cache=None,
                 trampolines=None, traps=0, degradation=None,
                 outcome="ok", error=None, functions=(), rollup=None,
                 unix_time=None):
        self.workload = workload
        self.arch = arch
        self.mode = mode
        self.input_digest = input_digest
        #: None when the rewrite failed before producing output
        self.output_digest = output_digest
        #: the resolved option set (mode/cache/degrade/...)
        self.options = dict(options or {})
        #: python/platform/cpus/git_sha? (:func:`collect_fingerprint`)
        self.fingerprint = dict(fingerprint or session_fingerprint())
        self.total_seconds = total_seconds
        #: stage name -> {"seconds": ...}
        self.stages = dict(stages or {})
        self.cache = dict(cache or {})
        #: the report's trampoline counts by kind and installed traps
        self.trampolines = dict(trampolines or {})
        self.traps = traps
        #: DegradationReport.as_dict() payload, or None
        self.degradation = degradation
        #: "ok" or "failed"
        self.outcome = outcome
        #: {"type": ..., "message": ...} when the rewrite failed
        self.error = dict(error) if error else None
        #: atlas section: row dicts sorted by function entry address,
        #: and their whole-binary rollup; empty for a failed rewrite
        self.functions = list(functions)
        self.rollup = dict(rollup or {})
        self.unix_time = time.time() if unix_time is None else unix_time

    @classmethod
    def from_rewrite(cls, binary, rewritten, report, span,
                     total_seconds, workload=None, options=None,
                     error=None, atlas=None):
        """Assemble a record off one observed rewrite.

        Duck-typed: ``binary``/``rewritten`` need ``to_bytes()`` (and
        the input's ``arch_name``), ``report`` a
        :class:`~repro.core.rewriter.RewriteReport` shape (may be None
        on failure), ``span`` the finished ``rewrite`` trace span (None
        when untraced), whose subtree holds the stage timings and cache
        counters of just this rewrite, ``atlas`` the
        :class:`AtlasBuilder` that rode along the rewrite (read only
        when it succeeded).
        """
        mode = getattr(report, "mode", None) \
            or (options or {}).get("mode", "?")
        degradation = None
        deg = getattr(report, "degradation", None)
        if deg is not None and len(deg):
            degradation = deg.as_dict()
        err = None
        if error is not None:
            err = {"type": type(error).__name__, "message": str(error)}
        functions, rollup = atlas.finish() if error is None \
            else ((), None)
        return cls(
            workload=workload,
            arch=getattr(binary, "arch_name", "?"),
            mode=str(mode),
            input_digest=content_digest(binary),
            output_digest=content_digest(rewritten),
            options=options,
            total_seconds=total_seconds,
            stages=_stage_section(span),
            cache=_cache_section(span),
            trampolines=getattr(report, "trampolines", None),
            traps=getattr(report, "traps", 0),
            degradation=degradation,
            outcome="ok" if error is None else "failed",
            error=err,
            functions=functions,
            rollup=rollup,
        )

    # -- identity ------------------------------------------------------------

    def body_dict(self):
        """The id-covered payload: everything but the id itself."""
        out = {
            "schema": RECORD_SCHEMA,
            "workload": self.workload,
            "arch": self.arch,
            "mode": self.mode,
            "input_digest": self.input_digest,
            "options": dict(self.options),
            "fingerprint": dict(self.fingerprint),
            "total_seconds": self.total_seconds,
            "stages": dict(self.stages),
            "cache": dict(self.cache),
            "trampolines": dict(self.trampolines),
            "traps": self.traps,
            "outcome": self.outcome,
            "unix_time": self.unix_time,
        }
        if self.output_digest is not None:
            out["output_digest"] = self.output_digest
        if self.degradation is not None:
            out["degradation"] = self.degradation
        if self.error is not None:
            out["error"] = dict(self.error)
        if self.outcome == "ok":
            out["functions"] = [dict(r) for r in self.functions]
            out["rollup"] = dict(self.rollup)
        return out

    @property
    def record_id(self):
        """Content address: SHA-256 of the canonical JSON body."""
        canonical = json.dumps(self.body_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def short_id(self):
        return self.record_id[:12]

    def comparable_dict(self):
        """The body with every run-dependent field stripped: wall-clock
        and cache accounting, the fingerprint, and in the atlas section
        per-row and rollup ``analysis_seconds``.  Two rewrites of the
        same input under the same options must agree on this."""
        body = self.body_dict()
        for key in _RUN_FIELDS:
            body.pop(key, None)
        for row in body.get("functions", ()):
            row.pop("analysis_seconds", None)
        if "rollup" in body:
            body["rollup"].pop("analysis_seconds", None)
        return body

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        out = self.body_dict()
        out["record_id"] = self.record_id
        return out

    @classmethod
    def from_dict(cls, data):
        """Parse one ledger entry; raises ValueError on corrupt or
        foreign input: not an object, another schema (older record
        versions included), a missing field, or a stored ``record_id``
        that its content no longer hashes to."""
        if not isinstance(data, dict):
            raise ValueError(
                f"not a record object: {type(data).__name__}")
        schema = data.get("schema")
        if schema != RECORD_SCHEMA:
            raise ValueError(f"foreign schema {schema!r}")
        ok = data.get("outcome") == "ok"
        try:
            record = cls(
                workload=data["workload"],
                arch=data["arch"],
                mode=data["mode"],
                input_digest=data["input_digest"],
                output_digest=data.get("output_digest"),
                options=data["options"],
                fingerprint=data["fingerprint"],
                total_seconds=data["total_seconds"],
                stages=data["stages"],
                cache=data["cache"],
                trampolines=data["trampolines"],
                traps=data["traps"],
                degradation=data.get("degradation"),
                outcome=data["outcome"],
                error=data.get("error"),
                functions=data["functions"] if ok else (),
                rollup=data["rollup"] if ok else None,
                unix_time=data["unix_time"],
            )
            stored = data["record_id"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"corrupt record: missing or malformed "
                             f"{exc}")
        if record.record_id != stored:
            raise ValueError(f"record {str(stored)[:12]} does not match "
                             f"its content")
        return record

    def __repr__(self):
        return (f"<RewriteRecord {self.short_id} "
                f"{self.workload or '?'}/{self.arch}/{self.mode} "
                f"{self.outcome} {len(self.functions)} function(s)>")


def record_rewrite(rewriter, binary, sink, workload=None):
    """Run ``rewriter.rewrite(binary)`` and append its record to ``sink``.

    The one place a record is assembled.  Duck-typed: ``rewriter``
    needs ``rewrite(binary, atlas=...)``, ``resolved_options()`` and a
    ``tracer`` (under a null tracer the record's stage and cache
    sections stay empty), ``sink`` an ``append(record)`` such as a
    :class:`RecordLedger` or a list.  The rewrite is handed an
    :class:`AtlasBuilder`, whose section a successful rewrite's record
    carries.  A failed rewrite (:class:`ReproError`) appends a
    ``failed`` record before the error propagates.  Returns what
    ``rewrite`` returns, ``(rewritten, report)``.
    """
    builder = AtlasBuilder()
    parent = getattr(rewriter.tracer, "current", None)
    rewritten = report = error = None
    t0 = time.perf_counter()
    try:
        rewritten, report = rewriter.rewrite(binary, atlas=builder)
    except ReproError as exc:
        error = exc
    total_seconds = time.perf_counter() - t0
    # The rewrite's own span is the newest child of the span that was
    # open when it started.
    span = parent.children[-1] if parent is not None else None
    sink.append(RewriteRecord.from_rewrite(
        binary, rewritten, report, span, total_seconds,
        workload=workload,
        options=rewriter.resolved_options(),
        error=error,
        atlas=builder,
    ))
    if error is not None:
        raise error
    return rewritten, report


# -- the ledger --------------------------------------------------------------


class RecordLedger:
    """Append-only record store behind ``RECORDS.jsonl``: one JSON
    object per line.

    Loading skips — and counts on :attr:`skipped` — every line that is
    not JSON, speaks another schema (the ``RewriteFleet/v1`` batch
    summaries and ``RewriteRecord/v1`` records older ledgers carry) or
    no longer hashes to its stored id.  Appending is one atomic write
    (:func:`repro.util.atomic_write`) that re-emits every existing line
    verbatim, so the skip-on-load tolerance never turns into
    destroy-on-append.
    """

    def __init__(self, path=DEFAULT_LEDGER):
        self.path = path
        #: corrupt/foreign lines seen by the most recent load()
        self.skipped = 0

    def _lines(self):
        try:
            with open(self.path) as f:
                return [line for line in f.read().splitlines()
                        if line.strip()]
        except OSError:
            return []

    def load(self):
        """Every valid :class:`RewriteRecord`, oldest first."""
        records = []
        self.skipped = 0
        for line in self._lines():
            try:
                records.append(RewriteRecord.from_dict(json.loads(line)))
            except ValueError:   # json.JSONDecodeError included
                self.skipped += 1
        return records

    def append(self, record):
        """Append one record; atomic, existing lines preserved."""
        lines = self._lines()
        lines.append(json.dumps(record.to_dict(), sort_keys=True))
        return atomic_write(self.path, "\n".join(lines) + "\n",
                            prefix=".records-")

    def find(self, id_prefix):
        """The unique record whose id starts with ``id_prefix``; the
        literal id ``latest`` resolves to the newest ledger entry.

        Raises :class:`LookupError` when none or several match — a
        truncated id is only an address while it is unambiguous.
        """
        records = self.load()
        if id_prefix == "latest":
            if not records:
                raise LookupError("record ledger is empty; no latest")
            return records[-1]
        matches = [r for r in records
                   if r.record_id.startswith(id_prefix)]
        if not matches:
            raise LookupError(f"no record matches {id_prefix!r}")
        if len(matches) > 1:
            raise LookupError(
                f"{id_prefix!r} is ambiguous: {len(matches)} records "
                f"match")
        return matches[0]

    def __repr__(self):
        return f"<RecordLedger {self.path}>"


# -- diffing -----------------------------------------------------------------

#: Per-function fields the atlas diff compares (timings excluded).
_ROW_DIFF_FIELDS = ("cfg_bytes", "padding_bytes", "unreached_bytes",
                    "mode", "rung", "precision", "indirect_targets",
                    "trampoline_bytes", "relocated_blocks")


def diff_records(a, b):
    """A structured comparison of two records (a -> b).

    The reproducibility question first — same input? same options?
    same output? identical modulo timings? — then the explanatory
    deltas: per-stage wall time, cache accounting, degradation shape,
    and the atlas sections' per-function and rollup deltas.
    ``coverage_regressed`` is True when b soundly covers less than a: a
    function disappeared (every function does when b failed), lost cfg
    bytes, or fell down the ladder (a larger rung).  Extra trampoline
    bytes are reported but are *overhead*, not a coverage regression.
    """
    stage_deltas = {}
    for name in sorted(set(a.stages) | set(b.stages)):
        sa = a.stages.get(name, {}).get("seconds")
        sb = b.stages.get(name, {}).get("seconds")
        entry = {"a": sa, "b": sb}
        if sa is not None and sb is not None:
            entry["delta"] = sb - sa
        stage_deltas[name] = entry
    cache_deltas = {}
    for key in ("hits", "misses", "stores", "saved_seconds"):
        va = a.cache.get(key, 0)
        vb = b.cache.get(key, 0)
        if va or vb:
            cache_deltas[key] = {"a": va, "b": vb, "delta": vb - va}
    deg_a = len((a.degradation or {}).get("entries", ()))
    deg_b = len((b.degradation or {}).get("entries", ()))
    both_outputs = (a.output_digest is not None
                    and b.output_digest is not None)
    diff = {
        "a": a.record_id,
        "b": b.record_id,
        "same_input": a.input_digest == b.input_digest,
        "same_options": a.options == b.options,
        #: None when either side failed before producing output
        "same_output": (a.output_digest == b.output_digest
                        if both_outputs else None),
        "identical": a.comparable_dict() == b.comparable_dict(),
        "total_seconds": {"a": a.total_seconds, "b": b.total_seconds,
                          "delta": b.total_seconds - a.total_seconds},
        "stage_deltas": stage_deltas,
        "cache_deltas": cache_deltas,
        "degradation": {"a": deg_a, "b": deg_b, "delta": deg_b - deg_a},
    }
    diff.update(_diff_atlas(a, b))
    return diff


def _diff_atlas(a, b):
    """The atlas-section half of :func:`diff_records` (a failed
    record's section is empty: no rows, no rollup)."""
    rows_a = {r["function"]: r for r in a.functions}
    rows_b = {r["function"]: r for r in b.functions}
    function_deltas = {}
    regressions = []
    for name in sorted(set(rows_a) | set(rows_b)):
        ra, rb = rows_a.get(name), rows_b.get(name)
        if ra is None or rb is None:
            function_deltas[name] = {"only_in": "a" if rb is None
                                     else "b"}
            if rb is None:
                regressions.append(f"{name}: present in a, lost in b")
            continue
        changed = {}
        for field in _ROW_DIFF_FIELDS:
            if ra[field] != rb[field]:
                changed[field] = {"a": ra[field], "b": rb[field]}
        if changed:
            function_deltas[name] = changed
        if rb["cfg_bytes"] < ra["cfg_bytes"]:
            regressions.append(
                f"{name}: cfg coverage {ra['cfg_bytes']} -> "
                f"{rb['cfg_bytes']} bytes")
        if rb["rung"] > ra["rung"]:
            regressions.append(
                f"{name}: mode {ra['mode']} -> {rb['mode']} "
                f"(down the ladder)")
    rollup_deltas = {}
    for key in sorted(set(a.rollup) & set(b.rollup)):
        va, vb = a.rollup.get(key), b.rollup.get(key)
        if key == "analysis_seconds" or va == vb:
            continue
        rollup_deltas[key] = {"a": va, "b": vb}
    return {
        "function_deltas": function_deltas,
        "rollup_deltas": rollup_deltas,
        "regressions": regressions,
        "coverage_regressed": bool(regressions),
    }


# -- rendering ---------------------------------------------------------------


def _short(digest, n=12):
    return digest[:n] if digest else "-"


def _row_line(r):
    tramp = ",".join(f"{k}:{v['count']}"
                     for k, v in sorted(r["trampolines"].items()))
    return (f"  {r['function']:<20} {r['mode']:<8} "
            f"{r['precision']:<18} {r['blocks']:>4} {r['cfg_bytes']:>7} "
            f"{r['padding_bytes']:>4} {r['unreached_bytes']:>6} "
            f"{r['indirect_targets']:>4} {r['trampoline_bytes']:>6} "
            f"{tramp or '-'}")


_ROW_HEADER = (f"  {'function':<20} {'mode':<8} {'precision':<18} "
               f"{'blks':>4} {'cfg':>7} {'pad':>4} {'unrch':>6} "
               f"{'ind':>4} {'tramp':>6} kinds")


def _atlas_lines(r, limit):
    """The atlas section of :func:`render_record`: rollups, then rows
    (all of them unless ``limit`` truncates)."""
    roll = r.rollup
    lines = [
        f"  functions: {roll.get('functions', len(r.functions))}",
        f"  coverage:  cfg {roll.get('cfg_fraction', 0):.1%} / "
        f"padding {roll.get('padding_fraction', 0):.1%} / "
        f"unreached {roll.get('unreached_fraction', 0):.1%} "
        f"of {roll.get('text_bytes', 0):,} text byte(s)",
        f"  modes:     " + (" ".join(
            f"{m}={n}" for m, n in
            sorted(roll.get("mode_distribution", {}).items())) or "-"),
        f"  precision: " + (" ".join(
            f"{p}={n}" for p, n in
            sorted(roll.get("precision_histogram", {}).items())) or "-"),
        f"  overhead:  {roll.get('trampoline_bytes', 0):,} trampoline "
        f"byte(s) ({roll.get('trampoline_overhead', 0):.2%} of text), "
        f"{roll.get('relocated_blocks', 0)} relocated block(s)",
        f"  analysis:  {roll.get('analysis_seconds', 0) * 1e3:.1f}ms "
        f"attributed",
    ]
    rows = r.functions[:limit] if limit else r.functions
    if rows:
        lines.append(_ROW_HEADER)
        lines.extend(_row_line(row) for row in rows)
    if limit and len(r.functions) > limit:
        lines.append(f"  ... {len(r.functions) - limit} more row(s)")
    return lines


def render_record(record, limit=0):
    """The ``repro record show`` body: one record, human-readable;
    ``limit`` caps the atlas rows printed (0 = all)."""
    r = record
    lines = [
        f"record {r.short_id}  [{r.outcome}]",
        f"  workload:  {r.workload or '-'}",
        f"  arch/mode: {r.arch}/{r.mode}",
        f"  input:     {_short(r.input_digest, 16)}",
        f"  output:    {_short(r.output_digest, 16)}",
    ]
    if r.options:
        opts = " ".join(f"{k}={r.options[k]}" for k in sorted(r.options))
        lines.append(f"  options:   {opts}")
    fp = r.fingerprint
    lines.append(f"  env:       py{fp.get('python', '?')} "
                 f"{fp.get('platform', '?')} x{fp.get('cpus', '?')}"
                 + (f" @{fp['git_sha']}" if fp.get("git_sha") else ""))
    lines.append(f"  total:     {r.total_seconds * 1e3:.1f}ms")
    if r.stages:
        lines.append("  stages:")
        for name, entry in r.stages.items():
            lines.append(
                f"    {name:<24} {entry.get('seconds', 0) * 1e3:>8.2f}ms")
    if r.cache:
        c = r.cache
        lines.append(
            f"  cache:     {c.get('hits', 0)} hit(s) / "
            f"{c.get('misses', 0)} miss(es), "
            f"{c.get('stores', 0)} store(s), "
            f"saved {c.get('saved_seconds', 0) * 1e3:.1f}ms")
    if r.trampolines or r.traps:
        lines.append("  tramps:    " + " ".join(
            f"{k}={v}" for k, v in sorted(r.trampolines.items()) if v)
            + f" traps={r.traps}")
    if r.degradation:
        entries = r.degradation.get("entries", ())
        lines.append(f"  degraded:  {len(entries)} function(s)")
        for entry in entries:
            lines.append(f"    {entry.get('function', '?')}: "
                         f"{entry.get('requested', '?')} -> "
                         f"{entry.get('final', '?')}")
    if r.error:
        lines.append(f"  error:     {r.error.get('type', '?')}: "
                     f"{r.error.get('message', '')}")
    if r.outcome == "ok":
        lines.extend(_atlas_lines(r, limit))
    return "\n".join(lines)


def render_record_list(records, skipped=0):
    """The ``repro record list`` table."""
    if not records:
        return "(empty ledger)"
    lines = [f"{len(records)} record(s)"
             + (f", {skipped} skipped line(s)" if skipped else ""),
             f"  {'id':<12}  {'workload':<16} "
             f"{'arch/mode':<12} {'outcome':<7} "
             f"{'total':>9}  {'cache h/m':>9}  {'cfg%':>6}  "
             f"{'output':<12}"]
    for r in records:
        cfg = f"{r.rollup.get('cfg_fraction', 0):>6.1%}"
        lines.append(
            f"  {r.short_id:<12}  {(r.workload or '-'):<16} "
            f"{r.arch + '/' + r.mode:<12} {r.outcome:<7} "
            f"{r.total_seconds * 1e3:>7.1f}ms  "
            f"{r.cache.get('hits', 0)}/{r.cache.get('misses', 0):<5}"
            f"  {cfg}  {_short(r.output_digest):<12}")
    return "\n".join(lines)


def render_record_top(record, by="trampoline-bytes", limit=10):
    """The ``repro record top`` body: atlas rows ranked by one cost
    field."""
    field, label = TOP_ORDERINGS[by]
    ranked = sorted(record.functions, key=lambda r: r[field],
                    reverse=True)[:limit]
    lines = [f"record {record.short_id} — top {len(ranked)} by {label}"]
    lines.append(_ROW_HEADER)
    lines.extend(_row_line(r) for r in ranked)
    return "\n".join(lines)


def render_record_diff(a, b, diff=None):
    """The ``repro record diff`` body; verdict first, deltas after."""
    if diff is None:
        diff = diff_records(a, b)
    lines = [f"record diff {a.short_id} -> {b.short_id}"]
    lines.append(f"  input:   "
                 + ("identical" if diff["same_input"]
                    else f"DIFFERENT ({_short(a.input_digest)} vs "
                         f"{_short(b.input_digest)})"))
    lines.append(f"  options: "
                 + ("identical" if diff["same_options"] else "DIFFERENT"))
    if diff["same_output"] is None:
        lines.append("  output:  not comparable (a failed rewrite has "
                     "no output digest)")
    elif diff["same_output"]:
        lines.append(f"  output:  identical ({_short(a.output_digest)})")
    else:
        lines.append(f"  output:  DIVERGED ({_short(a.output_digest)} "
                     f"vs {_short(b.output_digest)})")
    t = diff["total_seconds"]
    lines.append(f"  total:   {t['a'] * 1e3:.1f}ms -> "
                 f"{t['b'] * 1e3:.1f}ms ({t['delta'] * 1e3:+.1f}ms)")
    if diff["stage_deltas"]:
        lines.append("  stages:")
        for name, entry in diff["stage_deltas"].items():
            fa = (f"{entry['a'] * 1e3:.2f}ms"
                  if entry["a"] is not None else "-")
            fb = (f"{entry['b'] * 1e3:.2f}ms"
                  if entry["b"] is not None else "-")
            delta = (f" ({entry['delta'] * 1e3:+.2f}ms)"
                     if "delta" in entry else "")
            lines.append(f"    {name:<24} {fa:>10} -> {fb:>10}{delta}")
    if diff["cache_deltas"]:
        lines.append("  cache:")
        for key, entry in diff["cache_deltas"].items():
            if key == "saved_seconds":
                lines.append(
                    f"    {key:<14} {entry['a'] * 1e3:.1f}ms -> "
                    f"{entry['b'] * 1e3:.1f}ms")
            else:
                lines.append(f"    {key:<14} {entry['a']} -> "
                             f"{entry['b']} ({entry['delta']:+d})")
    deg = diff["degradation"]
    if deg["a"] or deg["b"]:
        lines.append(f"  degraded functions: {deg['a']} -> {deg['b']} "
                     f"({deg['delta']:+d})")
    for name, changed in diff["function_deltas"].items():
        if "only_in" in changed:
            lines.append(f"  {name}: only in {changed['only_in']}")
            continue
        parts = ", ".join(f"{f} {e['a']} -> {e['b']}"
                          for f, e in sorted(changed.items()))
        lines.append(f"  {name}: {parts}")
    for key, entry in diff["rollup_deltas"].items():
        va, vb = entry["a"], entry["b"]
        if isinstance(va, float) or isinstance(vb, float):
            lines.append(f"  rollup {key}: {va:.4f} -> {vb:.4f}")
        else:
            lines.append(f"  rollup {key}: {va} -> {vb}")
    if diff["identical"]:
        lines.append("  verdict: identical modulo timings "
                     "(zero coverage/mode/overhead deltas)")
    elif diff["coverage_regressed"]:
        lines.append("  verdict: COVERAGE REGRESSED")
        for reason in diff["regressions"]:
            lines.append(f"    {reason}")
    else:
        lines.append("  verdict: changed, no coverage regression")
    return "\n".join(lines)
