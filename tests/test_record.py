"""Rewrite records: one typed record per rewrite, its ledger, the CLI.

Covers the acceptance properties of the subsystem:

* every recorded rewrite (fresh, cached — and failed) appends one
  schema-versioned, content-addressed record whose accounting matches
  the run, and records of the same input agree on the output digest;
  a rewrite or harness evaluation without a ledger assembles none;
* every successful rewrite's record carries the atlas section —
  per-function coverage split, precision class, ladder verdict — and a
  cold and a warm rewrite of the same input are identical modulo
  timings; a failed rewrite's record has no atlas section;
* the ladder-rung table the record carries (so ``obs`` stays core-free)
  agrees with :func:`repro.core.modes.ladder_rung`;
* the ledger appends atomically, skips and counts corrupt, foreign
  (old ``RewriteFleet/v1`` rows and ``RewriteRecord/v1`` records
  included) and tampered lines on load but preserves them on append,
  and resolves id prefixes and ``latest``;
* ``repro rewrite --record`` / ``repro batch --record`` persist records
  and ``repro record list/show/top/diff`` read them back, with ``diff``
  exiting :data:`~repro.cli.EXIT_COVERAGE_REGRESSION` when coverage
  regressed, else :data:`~repro.cli.EXIT_DIVERGED` on diverged outputs;
* Figure 2's mode distribution is reproducible from the record alone;
* the environment fingerprint every record (and every ``bench_*.py``
  JSON row, via :func:`~repro.obs.stamp_record`) carries is a plain
  dict, collected once per process.
"""

import json
import tempfile

import pytest

from repro.core import ArtifactCache, IncrementalRewriter
from repro.core.modes import MODE_LADDER, ladder_rung
from repro.obs import (
    AtlasBuilder,
    RecordLedger,
    RewriteRecord,
    Tracer,
    diff_records,
    record_rewrite,
    render_record,
    render_record_diff,
    render_record_list,
    render_record_top,
    stamp_record,
)
from repro.obs.receipt import (
    BENCH_RECORD_SCHEMA,
    MODE_RUNGS,
    RECORD_SCHEMA,
    TOP_ORDERINGS,
    collect_fingerprint,
    session_fingerprint,
)
from repro.util.errors import RewriteError
from tests.conftest import compiled, small_program


@pytest.fixture(scope="module")
def binary():
    return compiled(small_program("c"), "x86")


def _rewrite(binary, sink, mode="jt", **kwargs):
    rewriter = IncrementalRewriter(mode=mode, **kwargs)
    out, report = record_rewrite(rewriter, binary, sink, workload="unit")
    return out, report, rewriter


@pytest.fixture
def no_record_assembly(monkeypatch):
    """Make assembling any record fail loudly."""
    def refuse(*args, **kwargs):
        raise AssertionError("a record was assembled")

    monkeypatch.setattr(RewriteRecord, "from_rewrite", refuse)


def _record(binary, **kwargs):
    got = []
    _rewrite(binary, got, tracer=Tracer(), **kwargs)
    return got[0]


@pytest.fixture(scope="module")
def failed_record():
    """The record of a refused rewrite (func-ptr without the ladder on
    the Go-like workload)."""
    from repro.toolchain.workloads import docker_like

    got = []
    with pytest.raises(RewriteError):
        _rewrite(docker_like("x86")[1], got, mode="func-ptr",
                 degrade=False)
    return got[0]


#: The two record shapes: a refused rewrite's record is plain (no atlas
#: section); every successful rewrite's carries the atlas section.
SHAPES = pytest.mark.parametrize("atlas", [False, True],
                                 ids=["plain", "atlas"])


def _shaped(binary, failed_record, atlas):
    """A fresh record of the requested shape; the shared failed record
    is copied, so a test may edit what it gets."""
    if atlas:
        return _record(binary)
    return RewriteRecord.from_dict(failed_record.to_dict())


def _cold_warm(binary, tracer=None, **kwargs):
    records = []
    tracer = tracer if tracer is not None else Tracer()
    with tempfile.TemporaryDirectory() as directory:
        cache = ArtifactCache(directory)
        for _ in range(2):
            _rewrite(binary, records, tracer=tracer, cache=cache,
                     **kwargs)
    return records


def _ids(path):
    return [r.short_id for r in RecordLedger(str(path)).load()]


class TestJsonlStore:
    """The ledger file's line discipline: one JSON object per line,
    corrupt lines counted on load and kept verbatim on append."""

    def test_append_then_load_roundtrip(self, binary, failed_record,
                                        tmp_path):
        path = tmp_path / "s.jsonl"
        records = [failed_record, _record(binary)]
        for record in records:
            RecordLedger(str(path)).append(record)
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == \
            [r.to_dict() for r in records]
        store = RecordLedger(str(path))
        assert [r.record_id for r in store.load()] == \
            [r.record_id for r in records]
        assert store.skipped == 0

    def test_corrupt_lines_counted_not_raised(self, failed_record,
                                              tmp_path):
        line = json.dumps(failed_record.to_dict(), sort_keys=True)
        path = tmp_path / "s.jsonl"
        path.write_text(f"{line}\nnot json at all\n{line}\n")
        store = RecordLedger(str(path))
        assert [r.record_id for r in store.load()] == \
            [failed_record.record_id] * 2
        assert store.skipped == 1

    def test_append_preserves_corrupt_lines_verbatim(self, failed_record,
                                                     tmp_path):
        line = json.dumps(failed_record.to_dict(), sort_keys=True)
        path = tmp_path / "s.jsonl"
        path.write_text(f"{line}\ngarbage-line\n")
        RecordLedger(str(path)).append(failed_record)
        assert path.read_text().splitlines() == [line, "garbage-line", line]
        store = RecordLedger(str(path))
        assert len(store.load()) == 2 and store.skipped == 1

    def test_missing_file_is_empty(self, tmp_path):
        path = tmp_path / "nope.jsonl"
        store = RecordLedger(str(path))
        assert store.load() == [] and store.skipped == 0
        assert not path.exists()


class TestModeRungs:
    def test_table_matches_the_core_ladder(self):
        # obs/receipt.py mirrors the ladder as plain data so it never
        # imports core; the mirror must not drift.
        for mode, rung in MODE_RUNGS.items():
            assert rung == ladder_rung(mode)
        assert set(MODE_RUNGS) == {str(m) for m in MODE_LADDER} | {"skip"}


class TestRecordEmission:
    def test_rewrite_emits_one_record(self, binary):
        got = []
        out, report, rewriter = _rewrite(binary, got,
                                         tracer=Tracer(name="t"))
        assert len(got) == 1
        record = got[0]
        assert record.outcome == "ok" and record.error is None
        assert record.workload == "unit"
        assert record.arch == "x86" and record.mode == "jt"
        assert record.input_digest != record.output_digest
        assert record.options["mode"] == "jt"
        assert "jobs" not in record.options
        assert "executor" not in record.options
        # Per-stage wall times come off the trace span tree.
        assert "cfg-construction" in record.stages
        assert record.stages["cfg-construction"]["seconds"] >= 0
        # No worker-fleet section: analyses run in the orchestrator.
        assert "workers" not in record.to_dict()
        # The report's trampoline/trap shape rides along.
        assert record.trampolines == report.trampolines
        assert record.traps == report.traps

    def test_atlas_section_on_request(self, binary):
        # Every successful record carries the section.
        record = _record(binary)
        assert record.output_digest
        roll = record.rollup
        assert roll["functions"] == len(record.functions) > 0
        assert sum(roll["mode_distribution"].values()) == \
            roll["functions"]
        assert sum(roll["precision_histogram"].values()) == \
            roll["functions"]

    def test_atlas_section_is_covered_by_the_record_id(self, binary):
        # The atlas section lives in the content-addressed body, so the
        # record id pins it: editing one row changes the id.
        record = _record(binary)
        rid = record.record_id
        record.functions[0]["cfg_bytes"] += 1
        assert record.record_id != rid
        body = record.body_dict()
        assert body["functions"] == record.functions
        assert body["rollup"] == record.rollup

    def test_rows_account_coverage_and_shape(self, binary):
        record = _record(binary)
        # Rows are sorted by entry and each splits its body soundly.
        entries = [r["entry"] for r in record.functions]
        assert entries == sorted(entries)
        for r in record.functions:
            assert r["blocks"] > 0 and r["cfg_bytes"] > 0
            assert r["cfg_bytes"] + r["unreached_bytes"] == \
                r["body_bytes"]
            assert r["rung"] == MODE_RUNGS[r["mode"]]
            assert r["precision"]
        # Relocated blocks and trampolines landed somewhere.
        assert record.rollup["relocated_blocks"] > 0
        assert record.rollup["trampoline_bytes"] > 0

    @SHAPES
    def test_no_sink_means_no_record_machinery(self, binary, atlas,
                                               no_record_assembly):
        # Only record_rewrite assembles records; a bare rewrite never
        # does, even while it feeds an atlas builder.
        builder = AtlasBuilder() if atlas else None
        rewriter = IncrementalRewriter(mode="jt", tracer=Tracer())
        rewriter.rewrite(binary, atlas=builder)
        if atlas:
            rows, rollup = builder.finish()
            assert rows and rollup["functions"] == len(rows)

    @SHAPES
    def test_record_id_is_content_addressed(self, binary, failed_record,
                                            atlas):
        record = _shaped(binary, failed_record, atlas)
        rid = record.record_id
        assert len(rid) == 64
        assert RewriteRecord.from_dict(record.to_dict()).record_id == rid
        if atlas:
            record.functions[0]["cfg_bytes"] += 1
        else:
            record.mode = "tampered"
        assert record.record_id != rid

    def test_serial_and_cached_runs_agree_on_output(self, binary,
                                                   tmp_path):
        records = []
        cache = ArtifactCache(tmp_path)
        for kwargs in ({}, {"cache": cache}, {"cache": cache}):
            _rewrite(binary, records, tracer=Tracer(), **kwargs)
        digests = {r.output_digest for r in records}
        assert len(digests) == 1
        # ...and the warm run's record shows the cache paying off.
        cold, warm = records[1], records[2]
        assert cold.cache["misses"] > 0 and cold.cache["hits"] == 0
        assert warm.cache["hits"] > 0 and warm.cache["misses"] == 0

    def test_failed_rewrite_still_emits_a_record(self):
        # SrbiRewriter refuses C++ binaries outright — the refusal must
        # leave a failed record behind before the error propagates.
        from repro.baselines import SrbiRewriter

        cxx = compiled(small_program("cxx"), "x86")
        got = []
        with pytest.raises(RewriteError):
            record_rewrite(SrbiRewriter(), cxx, got,
                           workload="cxx-refusal")
        assert len(got) == 1
        record = got[0]
        assert record.outcome == "failed"
        assert record.workload == "cxx-refusal"
        assert record.output_digest is None
        assert record.error["type"] == "RewriteError"
        assert record.input_digest

    def test_failed_rewrite_record_has_no_atlas_section(self,
                                                        failed_record):
        record = failed_record
        assert record.outcome == "failed"
        assert record.functions == [] and record.rollup == {}
        assert "functions" not in record.to_dict()
        assert "rollup" not in record.to_dict()

    def test_shared_registry_yields_per_run_deltas(self, binary,
                                                  tmp_path):
        # One tracer (the registry of span counters) across two
        # rewrites: each record must account only its own run's
        # subtree, not the running totals.
        records = []
        tracer = Tracer()
        cache = ArtifactCache(tmp_path)
        for _ in range(2):
            _rewrite(binary, records, tracer=tracer, cache=cache)
        cold, warm = records
        assert cold.cache["misses"] > 0
        assert warm.cache["misses"] == 0
        assert warm.cache["hits"] == cold.cache["misses"]
        assert tracer.root.total_counters()["cache.hits"] \
            == warm.cache["hits"]

    def test_cold_and_warm_records_identical_modulo_timings(self, binary):
        cold, warm = _cold_warm(binary)
        assert cold.output_digest == warm.output_digest
        assert cold.record_id != warm.record_id
        assert cold.comparable_dict() == warm.comparable_dict()
        # The warm run's cache accounting shows the cache paying off —
        # one hit per cached stage, the legitimate cold-vs-warm
        # difference stripped by comparable_dict.  Atlas rows carry no
        # per-row provenance, but keep the analysis seconds stored in
        # the stage artifacts.
        assert warm.cache["by_kind"] == {"cfg": {"hits": 1},
                                         "funcptr": {"hits": 1}}
        assert (warm.cache["hits"], warm.cache["misses"],
                warm.cache["stores"]) == (2, 0, 0)
        assert warm.cache["saved_seconds"] > 0
        assert cold.cache == {"hits": 0, "misses": 2, "stores": 2,
                              "saved_seconds": 0.0,
                              "by_kind": {"cfg": {"misses": 1},
                                          "funcptr": {"misses": 1}}}
        assert all("provenance" not in r for r in warm.functions)
        assert [r["analysis_seconds"] for r in warm.functions] == \
            [r["analysis_seconds"] for r in cold.functions]
        assert warm.rollup["analysis_seconds"] > 0
        diff = diff_records(cold, warm)
        assert diff["identical"] is True
        assert diff["same_input"] and diff["same_output"]
        assert diff["coverage_regressed"] is False


class TestFig2Reproducibility:
    def test_mode_distribution_matches_the_degradation_report(self):
        # The acceptance property: Figure 2's mode distribution must be
        # derivable from the record alone.  Rewrite the function-pointer
        # workload in func-ptr mode (its analysis-resistant function
        # degrades) and reconcile the atlas rollup against the
        # rewriter's own degradation report.
        from repro.toolchain.workloads import docker_like

        binary = docker_like("x86")[1]
        got = []
        _, report, _ = _rewrite(binary, got, mode="func-ptr",
                                tracer=Tracer())
        record = got[0]
        dist = dict(record.rollup["mode_distribution"])
        degraded = report.degradation.by_final_mode()
        assert degraded   # the workload exists to exercise the ladder
        expected = dict(degraded)
        expected["func-ptr"] = (expected.get("func-ptr", 0)
                                + record.rollup["functions"]
                                - sum(degraded.values()))
        assert dist == expected
        # Each degraded function's row carries the ladder's verdict.
        rows = {r["function"]: r for r in record.functions}
        for entry in report.degradation.entries:
            row = rows[entry.function]
            assert row["mode"] == str(entry.final)
            assert row["rung"] == entry.rung
            assert row["reason"] == entry.reason
        # Imprecision is attributed, not just counted.
        hist = record.rollup["precision_histogram"]
        assert sum(n for p, n in hist.items() if p != "precise") > 0


class TestSerialization:
    @SHAPES
    def test_round_trip_is_lossless(self, binary, failed_record, atlas):
        record = _shaped(binary, failed_record, atlas)
        rebuilt = RewriteRecord.from_dict(record.to_dict())
        assert rebuilt.to_dict() == record.to_dict()
        assert rebuilt.record_id == record.record_id
        assert ("functions" in rebuilt.to_dict()) is atlas

    def test_schema_is_stamped(self, binary):
        assert _record(binary).to_dict()["schema"] == RECORD_SCHEMA

    @pytest.mark.parametrize("data", [
        {"schema": "Alien/v9"},
        "not a dict",
        {"schema": RECORD_SCHEMA},
        # the schemas this record replaced are foreign now
        {"schema": "RewriteReceipt/v1"},
        {"schema": "RewriteAtlas/v1"},
        {"schema": "RewriteRecord/v1"},
    ], ids=["alien", "not-a-dict", "missing-keys", "old-receipt",
            "old-atlas", "old-record"])
    def test_from_dict_rejects_foreign_and_corrupt(self, data):
        with pytest.raises(ValueError):
            RewriteRecord.from_dict(data)

    def test_from_rewrite_reads_stage_spans(self):
        tr = Tracer(name="rewrite:test")
        with tr.span("rewrite", mode="jt") as span:
            with tr.span("cfg-construction"):
                tr.count("cache.hits", 7)
                tr.count("cache.cfg.hits", 7)
            with tr.span("funcptr-analysis"):
                tr.count("cache.misses", 3)
                tr.count("cache.seconds_saved", 0.25)
            with tr.span("relocation"):
                pass
        tr.finish()

        class Report:
            mode = "jt"
            trampolines = {"direct": 5}
            traps = 2

        class Image:
            arch_name = "x86"

            def to_bytes(self):
                return b"image"

        record = RewriteRecord.from_rewrite(
            Image(), None, Report(), span,
            total_seconds=0.5, workload="w", atlas=AtlasBuilder())
        assert (record.workload, record.arch, record.mode) \
            == ("w", "x86", "jt")
        assert record.total_seconds == 0.5
        assert set(record.stages) == {"cfg-construction",
                                      "funcptr-analysis", "relocation"}
        assert all(set(entry) == {"seconds"}
                   for entry in record.stages.values())
        assert "mem_peak" not in json.dumps(record.to_dict())
        assert record.cache == {"hits": 7, "misses": 3, "stores": 0,
                                "saved_seconds": 0.25,
                                "by_kind": {"cfg": {"hits": 7}}}
        assert (record.trampolines, record.traps) == ({"direct": 5}, 2)


FP = {"python": "3.11.0", "platform": "Linux-x86_64", "cpus": 8,
      "git_sha": "abc1234"}


class TestEnvFingerprint:
    def test_collect_describes_this_interpreter(self):
        fp = collect_fingerprint()
        import sys
        assert fp["python"].startswith("%d.%d" % sys.version_info[:2])
        assert fp["cpus"] >= 1
        assert "-" in fp["platform"]
        # Collected once per process: every record shares the dict.
        assert session_fingerprint() is session_fingerprint()

    def test_missing_sha_serializes_compactly(self, monkeypatch):
        import repro.obs.receipt as receipt

        monkeypatch.setattr(receipt, "_git_sha", lambda: None)
        assert "git_sha" not in collect_fingerprint()

    def test_stamp_record_adds_schema_and_fingerprint(self):
        stamped = stamp_record({"cycles": 5}, fingerprint=FP)
        assert stamped["schema"] == BENCH_RECORD_SCHEMA
        assert stamped["fingerprint"]["python"] == "3.11.0"
        assert stamped["cycles"] == 5


class TestLedger:
    def _one(self, binary, path, **kwargs):
        ledger = RecordLedger(str(path))
        _rewrite(binary, ledger, tracer=Tracer(), **kwargs)
        return ledger

    @SHAPES
    def test_append_load_roundtrip(self, binary, failed_record, tmp_path,
                                   atlas):
        path = tmp_path / "r.jsonl"
        ledger = RecordLedger(str(path))
        first = _shaped(binary, failed_record, atlas)
        second = _shaped(binary, failed_record, not atlas)
        ledger.append(first)
        ledger.append(second)
        loaded = ledger.load()
        assert [r.record_id for r in loaded] == \
            [first.record_id, second.record_id]
        assert ledger.skipped == 0
        raw = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["schema"] for r in raw] == [RECORD_SCHEMA] * 2
        assert [r.record_id for r in loaded] == \
            [r["record_id"] for r in raw]
        # The atlas section comes back only on the record that had one.
        assert [bool(r.functions and r.rollup) for r in loaded] == \
            [atlas, not atlas]

    @SHAPES
    def test_corrupt_and_foreign_lines_skipped_but_preserved(
            self, binary, failed_record, tmp_path, atlas):
        path = tmp_path / "r.jsonl"
        # Old receipt/atlas ledger lines get no migration reader: they
        # are foreign schemas, skipped and counted like any other.
        bad = ["not json", "garbage-line",
               '{"schema": "Alien/v9", "x": 1}',
               '{"schema": "RewriteReceipt/v1", "arch": "x86"}',
               '{"schema": "RewriteAtlas/v1", "arch": "x86"}']
        path.write_text("\n".join(bad) + "\n")
        ledger = RecordLedger(str(path))
        ledger.append(_shaped(binary, failed_record, atlas))
        loaded = ledger.load()
        assert len(loaded) == 1
        assert bool(loaded[0].functions) is atlas
        assert ledger.skipped == len(bad)
        # Every bad line survived the append verbatim.
        assert path.read_text().splitlines()[:len(bad)] == bad

    def test_old_fleet_rows_are_skipped_but_preserved(self, binary,
                                                      tmp_path, capsys):
        # Batches once closed with a RewriteFleet/v1 summary row, and
        # records were RewriteRecord/v1 (with, for a while, a
        # `workers` section and `jobs`/`executor` options).  Both are
        # foreign now: they count as skipped, and an append keeps them
        # verbatim.
        from repro.cli import main

        path = tmp_path / "r.jsonl"
        ledger = self._one(binary, path)
        first = ledger.load()[0]
        v1 = first.to_dict()
        v1["schema"] = "RewriteRecord/v1"
        v1["options"].update(jobs=2, executor="thread")
        v1["workers"] = {"tasks": 26, "task_seconds": 0.0045}
        fleet = {"schema": "RewriteFleet/v1",
                 "records": [first.record_id, v1["record_id"]],
                 "outcomes": {"ok": 2}, "worker_tasks": 26}
        old = [json.dumps(v1), json.dumps(fleet)]
        with open(path, "a") as f:
            f.write("\n".join(old) + "\n")
        _rewrite(binary, ledger, tracer=Tracer(),
                 cache=ArtifactCache(tmp_path / "cache"))
        records = ledger.load()
        assert len(records) == 2
        assert records[0].record_id == first.record_id
        assert ledger.skipped == 2
        assert path.read_text().splitlines()[1:3] == old

        assert main(["record", "list", "--ledger", str(path)]) == 0
        listing = capsys.readouterr().out
        assert "2 record(s), 2 skipped line(s)" in listing

    def test_lines_with_worker_accounting_still_load(self, binary,
                                                     tmp_path, capsys):
        # Ledgers written while analyses could run on a worker pool
        # carry records with a `workers` section and `jobs`/`executor`
        # options, and a fleet row with `worker_tasks`.  Those lines are
        # foreign now, yet a ledger holding them still loads: its
        # current records load, list and show, and the old lines only
        # count as skipped.
        from repro.cli import main

        old = _record(binary).to_dict()
        old["schema"] = "RewriteRecord/v1"
        old["options"].update(jobs=2, executor="thread")
        old["workers"] = {"tasks": 26, "task_seconds": 0.0045}
        fleet = {"schema": "RewriteFleet/v1",
                 "records": [old["record_id"]],
                 "workloads": ["unit"], "outcomes": {"ok": 1},
                 "total_seconds": old["total_seconds"],
                 "cache": {"hits": 0, "misses": 0}, "worker_tasks": 26,
                 "unix_time": old["unix_time"]}
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(old) + "\n" + json.dumps(fleet) + "\n")

        ledger = self._one(binary, path)
        records = ledger.load()
        assert len(records) == 1 and ledger.skipped == 2
        record = records[0]
        assert "jobs" not in record.options
        assert "workers" not in record.to_dict()

        assert main(["record", "list", "--ledger", str(path)]) == 0
        listing = capsys.readouterr().out
        assert "1 record(s), 2 skipped line(s)" in listing
        assert record.short_id in listing
        assert main(["record", "show", record.short_id,
                     "--ledger", str(path)]) == 0
        shown = capsys.readouterr().out
        assert record.short_id in shown
        assert "jobs=2" not in shown and "workers" not in shown

    @pytest.mark.parametrize("field", ["traps", "rollup", "functions"])
    def test_tampered_line_is_skipped_but_preserved(self, binary,
                                                    tmp_path, field):
        # A stored line whose content no longer hashes to its stored
        # record_id is corrupt: skipped and counted, never re-addressed
        # under a new id, and kept verbatim by the next append.
        path = tmp_path / "r.jsonl"
        ledger = self._one(binary, path)
        line = json.loads(path.read_text())
        if field == "traps":
            line["traps"] += 1
        elif field == "rollup":
            line["rollup"]["cfg_bytes"] += 1
        else:
            line["functions"][0]["mode"] = "skip"
        tampered = json.dumps(line, sort_keys=True)
        path.write_text(tampered + "\n")
        assert ledger.load() == [] and ledger.skipped == 1
        _rewrite(binary, ledger, tracer=Tracer())
        assert len(ledger.load()) == 1 and ledger.skipped == 1
        assert path.read_text().splitlines()[0] == tampered

    @SHAPES
    def test_find_by_prefix_latest_and_ambiguity(self, binary,
                                                 failed_record, tmp_path,
                                                 atlas):
        ledger = RecordLedger(str(tmp_path / "r.jsonl"))
        ledger.append(_shaped(binary, failed_record, atlas))
        first = ledger.load()[0]
        assert bool(first.functions) is atlas
        assert ledger.find(first.record_id[:8]).record_id == \
            first.record_id
        assert ledger.find("latest").record_id == first.record_id
        with pytest.raises(LookupError):
            ledger.find("zzzz")
        # An empty prefix matches every entry: unambiguous with one
        # record in the ledger, ambiguous with two.
        ledger.append(_shaped(binary, failed_record, not atlas))
        assert ledger.find("latest").record_id == \
            ledger.load()[-1].record_id
        assert bool(ledger.find("latest").functions) is not atlas
        with pytest.raises(LookupError):
            ledger.find("")

    def test_latest_on_empty_ledger_raises(self, tmp_path):
        with pytest.raises(LookupError, match="latest"):
            RecordLedger(str(tmp_path / "none.jsonl")).find("latest")


class TestDiff:
    def test_warm_vs_cold_diff(self, binary):
        cold, warm = _cold_warm(binary, tracer=Tracer(name="t"))
        diff = diff_records(cold, warm)
        assert diff["same_input"] is True
        assert diff["same_options"] is True
        assert diff["same_output"] is True
        assert diff["identical"] is True
        assert diff["cache_deltas"]["hits"]["delta"] > 0
        assert diff["cache_deltas"]["misses"]["delta"] < 0
        assert diff["stage_deltas"]   # traced stages present
        text = render_record_diff(cold, warm, diff)
        assert "output:  identical" in text
        assert "identical modulo timings" in text
        assert "hits" in text

    def test_diff_flags_diverged_outputs(self, binary):
        cold, warm = _cold_warm(binary)
        warm.output_digest = "f" * 64
        diff = diff_records(cold, warm)
        assert diff["same_output"] is False
        assert diff["identical"] is False
        assert "DIVERGED" in render_record_diff(cold, warm, diff)

    def test_diff_tolerates_missing_output(self, binary):
        cold, warm = _cold_warm(binary)
        warm.output_digest = None
        diff = diff_records(cold, warm)
        assert diff["same_output"] is None
        assert "not comparable" in render_record_diff(cold, warm, diff)

    def test_coverage_regressed_against_a_failed_record(
            self, binary, failed_record):
        # The outcome decides: a failed side has no output digest and
        # no rows, so every function of the other side is lost in it.
        ok = _record(binary)
        diff = diff_records(ok, failed_record)
        assert diff["same_output"] is None
        assert diff["coverage_regressed"] is True
        assert len(diff["regressions"]) == len(ok.functions)
        text = render_record_diff(ok, failed_record, diff)
        assert "not comparable" in text and "COVERAGE REGRESSED" in text
        back = diff_records(failed_record, ok)
        assert back["coverage_regressed"] is False

    def test_lost_cfg_bytes_regress(self, binary):
        a, b = _cold_warm(binary)
        victim = b.functions[0]
        victim["cfg_bytes"] -= 1
        victim["unreached_bytes"] += 1
        diff = diff_records(a, b)
        assert diff["identical"] is False
        assert diff["coverage_regressed"] is True
        assert any("cfg coverage" in r for r in diff["regressions"])
        assert victim["function"] in diff["function_deltas"]
        assert "COVERAGE REGRESSED" in render_record_diff(a, b, diff)

    def test_falling_down_the_ladder_regresses(self, binary):
        a, b = _cold_warm(binary)
        victim = b.functions[0]
        victim["mode"], victim["rung"] = "skip", MODE_RUNGS["skip"]
        diff = diff_records(a, b)
        assert diff["coverage_regressed"] is True
        assert any("down the ladder" in r for r in diff["regressions"])

    def test_lost_function_regresses(self, binary):
        a, b = _cold_warm(binary)
        lost = b.functions.pop()
        diff = diff_records(a, b)
        assert diff["coverage_regressed"] is True
        assert diff["function_deltas"][lost["function"]] == \
            {"only_in": "a"}

    def test_extra_trampoline_bytes_are_overhead_not_regression(
            self, binary):
        a, b = _cold_warm(binary)
        b.functions[0]["trampoline_bytes"] += 64
        diff = diff_records(a, b)
        assert diff["identical"] is False
        assert diff["coverage_regressed"] is False
        text = render_record_diff(a, b, diff)
        assert "changed, no coverage regression" in text


class TestRendering:
    def test_render_record_and_list(self, binary):
        records = _cold_warm(binary, tracer=Tracer(name="t"))
        text = render_record(records[0])
        assert records[0].short_id in text
        assert "cache:" in text and "stages:" in text
        assert "mem peak" not in text
        listing = render_record_list(records)
        assert "2 record(s)" in listing
        assert all(r.short_id in listing for r in records)
        assert "skipped" in render_record_list(records, skipped=2)
        assert render_record_list([], 0) == "(empty ledger)"

    def test_render_atlas_section_rollups_and_rows(self, binary):
        record = _record(binary)
        text = render_record(record)
        assert record.short_id in text
        assert "coverage:" in text and "modes:" in text
        assert "precision:" in text and "overhead:" in text
        for r in record.functions:
            assert r["function"] in text

    def test_render_atlas_list_and_empty(self, binary):
        record = _record(binary)
        listing = render_record_list([record])
        assert "1 record(s)" in listing and record.short_id in listing
        assert f"{record.rollup['cfg_fraction']:.1%}" in listing
        assert "skipped" in render_record_list([record], skipped=2)
        assert render_record_list([]) == "(empty ledger)"

    def test_render_atlas_limit_truncates(self, binary):
        record = _record(binary)
        assert len(record.functions) >= 2
        assert "more row(s)" in render_record(record, limit=1)

    def test_render_top_orders_by_requested_field(self, binary):
        record = _record(binary)
        for by, (field, label) in TOP_ORDERINGS.items():
            text = render_record_top(record, by=by, limit=3)
            assert label in text
        ranked = render_record_top(record, by="trampoline-bytes",
                                   limit=1)
        heaviest = max(record.functions,
                       key=lambda r: r["trampoline_bytes"])
        assert heaviest["function"] in ranked


class TestHarnessBuildsNoRecord:
    @pytest.mark.parametrize("tool", ["jt", "srbi"])
    def test_evaluate_tool_never_assembles_a_record(self, binary, tool,
                                                    no_record_assembly):
        from repro.eval import baseline_run, evaluate_tool

        oracle, base_cycles = baseline_run(binary)
        run = evaluate_tool(tool, binary, oracle, base_cycles,
                            benchmark="unit", tracer=Tracer())
        assert run.passed, run.error


class TestCli:
    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)   # the default record ledger

    def test_rewrite_record_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["rewrite", "--workload", "619.lbm_s",
                     "--record"]) == 0
        assert "record" in capsys.readouterr().out
        records = RecordLedger(str(tmp_path / "RECORDS.jsonl")).load()
        assert len(records) == 1
        assert records[0].rollup["functions"] == \
            len(records[0].functions) > 0

    def test_batch_records_only_with_the_record_flag(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        assert main(["batch", "619.lbm_s", "--repeat", "2"]) == 0
        assert not (tmp_path / "RECORDS.jsonl").exists()
        assert main(["batch", "619.lbm_s", "--repeat", "2",
                     "--record"]) == 0
        assert "2 record(s) -> RECORDS.jsonl" in capsys.readouterr().err
        ledger = RecordLedger(str(tmp_path / "RECORDS.jsonl"))
        records = ledger.load()
        assert len(records) == 2 and ledger.skipped == 0
        assert len((tmp_path / "RECORDS.jsonl").read_text()
                   .splitlines()) == 2
        assert {r.output_digest for r in records} == \
            {records[0].output_digest}
        assert all(r.outcome == "ok" and r.functions and r.rollup
                   for r in records)

    def test_record_list_show_diff(self, tmp_path, capsys):
        from repro.cli import main

        main(["batch", "619.lbm_s", "--repeat", "2", "--record"])
        capsys.readouterr()
        assert main(["record", "list"]) == 0
        listing = capsys.readouterr().out
        assert "2 record(s)" in listing

        ids = _ids(tmp_path / "RECORDS.jsonl")
        assert main(["record", "show", ids[0]]) == 0
        assert "workload:  619.lbm_s" in capsys.readouterr().out

        # Warm vs cold of the same input: identical outputs, exit 0.
        assert main(["record", "diff", ids[0], ids[1]]) == 0
        text = capsys.readouterr().out
        assert "output:  identical" in text
        assert "hits" in text

    def test_record_show_top_atlas(self, capsys):
        from repro.cli import main

        main(["rewrite", "--workload", "619.lbm_s", "--record"])
        capsys.readouterr()
        assert main(["record", "show", "latest"]) == 0
        assert "coverage:" in capsys.readouterr().out
        assert main(["record", "top", "latest",
                     "--by", "unreached"]) == 0
        assert "unreached bytes" in capsys.readouterr().out

    def test_record_show_latest_json_carries_atlas(self, tmp_path,
                                                   capsys):
        from repro.cli import main

        main(["rewrite", "--workload", "619.lbm_s", "--record"])
        capsys.readouterr()
        assert main(["record", "show", "latest", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == RECORD_SCHEMA
        assert doc["rollup"]["functions"] == len(doc["functions"])
        # latest resolves to the same content-addressed record.
        ledger = RecordLedger(str(tmp_path / "RECORDS.jsonl"))
        assert doc["record_id"] == ledger.find("latest").record_id

    def test_record_top_requires_atlas(self, capsys):
        # Only a successful rewrite has function rows to rank.
        from repro.cli import EXIT_LOAD_ERROR, main

        main(["rewrite", "--workload", "docker_like", "--mode",
              "func-ptr", "--no-degrade", "--record"])
        capsys.readouterr()
        assert main(["record", "top", "latest"]) == EXIT_LOAD_ERROR
        assert "failed rewrite" in capsys.readouterr().err

    def test_record_diff_identical_modulo_timings(self, tmp_path,
                                                  capsys):
        from repro.cli import main

        for _ in range(2):
            main(["rewrite", "--workload", "619.lbm_s", "--record",
                  "--cache-dir", str(tmp_path / "cache")])
        capsys.readouterr()
        assert main(["record", "diff",
                     *_ids(tmp_path / "RECORDS.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "identical modulo timings" in out

    def test_record_diff_diverged_exit_code(self, tmp_path, capsys):
        from repro.cli import EXIT_DIVERGED, main

        main(["rewrite", "--workload", "619.lbm_s", "--record"])
        capsys.readouterr()
        ledger = RecordLedger(str(tmp_path / "RECORDS.jsonl"))
        record = ledger.load()[0]
        record.output_digest = "f" * 64
        ledger.append(record)
        rc = main(["record", "diff", *_ids(tmp_path / "RECORDS.jsonl")])
        assert "DIVERGED" in capsys.readouterr().out
        assert rc == EXIT_DIVERGED

    def test_record_diff_coverage_regression_exit_code(self, tmp_path,
                                                       capsys):
        from repro.cli import EXIT_COVERAGE_REGRESSION, main

        main(["rewrite", "--workload", "619.lbm_s", "--record"])
        capsys.readouterr()
        ledger = RecordLedger(str(tmp_path / "RECORDS.jsonl"))
        doctored = ledger.load()[0]
        doctored.functions[0]["cfg_bytes"] -= 1
        ledger.append(doctored)
        rc = main(["record", "diff", *_ids(tmp_path / "RECORDS.jsonl")])
        out = capsys.readouterr().out
        assert rc == EXIT_COVERAGE_REGRESSION
        assert "output:  identical" in out
        assert "COVERAGE REGRESSED" in out

    def test_record_diff_coverage_regression_outranks_divergence(
            self, tmp_path, capsys):
        # jt -> dir both diverges the output and walks every function
        # down the ladder: the coverage verdict (exit 6) wins over the
        # divergence verdict (exit 1).
        from repro.cli import EXIT_COVERAGE_REGRESSION, main

        for mode in ("jt", "dir"):
            main(["rewrite", "--workload", "619.lbm_s", "--mode", mode,
                  "--record"])
        capsys.readouterr()
        rc = main(["record", "diff", *_ids(tmp_path / "RECORDS.jsonl")])
        out = capsys.readouterr().out
        assert "DIVERGED" in out and "COVERAGE REGRESSED" in out
        assert rc == EXIT_COVERAGE_REGRESSION

    def test_record_bad_ids_and_arity(self, capsys):
        from repro.cli import EXIT_LOAD_ERROR, main

        assert main(["record", "list"]) == 0     # empty ledger is ok
        assert "(empty ledger)" in capsys.readouterr().out
        assert main(["record", "show", "zzz"]) == EXIT_LOAD_ERROR
        assert main(["record", "show", "latest"]) == EXIT_LOAD_ERROR
        assert main(["record", "diff", "onlyone"]) == EXIT_LOAD_ERROR
        capsys.readouterr()

    def test_record_top_bad_ids_and_arity(self, capsys):
        from repro.cli import EXIT_LOAD_ERROR, main

        assert main(["record", "top"]) == EXIT_LOAD_ERROR
        assert main(["record", "top", "zzz"]) == EXIT_LOAD_ERROR
        assert main(["record", "top", "latest"]) == EXIT_LOAD_ERROR
        capsys.readouterr()

    def test_failed_rewrite_writes_failed_record(self, tmp_path, capsys):
        from repro.cli import EXIT_REWRITE_ERROR, main

        rc = main(["rewrite", "--workload", "docker_like",
                   "--mode", "func-ptr", "--no-degrade", "--record"])
        assert rc == EXIT_REWRITE_ERROR
        err = capsys.readouterr().err
        assert "refused" in err and "[failed]" in err
        records = RecordLedger(str(tmp_path / "RECORDS.jsonl")).load()
        assert len(records) == 1
        assert records[0].outcome == "failed"
        assert records[0].output_digest is None
        assert records[0].functions == []
