"""Tests of the benchmark itself: its arithmetic, its determinism, its
correctness gate, and that it drives the same cells as the experiment.

    PYTHONPATH=src python -m pytest bench/
"""

import dataclasses

import pytest

import run  # first: puts the checkout's src/ on sys.path
from cells import Cell, Program, inputs_digest, setup
from repro.eval import spec2017, summarize
from repro.obs import Span, Tracer
from repro.toolchain import compile_program, interpret
from repro.toolchain.workloads import generate_program, spec_workload
from stats import (
    cell_parts,
    covered,
    geomean,
    layer_metrics,
    percentile,
    self_time,
)


def _span(name, start, end, children=()):
    span = Span(name)
    span.t_start, span.t_end = start, end
    span.children = list(children)
    return span


# -- arithmetic ---------------------------------------------------------------

def test_nearest_rank_percentile_reports_its_samples():
    values = [7, 1, 10, 3, 5, 2, 9, 4, 8, 6]
    assert percentile(values, 50) == (5, 10, 5)
    assert percentile(values, 90) == (9, 10, 1)
    assert percentile(values, 100) == (10, 10, 0)
    assert percentile(values, 1) == (1, 10, 9)
    # Ties: nothing equal to the percentile counts as beyond it.
    assert percentile([1, 1, 1, 2], 50) == (1, 4, 1)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_geomean():
    assert geomean([2, 8]) == pytest.approx(4)
    assert geomean(x for x in [1.0, 1.0, 8.0]) == pytest.approx(2)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span("cell", 0.0, 10.0, [
        _span("rewrite", 1.0, 4.0),
        _span("machine-run", 3.0, 6.0),   # overlaps the rewrite
        _span("machine-run", 4.5, 5.0),   # inside the one before
        _span("late", 8.0, 12.0),         # runs past the parent's end
    ])
    assert covered([(1, 4), (3, 6), (4.5, 5), (8, 10)]) == pytest.approx(7)
    assert self_time(parent) == pytest.approx(3.0)
    assert self_time(_span("leaf", 2.0, 2.5)) == pytest.approx(0.5)


def test_cell_parts_keeps_only_layer_boundaries():
    tracer = Tracer()
    with tracer.span("cell") as cell:
        with tracer.span("rewrite"):
            with tracer.span("cfg-construction"):
                pass
        with tracer.span("machine-run"):
            pass
        with tracer.span("unrelated"):
            pass
    parts = cell_parts(cell)
    assert [s.name for s in parts["rewrite"]] == ["rewrite"]
    assert [s.name for s in parts["machine-run"]] == ["machine-run"]
    assert parts["oracle-run"] == []


# -- a two-program cell list --------------------------------------------------

def _program(name):
    spec = dataclasses.replace(spec_workload(name, "x86"), main_reps=2)
    ir_program = generate_program(spec)
    return Program(name, compile_program(ir_program, "x86"),
                   tuple(interpret(ir_program)), spec.n_try > 0)


@pytest.fixture(scope="module")
def programs():
    # 620.omnetpp_s uses C++ exceptions, so srbi must refuse it.
    return [_program("605.mcf_s"), _program("620.omnetpp_s")]


def _cells(programs):
    return [Cell(p, tool) for p in programs
            for tool in (None, "srbi", "jt", "func-ptr")]


def _measure(cells):
    """One untraced run of ``cells`` through the benchmark's gate."""
    return run.run_workload("two-programs", 0, 0, False,
                            make_cells=lambda *_: cells)


def test_two_program_run_passes_and_counts_the_refusal(programs):
    result, lines = _measure(_cells(programs))
    assert result["correct"], lines
    assert result["attempted"] == 8 and result["failed"] == 0
    assert "expected refusals: 1\n  620.omnetpp_s/srbi" in lines[1]
    metrics = result["metrics"]
    assert set(metrics) == set(run.metric_units()[0])
    assert metrics["cycles_ratio_gm"]["value"] > 1.0


def test_corrupted_reference_fails_the_run(programs):
    good = programs[0]
    bad = dataclasses.replace(
        good, reference=(good.reference[0], good.reference[1] + [1]))
    result, lines = _measure(_cells([bad, programs[1]]))
    assert not result["correct"]
    assert result["metrics"] == {}
    # The oracle run and every tool cell of the corrupted program fail.
    assert result["failed"] == 4
    assert any(line.startswith("FAILED 605.mcf_s/oracle: wrong-output")
               for line in lines)


def test_unexpected_refusal_fails_the_run(programs):
    # Claiming omnetpp uses no exceptions makes srbi's refusal a failure.
    claimed = dataclasses.replace(programs[1], uses_exceptions=False)
    result, _ = _measure(_cells([claimed]))
    assert not result["correct"] and result["failed"] == 1


def test_a_crashing_cell_fails_the_run_instead_of_ending_it():
    broken = Program("broken", None, (0, []), False)
    cells = [Cell(broken), Cell(broken, "jt")]
    failed, _, _ = run.judge(cells, [run.Pass(cells)])
    assert failed[0].startswith("broken/oracle: fault (Traceback")
    assert "AttributeError" in failed[0]
    assert failed[1] == "broken/jt: fault (no passing oracle run)"


def test_traced_layers_add_up_to_the_cells(programs):
    passes, tracer = run.run_passes(_cells(programs), 0, trace=True)
    traced = passes[1]
    layers = layer_metrics(traced.span, traced.telemetries)
    cell_total = sum(c.duration for c in traced.span.children)
    assert (layers["machine.oracle_s"] + layers["machine.run_s"]
            + layers["core.rewrite_s"] + layers["eval.self_s"]
            == pytest.approx(cell_total))
    # One rewrite span per tool cell, the refused one included.
    assert layers["core.rewrites"] == 6
    assert layers["machine.jit_compiles"] > 0
    assert 0 < layers["machine.jit_reuse"] < 1
    stages = [k for k in layers if k.startswith("core.stage.")]
    assert len(stages) == 9
    assert sum(layers[k] for k in stages) <= layers["core.rewrite_s"]


# -- determinism --------------------------------------------------------------

def test_same_seed_same_inputs_other_seed_new_programs():
    first = setup("partial-instr", 3)
    other = setup("partial-instr", 4)
    assert inputs_digest(first) == inputs_digest(setup("partial-instr", 3))
    assert inputs_digest(first) != inputs_digest(other)
    assert [c.name for c in first] == [c.name for c in other]
    # Seeds cycle through the vetted variants.
    assert inputs_digest(setup("partial-instr", 16 + 3)) == \
        inputs_digest(first)


# -- the benchmark drives the experiment's cells ------------------------------

def test_table3_x86_seed0_matches_the_experiment():
    cells = setup("table3-x86", 0)
    tools = {}
    for cell, outcome in zip(cells, run.Pass(cells).outcomes):
        if cell.tool is not None:
            tools.setdefault(cell.tool, []).append(outcome.run)
    expected, _ = spec2017("x86")
    assert set(tools) == set(expected)
    for tool, runs in tools.items():
        got = summarize(runs)
        for key in ("pass", "total", "overhead_mean", "coverage_mean",
                    "size_mean"):
            assert got[key] == expected[tool][key], (tool, key)
