"""Failure injection, failure auditing, and the chaos harness's fault
plans (Figure 2).

The paper's failure-mode analysis distinguishes three ways CFG
construction can go wrong and traces each to its rewriting consequence:

* **analysis reporting failure** → the function is skipped (coverage
  drops, everything else keeps working);
* **over-approximation** (infeasible edges) → spurious CFL blocks and
  extra trampolines, but a *correct* binary;
* **under-approximation** (missed edges) → a missing trampoline and a
  potentially wrong binary.

:func:`inject_failures` perturbs a freshly built CFG accordingly so the
Figure-2 experiment (and tests) can observe those exact consequences.
:func:`audit_jump_tables` is the defensive counterpart: it re-derives
every resolved jump table's targets from the binary image and reports
disagreements, which is how the rewriter's degradation ladder *catches*
an under-approximated table before it becomes wrong instrumentation.

A :class:`FailurePlan` is also the unit of chaos the harness injects
(``repro chaos``, ``evaluate_tool(faults=...)``): besides the three
analysis perturbations it can corrupt artifact-cache entries
(:func:`corrupt_cache_entries`), with the invariant under test being
the paper's: the rewritten binary still behaves identically and only
coverage is lost.
"""

from dataclasses import dataclass, field

from repro.analysis.cfg import BRANCH, BasicBlock
from repro.util.errors import AnalysisError

# Figure-2 failure categories (used by failure forensics in the trace).
FIG2_REPORT = "analysis-reporting-failure"
FIG2_OVERAPPROX = "over-approximation"
FIG2_UNDERAPPROX = "under-approximation"

FIG2_CATEGORIES = (FIG2_REPORT, FIG2_OVERAPPROX, FIG2_UNDERAPPROX)


def classify_failure(reason):
    """Map a per-function failure reason onto its Figure-2 category.

    Every failure that *skips* a function is, by the paper's definition,
    an analysis reporting failure (the analysis announced it could not
    handle the function).  Over-/under-approximation never set
    ``FunctionCFG.failed`` — they silently perturb edges — so they only
    show up here when an injector or analysis names them explicitly in
    the reason string.
    """
    text = (reason or "").lower()
    # Under-approximation is checked first: on a mixed reason naming
    # both an infeasible and a missed edge, the *dangerous* category
    # (wrong instrumentation, Figure 2's bottom arrow) must win over the
    # merely wasteful one.
    if "under-approx" in text or "underapprox" in text \
            or "missed edge" in text or "hidden target" in text:
        return FIG2_UNDERAPPROX
    if "over-approx" in text or "overapprox" in text \
            or "infeasible edge" in text:
        return FIG2_OVERAPPROX
    return FIG2_REPORT


@dataclass
class FailurePlan:
    """What to break: analysis faults per function name, plus the
    chaos harness's artifact-cache corruption."""

    #: functions whose analysis should report failure
    report: set = field(default_factory=set)
    #: functions to receive a spurious mid-block incoming edge
    #: (over-approximation)
    overapproximate: set = field(default_factory=set)
    #: functions in which one real jump-table edge is hidden
    #: (under-approximation)
    underapproximate: set = field(default_factory=set)
    #: number of artifact-cache entries to corrupt before rewriting
    corrupt_cache: int = 0

    @property
    def injects_analysis_faults(self):
        return bool(self.report or self.overapproximate
                    or self.underapproximate)


def inject_failures(cfg, plan):
    """Mutate ``cfg`` in place per the plan; returns it."""
    for fcfg in list(cfg):
        if fcfg.name in plan.report:
            fcfg.failed = "injected analysis reporting failure"
        if fcfg.name in plan.overapproximate and fcfg.ok:
            _inject_overapprox(fcfg)
        if fcfg.name in plan.underapproximate and fcfg.ok:
            _inject_underapprox(fcfg)
    return cfg


def _inject_overapprox(fcfg):
    """Add an infeasible edge targeting the middle of some block.

    Splitting the block at the bogus target mirrors what a real
    over-approximated edge does during CFG construction (Section 4.3):
    two blocks b1=[s,x) and b2=[x,e) appear, and b2 may become a CFL
    block, costing an unnecessary trampoline — but never correctness.
    """
    for block in fcfg.sorted_blocks():
        if len(block.insns) < 3:
            continue
        split_insn = block.insns[len(block.insns) // 2]
        x = split_insn.addr
        lower = [i for i in block.insns if i.addr < x]
        upper = [i for i in block.insns if i.addr >= x]
        b1 = BasicBlock(block.start, lower, fcfg.name)
        b2 = BasicBlock(x, upper, fcfg.name)
        b1.succs = [("fallthrough", x)]
        b2.succs = block.succs
        # The infeasible incoming edge lands at x.
        b2.preds = list(block.preds) + [(BRANCH, None)]
        del fcfg.blocks[block.start]
        fcfg.add_block(b1)
        fcfg.add_block(b2)
        fcfg.injected_overapprox_target = x
        return
    raise AnalysisError(
        f"{fcfg.name}: no block large enough for over-approx injection"
    )


def _inject_underapprox(fcfg):
    """Hide one real jump-table target (a missed edge).

    The rewriter consequently never installs the trampoline that target
    needs, which is the "wrong instrumentation" arrow of Figure 2 — the
    strong rewrite test then faults on the scorched original bytes.
    """
    for fcfg_table in fcfg.jump_tables:
        if len(set(fcfg_table.targets)) > 1:
            hidden = fcfg_table.targets[-1]
            kept = [t for t in fcfg_table.targets if t != hidden]
            fcfg_table.targets = kept + [kept[0]] * (
                len(fcfg_table.targets) - len(kept)
            )
            for block in fcfg.sorted_blocks():
                block.succs = [
                    (kind, target)
                    for kind, target in block.succs
                    if not (kind == "jump_table" and target == hidden)
                ]
            fcfg.injected_hidden_target = hidden
            return
    raise AnalysisError(
        f"{fcfg.name}: no jump table available for under-approx injection"
    )


# -- auditing (the degradation ladder's detector) ---------------------------


def audit_jump_tables(binary, fcfg):
    """Cross-check every resolved jump table against the image.

    Re-reads each table's entries from the binary and recomputes the
    target of every slot through the table's own ``tar`` expression.  A
    disagreement with the analysis result means the CFG's view of the
    table is wrong — a missed (hidden) edge, the under-approximation of
    Figure 2 — and cloning that table, or trusting its target set for
    CFL, would produce wrong instrumentation.

    Returns a list of ``(reason, true_targets)`` pairs, one per
    disagreeing table; ``true_targets`` is the target list as the image
    actually encodes it (the repair input for the ladder's ``dir``
    rung).  An unreadable table yields ``true_targets = None`` — nothing
    to repair against, so the function can only be skipped.
    """
    findings = []
    for table in fcfg.jump_tables:
        true_targets = []
        readable = True
        for i in range(table.count):
            try:
                raw = binary.read(table.table_addr + i * table.entry_size,
                                  table.entry_size)
            except (KeyError, ValueError):
                readable = False
                break
            x = int.from_bytes(bytes(raw), "little", signed=table.signed)
            true_targets.append(table.tar(x))
        if not readable:
            findings.append((
                f"jump table at {table.table_addr:#x} unreadable during "
                f"audit (missed edge possible)", None,
            ))
            continue
        if true_targets != list(table.targets):
            hidden = sorted(set(true_targets) - set(table.targets))
            shown = ", ".join(f"{t:#x}" for t in hidden[:3])
            findings.append((
                f"jump table at {table.table_addr:#x} disagrees with the "
                f"image: hidden target(s) {shown or '(reordered)'} "
                f"(missed edge)", true_targets,
            ))
    return findings


def corrupt_cache_entries(cache, count, key_digest):
    """Corrupt up to ``count`` of one rewrite's ArtifactCache entries.

    ``key_digest`` is the digest of the rewrite's stage key, which
    names each of its entry files (``<kind>-v<N>-<digest>.pkl``):
    entries of other binaries sharing the directory are left alone.
    Truncates the files of the first ``count`` matching entries (in
    sorted path order,
    :meth:`~repro.core.cache.ArtifactCache.entry_paths`) to a prefix
    that cannot unpickle, and returns the number corrupted.  The
    cache's own corrupt-entry handling (unlink + ``CORRUPT``, counted
    as ``cache.corrupt`` and a miss on the stage span) is what the
    chaos harness then exercises.
    """
    corrupted = 0
    mine = [path for path in cache.entry_paths()
            if path.endswith(f"-{key_digest}.pkl")]
    # A negative count would slice from the end: corrupt nothing.
    for path in mine[:max(count, 0)]:
        try:
            with open(path, "r+b") as f:
                f.truncate(3)
        except OSError:
            continue
        corrupted += 1
    return corrupted


def plan_chaos(cfg, report=0, overapproximate=0, underapproximate=0,
               corrupt_cache=0,
               protect=("_entry", "_start", "main")):
    """Build a deterministic :class:`FailurePlan` against a real CFG.

    Victims are chosen in address order from the functions *eligible*
    for each fault (any analyzable function for reporting failures, a
    big-enough block for over-approximation, a jump table with more than
    one distinct target for under-approximation), skipping ``protect``\\ ed
    functions so the program still reaches its exit.  The same binary
    always yields the same plan — chaos runs are reproducible.
    """
    plan = FailurePlan(corrupt_cache=corrupt_cache)
    taken = set()

    def eligible(check):
        for fcfg in cfg.sorted_functions():
            if (not fcfg.ok or fcfg.is_runtime_support
                    or fcfg.name in protect or fcfg.name in taken):
                continue
            if check(fcfg):
                yield fcfg.name

    for name in eligible(lambda f: any(len(set(t.targets)) > 1
                                       for t in f.jump_tables)):
        if len(plan.underapproximate) >= underapproximate:
            break
        plan.underapproximate.add(name)
        taken.add(name)
    for name in eligible(lambda f: any(len(b.insns) >= 3
                                       for b in f.blocks.values())):
        if len(plan.overapproximate) >= overapproximate:
            break
        plan.overapproximate.add(name)
        taken.add(name)
    for name in eligible(lambda f: True):
        if len(plan.report) >= report:
            break
        plan.report.add(name)
        taken.add(name)
    return plan
