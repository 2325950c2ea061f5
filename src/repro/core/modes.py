"""The three incremental rewriting modes (Sections 3 and 5) and the
graceful degradation ladder over them.

Each mode rewrites strictly more control flow than the previous one, at
the price of stronger binary-analysis assumptions:

* ``dir``      — direct control flow only;
* ``jt``       — + jump tables (cloning; tolerates over-approximation);
* ``func-ptr`` — + function pointers (requires precise identification).

The paper's failure-mode analysis (Section 4.3, Figure 2) demands that a
*per-function* analysis failure lowers coverage rather than aborting the
whole rewrite.  The ladder encodes that: a function whose analysis does
not support the requested mode falls one rung at a time —
``func-ptr -> jt -> dir -> skip`` — and every step is recorded in a
:class:`DegradationReport` (final mode plus Figure-2 category), which
the rewriter attaches to its :class:`~repro.core.rewriter.RewriteReport`.
``skip`` (:data:`MODE_SKIP`) is the bottom rung: the function is left in
place, unrewritten, and only coverage is lost.
"""

import enum
from dataclasses import dataclass, field


class RewriteMode(enum.Enum):
    DIR = "dir"
    JT = "jt"
    FUNC_PTR = "func-ptr"

    @property
    def rewrites_jump_tables(self):
        return self in (RewriteMode.JT, RewriteMode.FUNC_PTR)

    @property
    def rewrites_function_pointers(self):
        return self is RewriteMode.FUNC_PTR

    @classmethod
    def parse(cls, name):
        for mode in cls:
            if mode.value == name:
                return mode
        raise ValueError(f"unknown rewrite mode {name!r}")

    def downgrade(self):
        """The next rung down the ladder, or :data:`MODE_SKIP` at the
        bottom (``dir`` has no weaker rewriting mode to fall to)."""
        idx = MODE_LADDER.index(self)
        if idx + 1 < len(MODE_LADDER):
            return MODE_LADDER[idx + 1]
        return MODE_SKIP

    def __str__(self):
        return self.value


#: The ladder, strongest first.  A degraded function walks down this
#: sequence; past the end it is skipped entirely.
MODE_LADDER = (RewriteMode.FUNC_PTR, RewriteMode.JT, RewriteMode.DIR)

#: Sentinel "mode" of a function that is not rewritten at all (the
#: bottom rung).  A string, not a RewriteMode: no pipeline stage ever
#: *runs* in skip mode — the function is simply left out.
MODE_SKIP = "skip"


def mode_rewrites_jump_tables(mode):
    """``rewrites_jump_tables`` over ladder entries (False for skip)."""
    return isinstance(mode, RewriteMode) and mode.rewrites_jump_tables


def mode_rewrites_function_pointers(mode):
    """``rewrites_function_pointers`` over ladder entries."""
    return (isinstance(mode, RewriteMode)
            and mode.rewrites_function_pointers)


@dataclass
class FunctionDegradation:
    """One function's walk down the ladder."""

    function: str
    entry: int
    #: the mode the rewrite was asked for
    requested: str
    #: the rung the function landed on ("jt", "dir" or "skip")
    final: str
    #: why the function could not stay at the requested mode
    reason: str
    #: Figure-2 category of ``reason`` (see
    #: :func:`repro.analysis.failures.classify_failure`)
    category: str

    @property
    def skipped(self):
        return self.final == MODE_SKIP


@dataclass
class DegradationReport:
    """Every per-function downgrade of one rewrite.

    Attached to :class:`repro.core.rewriter.RewriteReport` and rendered
    by the CLI; the chaos harness asserts over it.
    """

    requested_mode: str = ""
    entries: list = field(default_factory=list)

    def add(self, function, entry, final, reason, category):
        self.entries.append(FunctionDegradation(
            function=function, entry=entry,
            requested=self.requested_mode,
            final=str(final), reason=reason, category=category,
        ))

    def __bool__(self):
        return bool(self.entries)

    def __len__(self):
        return len(self.entries)

    def final_mode_of(self, entry_or_name):
        for e in self.entries:
            if entry_or_name in (e.entry, e.function):
                return e.final
        return self.requested_mode

    def skipped_functions(self):
        return [e for e in self.entries if e.skipped]

    def by_final_mode(self):
        """{final mode: count} — the shape the CLI summary prints."""
        counts = {}
        for e in self.entries:
            counts[e.final] = counts.get(e.final, 0) + 1
        return counts

    def by_category(self):
        counts = {}
        for e in self.entries:
            counts[e.category] = counts.get(e.category, 0) + 1
        return counts
