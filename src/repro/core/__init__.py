"""Incremental CFG patching — the paper's contribution."""

from repro.core.cfl import CflAnalysis
from repro.core.instrumentation import (
    CallOutCountingInstrumentation,
    CountingInstrumentation,
    EmptyInstrumentation,
    Instrumentation,
)
from repro.core.layout import prepare_output, section_layout_report
from repro.core.modes import (
    DegradationReport,
    FunctionDegradation,
    MODE_LADDER,
    MODE_SKIP,
    RewriteMode,
    ladder_rung,
)
from repro.core.placement import (
    PlacementResult,
    Superblock,
    place_trampolines,
)
from repro.core.relocate import Relocator
from repro.core.rewriter import (
    FailedFunction,
    IncrementalRewriter,
    PIPELINE_STAGES,
    RewriteReport,
    rewrite_binary,
)
from repro.core.runtime_lib import RuntimeLibrary
from repro.core.trampolines import (
    ScratchPool,
    TrampolineInstaller,
    TrampolineStats,
    catalog,
)

__all__ = [
    "RewriteMode",
    "MODE_LADDER",
    "MODE_SKIP",
    "ladder_rung",
    "DegradationReport",
    "FunctionDegradation",
    "IncrementalRewriter",
    "RewriteReport",
    "FailedFunction",
    "PIPELINE_STAGES",
    "rewrite_binary",
    "RuntimeLibrary",
    "CflAnalysis",
    "place_trampolines",
    "PlacementResult",
    "Superblock",
    "Relocator",
    "ScratchPool",
    "TrampolineInstaller",
    "TrampolineStats",
    "catalog",
    "Instrumentation",
    "EmptyInstrumentation",
    "CountingInstrumentation",
    "CallOutCountingInstrumentation",
    "prepare_output",
    "section_layout_report",
]
