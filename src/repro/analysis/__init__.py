"""Binary analysis: disassembly, CFG construction, jump tables, function
pointers, indirect-tail-call heuristics, liveness, failure injection."""

from repro.analysis.cfg import (
    BasicBlock,
    BinaryCFG,
    BRANCH,
    CALL_FALLTHROUGH,
    FALLTHROUGH,
    FunctionCFG,
    JUMP_TABLE,
    JumpTable,
    LANDING_PAD,
    TAIL_CALL,
)
from repro.analysis.construction import (
    ConstructionOptions,
    build_cfg,
    build_function_cfg,
    initial_seeds,
)
from repro.analysis.failures import (
    FIG2_CATEGORIES,
    FIG2_OVERAPPROX,
    FIG2_REPORT,
    FIG2_UNDERAPPROX,
    FailurePlan,
    audit_jump_tables,
    classify_failure,
    inject_failures,
    plan_chaos,
)
from repro.analysis.funcptr import (
    CodeConstDef,
    DataSlotDef,
    DerivedFlowDef,
    FuncPtrAnalysis,
    FunctionPtrScan,
    analyze_function_pointers,
    scan_function_pointers,
)
from repro.analysis.jumptable import JumpTableAnalyzer
from repro.analysis.liveness import LivenessAnalysis

__all__ = [
    "BasicBlock",
    "BinaryCFG",
    "FunctionCFG",
    "JumpTable",
    "BRANCH",
    "FALLTHROUGH",
    "CALL_FALLTHROUGH",
    "JUMP_TABLE",
    "TAIL_CALL",
    "LANDING_PAD",
    "build_cfg",
    "build_function_cfg",
    "initial_seeds",
    "ConstructionOptions",
    "FailurePlan",
    "inject_failures",
    "classify_failure",
    "audit_jump_tables",
    "plan_chaos",
    "FIG2_CATEGORIES",
    "FIG2_REPORT",
    "FIG2_OVERAPPROX",
    "FIG2_UNDERAPPROX",
    "analyze_function_pointers",
    "scan_function_pointers",
    "FuncPtrAnalysis",
    "FunctionPtrScan",
    "DataSlotDef",
    "CodeConstDef",
    "DerivedFlowDef",
    "JumpTableAnalyzer",
    "LivenessAnalysis",
]
