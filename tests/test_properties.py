"""Property-based end-to-end tests.

The heavyweight invariant of the whole system: for *randomly generated*
IR programs, the IR interpretation, the compiled binary, and the
rewritten (strong-test) binary all behave identically — on every
architecture, in every mode, PIE or not.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import RewriteMode, rewrite_binary
from repro.machine import run_binary
from repro.toolchain import compile_program, interpret, ir
from repro.util.errors import ReproError, RewriteError

# ---------------------------------------------------------------------------
# random IR program generation
# ---------------------------------------------------------------------------

_SMALL = st.integers(-1000, 1000)
_VARS = ("a", "b", "c", "d")
_OPS = ("+", "-", "*", "&", "|", "^")


def _expr(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_VARS))
    return draw(_SMALL)


#: Statements one generated program may hold.  Each ``Switch`` draws
#: four to six case bodies, so unbounded nesting can overrun
#: Hypothesis' draw buffer; past the budget only straight-line
#: statements are drawn.
_STMT_BUDGET = 24


@st.composite
def _stmts(draw, depth, allow_calls, budget):
    """1-4 statements nested at most ``depth`` deep; ``budget`` is the
    program's one-element list of statements left to draw."""
    count = draw(st.integers(1, 4)) if budget[0] > 0 else 1
    out = []
    for _ in range(count):
        budget[0] -= 1
        nest = depth > 0 and budget[0] > 0
        kind = draw(st.integers(0, 6 if nest else 3))
        if kind == 0:
            out.append(ir.SetConst(draw(st.sampled_from(_VARS)),
                                   draw(_SMALL)))
        elif kind == 1:
            out.append(ir.BinOp(draw(st.sampled_from(_VARS)),
                                draw(st.sampled_from(_OPS)),
                                _expr(draw), _expr(draw)))
        elif kind == 2 and allow_calls:
            out.append(ir.Call(draw(st.sampled_from(_VARS)), "callee",
                               [_expr(draw)]))
        elif kind == 3 and allow_calls:
            out.append(ir.CallPtr(draw(st.sampled_from(_VARS)),
                                  "fptab",
                                  draw(st.integers(0, 1)),
                                  args=[_expr(draw)]))
        elif kind == 4:
            out.append(ir.If(_expr(draw),
                             draw(st.sampled_from(
                                 ("==", "!=", "<", ">=", ))),
                             _expr(draw),
                             draw(_stmts(depth - 1, allow_calls, budget)),
                             draw(_stmts(depth - 1, allow_calls, budget))
                             if draw(st.booleans()) else []))
        elif kind == 5:
            ncases = draw(st.integers(4, 6))
            out.append(ir.Switch(
                draw(st.sampled_from(_VARS)),
                [draw(_stmts(depth - 1, allow_calls, budget))
                 for _ in range(ncases)],
                default=draw(_stmts(depth - 1, allow_calls, budget)),
            ))
        else:
            out.append(ir.Loop(
                "i", draw(st.integers(1, 5)),
                draw(_stmts(depth - 1, allow_calls, budget)),
            ))
    return out


@st.composite
def programs(draw):
    budget = [_STMT_BUDGET]
    body = [ir.SetConst(v, i + 1) for i, v in enumerate(_VARS)]
    # clamp switch selectors: mask every var occasionally
    body += draw(_stmts(2, True, budget))
    body += [ir.Print(v) for v in _VARS]
    body.append(ir.Return("a"))
    callee_body = [ir.BinOp("r", "&", "x", 0xFF)]
    callee_body += [ir.SetConst(v, i + 5) for i, v in enumerate(_VARS)]
    callee_body += draw(_stmts(1, False, [_STMT_BUDGET]))
    callee_body.append(ir.Return("r"))
    return ir.Program(
        name="prop",
        globals=[ir.GlobalVar("fptab", ["&callee", "&other"])],
        functions=[
            ir.Function("callee", params=["x"], body=callee_body),
            ir.Function("other", params=["x"],
                        body=[ir.BinOp("r", "+", "x", 13),
                              ir.Return("r")]),
            ir.Function("main", body=body),
        ],
    )


# Loop variable "i" may collide with _VARS usage inside bodies: it cannot
# (different names), and nested loops reuse "i" — same semantics in the
# interpreter and in compiled code.


@pytest.mark.parametrize("arch", ["x86", "ppc64", "aarch64"])
@given(program=programs(), pie=st.booleans())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_property_compile_matches_interp(arch, program, pie):
    try:
        oracle = interpret(program, step_limit=400_000)
    except Exception:
        return  # malformed draw (e.g. step budget); not interesting
    try:
        binary = compile_program(program, arch, pie=pie)
    except ReproError:
        return  # legitimate refusal (e.g. code-size budget)
    result = run_binary(binary, step_limit=4_000_000)
    assert (result.exit_code, result.output) == oracle


@pytest.mark.parametrize("arch", ["x86", "ppc64", "aarch64"])
@given(program=programs(),
       mode=st.sampled_from([RewriteMode.DIR, RewriteMode.JT,
                             RewriteMode.FUNC_PTR]),
       pie=st.booleans())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_property_rewrite_preserves_behaviour(arch, program, mode, pie):
    try:
        oracle = interpret(program, step_limit=400_000)
    except Exception:
        return
    try:
        binary = compile_program(program, arch, pie=pie)
    except ReproError:
        return  # legitimate refusal (e.g. code-size budget)
    try:
        rewritten, report, runtime = rewrite_binary(
            binary, mode, scorch_original=True
        )
    except RewriteError:
        return  # legitimate refusal
    result = run_binary(rewritten, runtime_lib=runtime,
                        step_limit=8_000_000)
    assert (result.exit_code, result.output) == oracle
