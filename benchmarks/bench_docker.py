"""Section 8.2 — the Docker experiment (Go binaries).

Validates the paper's Go findings: dir == jt (no jump tables), 100%
coverage, correct runtime tracebacks via RA translation, and noticeably
higher overhead than SPEC because function pointers stay unrewritten.
Where the paper's func-ptr mode failed on Go's runtime-built .vtab
function tables, the degradation ladder here moves the one function
holding them down a rung: func-ptr passes, with that function degraded
and coverage below 100%.
"""

from repro.eval import docker_experiment


def test_docker(benchmark, print_section):
    result = benchmark.pedantic(docker_experiment, rounds=1,
                                iterations=1)

    d = result.tool_runs["dir"]
    j = result.tool_runs["jt"]
    f = result.tool_runs["func-ptr"]
    egalito = result.tool_runs["ir-lowering"]

    assert d.passed and j.passed
    assert abs(d.overhead - j.overhead) < 1e-9   # dir == jt for Go
    assert d.coverage == 1.0                      # paper: 100%
    # .vtab tables: the ladder degrades their one function.
    assert f.passed
    assert f.degraded_functions == 1
    assert f.coverage < 1
    assert any("1 function(s) degraded (imprecise pointer analysis)"
               in note for note in result.notes)
    assert not egalito.passed                     # Go metadata/unwinding
    assert d.overhead > 0.015  # pointers unrewritten -> bounces

    lines = [
        f"{'tool':<12} {'result':<10} {'overhead':>9} {'cov':>8} "
        f"{'size':>8}",
        "-" * 52,
        f"{'dir':<12} {'pass':<10} {d.overhead:>8.2%} "
        f"{d.coverage:>7.1%} {d.size_increase:>7.1%}",
        f"{'jt':<12} {'pass':<10} {j.overhead:>8.2%} "
        f"{j.coverage:>7.1%} {j.size_increase:>7.1%}",
        f"{'func-ptr':<12} {'DEGRADED':<10} {f.overhead:>8.2%} "
        f"{f.coverage:>7.1%} {f.size_increase:>7.1%}",
        f"{'egalito-like':<12} {'FAILED':<10} ({egalito.error[:45]})",
        "",
        *result.notes,
    ]
    print_section("Section 8.2: Docker-like experiment (Go)",
                  "\n".join(lines))
