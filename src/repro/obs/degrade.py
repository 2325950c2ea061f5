"""Human rendering of a rewrite's graceful-degradation outcome.

The ladder (``func-ptr -> jt -> dir -> skip``,
:mod:`repro.core.modes`) records every per-function downgrade in a
``DegradationReport``; this renders one for terminal output the same
way :func:`repro.obs.engine.render_engine_report` renders a run's
telemetry.  Duck-typed on purpose — anything with ``entries`` and
``by_final_mode()`` renders — so the obs layer keeps no import edge
into ``repro.core``.
"""


def render_degradation(degradation, indent="  ", show_reason=True):
    """Lines describing a degradation report; ``[]`` when nothing
    degraded.

    The first line is a summary (``N function(s) degraded: dir=1,
    skip=2``); each following line is one function's walk down the
    ladder with its Figure-2 failure category and (when
    ``show_reason``) the analysis finding that pushed it.
    """
    if not degradation:
        return []
    by_mode = degradation.by_final_mode()
    summary = ", ".join(f"{mode}={count}"
                        for mode, count in sorted(by_mode.items()))
    lines = [f"{len(degradation.entries)} function(s) degraded: "
             f"{summary}"]
    for e in degradation.entries:
        line = (f"{indent}{e.function:<18} {e.requested} -> {e.final}"
                f"  [{e.category}]")
        if show_reason and e.reason:
            line += f" {e.reason}"
        lines.append(line)
    return lines
