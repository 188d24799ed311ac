"""Bench: cost of temporal heat profiling (the ``repro-report`` config).

Heat recording piggybacks on accesses the tracer already intercepts, so
its marginal cost over plain tracing must stay small -- the acceptance
bar is < 2x over the ``traced`` configuration even with source-line
attribution (the expensive part: a Python stack walk per traced access
batch).
"""

from repro.telemetry.overhead import measure_overhead


def test_heat_overhead_under_2x_of_traced(once, bench_record):
    rows = once(measure_overhead, workloads=("sw",),
                rungs=("plain", "traced", "heat"), repeats=2)
    for r in rows:
        print(f"\n{r['workload']}: traced {r['traced_x']:.1f}x, "
              f"heat {r['heat_x']:.1f}x "
              f"({r['heat_vs_traced_x']:.2f}x over traced)")
        bench_record(f"heat_overhead_{r['workload']}",
                     traced_x=round(r["traced_x"], 2),
                     heat_x=round(r["heat_x"], 2),
                     heat_vs_traced_x=round(r["heat_vs_traced_x"], 3))
        assert r["heat_vs_traced_x"] < 2.0
