"""Bench: cost of access-pattern signatures and live phase tracking.

Phase tracking folds one feature vector per epoch into an online
centroid and the end-of-run signature is a single pass over frozen heat
counts, so the whole ``repro-sig`` layer must stay cheap: the acceptance
bar is < 1.3x over the ``heat_noattr`` rung (tracer plus a 64-bucket heat
store without attribution) it rides on.

The same bench scores signature-guided adaptive sampling
(``Tracer(sample="auto")``) against a fixed stride that gets an
equal-or-larger recorded-word budget: the adaptive run must reach at
least the fixed run's per-phase shadow fidelity.

Ratios land in ``BENCH_signature.json`` and are guarded by the conftest
perf-regression check (a >25% ratio regression fails the run).
"""

from repro.telemetry.overhead import (
    measure_adaptive_fidelity,
    measure_overhead,
)


def test_signature_overhead_under_1_3x(once, bench_record):
    rows = once(measure_overhead, workloads=("sw",),
                rungs=("heat_noattr", "signature"), repeats=3)
    for r in rows:
        print(f"\n{r['workload']}: signature+phases "
              f"{r['signature_x']:.2f}x over traced")
        bench_record(f"signature_overhead_{r['workload']}", file="signature",
                     signature_x=round(max(r["signature_x"], 1.0), 3))
        assert r["signature_x"] < 1.3


def test_adaptive_fidelity_beats_fixed_at_equal_budget(bench_record):
    fid = measure_adaptive_fidelity()
    print(f"\nadaptive fidelity {fid['auto_fidelity']:.3f} "
          f"({fid['auto_recorded']} words) vs fixed "
          f"{fid['fixed_fidelity']:.3f} ({fid['fixed_recorded']} words)")
    # The fixed-stride contender records at least as many words, yet the
    # adaptive sampler reconstructs each phase's pattern no worse.
    assert fid["auto_recorded"] <= fid["fixed_recorded"]
    assert fid["auto_fidelity"] >= fid["fixed_fidelity"]
    # budget_x: adaptive recorded words per fixed recorded word -- lower
    # is better and guarded against creeping back toward full tracing.
    bench_record("adaptive_sampling", file="signature",
                 budget_x=round(
                     fid["auto_recorded"] / fid["fixed_recorded"], 3),
                 auto_fidelity=round(fid["auto_fidelity"], 4),
                 fixed_fidelity=round(fid["fixed_fidelity"], 4),
                 phase_changes=fid["phase_changes"])
