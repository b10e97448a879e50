"""Tests of the benchmark's own arithmetic and tracing.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    value, pct = metrics.tail(values)
    assert value == 90.0
    assert pct == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_of_a_thousand_is_p99():
    value, pct = metrics.tail(list(range(1000)))
    assert (value, pct) == (989, 99.0)


@pytest.mark.parametrize("n", [1, 5, 20])
def test_tail_falls_back_to_median_when_too_few_samples(n):
    values = [3.0 * v for v in range(n)]
    assert metrics.tail(values) == (statistics.median(values), 50.0)


def test_tail_never_below_median_at_the_switch():
    values = list(range(21))
    value, _ = metrics.tail(values)
    assert value == statistics.median(values)


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        metrics.tail([])


def test_per_success_charges_failures_to_successes():
    # six units: four certified pairs, two failed attempts, 12 s in all
    assert metrics.per_success(12.0, 4) == 3.0
    # turning a failure into a pair lowers the figure at equal cost
    assert metrics.per_success(12.0, 5) < metrics.per_success(12.0, 4)


def test_per_success_without_success_is_the_whole_cost():
    assert metrics.per_success(7.5, 0) == 7.5


def test_failed_frac():
    assert metrics.failed_frac(2, 15) == pytest.approx(2 / 15)
    assert metrics.failed_frac(0, 3) == 0.0
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)


def test_self_time_subtracts_nested_children():
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert metrics.self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_by_key_reduces_the_repeats_of_each_operation():
    samples = [(7, 2.0), (3, 1.5), (7, 1.2), (3, 1.9), (7, 1.4)]
    assert metrics.by_key(samples, min) == {7: 1.2, 3: 1.5}
    assert list(metrics.by_key(samples, min)) == [7, 3]
    assert metrics.by_key(samples, statistics.median) == {7: 1.4, 3: 1.7}


def test_reference_brackets_average_both_sides_of_a_unit():
    assert metrics.reference_brackets([1.0, 3.0, 2.0]) == [2.0, 2.5]
    with pytest.raises(ValueError):
        metrics.reference_brackets([1.0])


def test_unit_over_reference_does_not_move_with_machine_speed():
    # the same unit and reference work on a machine at full speed and at
    # 60% of it: walls differ, the ratio does not
    fast = [(("s", "pair"), 0.6 / r) for r in metrics.reference_brackets([0.04, 0.04, 0.04])]
    slow = [(("s", "pair"), 1.0 / r) for r in metrics.reference_brackets([0.0667, 0.0667])]
    assert metrics.by_key(fast, statistics.median)[("s", "pair")] == pytest.approx(15.0)
    assert metrics.by_key(slow, statistics.median)[("s", "pair")] == pytest.approx(15.0, rel=1e-3)


def _manual_unit(tracer, unit_id, krylov):
    tracer.unit_id = unit_id
    with tracer.span("unit"):
        with tracer.span("probe"):
            with tracer.span("energy"):
                with tracer.span("fft"):
                    pass
        with tracer.span("ball"):
            with tracer.span("newton"):
                if krylov:
                    with tracer.span("lgmres"):
                        pass


def test_summary_attributes_spans_to_stages():
    tracer = Tracer()
    _manual_unit(tracer, 0, krylov=False)
    _manual_unit(tracer, 1, krylov=True)
    s = tracer.summarize([0, 1])
    assert s.count["energy"] == 2
    assert s.by_top[("probe", "energy")] == 2
    assert s.by_top[("probe", "fft")] == 2
    assert s.by_top[("ball", "newton")] == 2
    assert len(s.newton_dense) == 1 and len(s.newton_krylov) == 1
    assert s.spans == 2 * 6 + 1
    only_first = tracer.summarize([0])
    assert only_first.count["unit"] == 1 and only_first.spans == 6


def test_instrument_counts_repeat_and_restore():
    import besselmp.grid
    import besselmp.problem
    import besselmp.solvers
    from besselmp import canonical_coercive_spec

    spec = canonical_coercive_spec(n=32)
    spec.V_field  # a lazy cache filled inside unit 0 would make the units differ
    u = 0.1 * spec.xi_field
    original_energy = besselmp.solvers.energy
    original_fftn = besselmp.grid.np.fft.fftn
    tracer = Tracer()
    with instrument(tracer):
        assert besselmp.solvers.energy is not original_energy
        for unit in (0, 1):
            tracer.unit_id = unit
            with tracer.span("unit"):
                besselmp.problem.energy(spec, u)
                besselmp.problem.residual(spec, u)
    assert besselmp.solvers.energy is original_energy
    assert besselmp.grid.np.fft.fftn is original_fftn
    first = tracer.unit_counts(0)
    assert first == tracer.unit_counts(1)
    assert first["span:energy"] == 1 and first["span:residual"] == 1
    assert first["span:fft"] >= 4
    assert first["event:fft_points"] == 32 * first["span:fft"]
    s = tracer.summarize([0, 1])
    assert s.self_time["energy"] <= s.inclusive["energy"]


def test_unit_block_follows_the_workload_seed():
    import workloads

    take = lambda name, seed: workloads.unit_block(name, seed, 5)  # noqa: E731
    assert len(take("well_1d", 3)) == 5
    assert take("well_1d", 3) == take("well_1d", 3)
    assert take("well_1d", 3) != take("well_1d", 4)
    assert take("well_1d", 3) != take("coercive_1d", 3)
    assert workloads.unit_block("well_1d", 3, 2) == take("well_1d", 3)[:2]


def test_timed_passes_follow_the_seconds_argument_only():
    import workloads

    well = workloads.WORKLOADS["well_1d"]
    assert well.passes(1.0) == 1
    assert well.passes(2 * well.pass_s) == 2
    assert well.passes(2 * well.pass_s - 0.01) == 1
