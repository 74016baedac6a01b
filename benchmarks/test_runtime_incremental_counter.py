"""Runtime claim: incremental path counting on the hot path.

The mitigation loop (fast check on every onset, optimizer sweep on every
activation, capacity snapshot after every event) answers each path-count
query from the incremental :class:`PathCounter`: live counts plus a
dirty-region walk per admin flip or hypothetical query.  Rerunning the
O(|E|) valley-free DP per query would visit ``|E|`` links each time, so a
full trace replay must visit at least 5x fewer links than
``|E| x (incremental updates + overlay queries)``.

The link-visit totals are deterministic and pinned exactly.  Reports them
on the medium and large DCN presets to
``benchmarks/results/runtime_incremental_counter.txt``.
"""

import time

import pytest

from conftest import (
    EVENTS_PER_10K,
    LARGE_SCALE,
    MEDIUM_SCALE,
    write_benchmark_json,
    write_report,
)

from repro.simulation import CorrOptStrategy, MitigationSimulation, make_scenario
from repro.workloads import LARGE_DCN, MEDIUM_DCN

#: Shorter horizon than the 60-day figure scenarios, to keep CI quick.
BENCH_DAYS = 20

#: Links the incremental counter visits over each replay (deterministic).
EXPECTED_LINKS_VISITED = {"medium": 29_576, "large": 29_998}

_REPORT_LINES = [
    "Incremental PathCounter over a full CorrOpt trace replay, against the "
    "cost of one O(|E|) DP per query",
    f"(c=75%, {BENCH_DAYS}-day traces, {EVENTS_PER_10K} events/10k links/day; "
    "identical seeds per preset)",
    "",
]
_METRICS = {}


def _scenario(profile, scale, seed):
    return make_scenario(
        profile=profile,
        scale=scale,
        duration_days=BENCH_DAYS,
        seed=seed,
        capacity=0.75,
        events_per_10k_links_per_day=EVENTS_PER_10K,
    )


def _replay(scenario):
    topo = scenario.topo_factory()
    strategy = CorrOptStrategy(topo, scenario.constraint())
    strategy.counter.stats.reset()
    sim = MitigationSimulation(
        topo, scenario.trace, strategy, repair_accuracy=0.8, seed=7
    )
    start = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - start
    assert sim.pipeline._counter is strategy.counter  # one shared DP per run
    return topo, wall_s, strategy.counter.stats


def _measure(name, scenario):
    topo, wall, stats = _replay(scenario)
    queries = stats.incremental_updates + stats.overlay_queries
    full_dp_cost = topo.num_links * queries
    visit_ratio = full_dp_cost / max(stats.links_visited, 1)
    _REPORT_LINES.extend(
        [
            f"{name}: {topo.num_links} links, "
            f"{len(scenario.trace)} trace events",
            f"  queries: incremental updates={stats.incremental_updates:,} "
            f"overlay queries={stats.overlay_queries:,}",
            f"  link visits: one DP per query={full_dp_cost:,} "
            f"incremental={stats.links_visited:,} ratio={visit_ratio:.1f}x",
            f"  wall clock: incremental={wall:.2f}s",
            "",
        ]
    )
    tag = name.split()[0]
    _METRICS[f"visit_ratio_{tag}"] = round(visit_ratio, 2)
    _METRICS[f"links_visited_full_dp_{tag}"] = full_dp_cost
    _METRICS[f"links_visited_incremental_{tag}"] = stats.links_visited
    _METRICS[f"incremental_updates_{tag}"] = stats.incremental_updates
    _METRICS[f"overlay_queries_{tag}"] = stats.overlay_queries
    assert stats.links_visited == EXPECTED_LINKS_VISITED[tag]
    return visit_ratio


@pytest.fixture(scope="module")
def medium_bench_scenario():
    return _scenario(MEDIUM_DCN, MEDIUM_SCALE, seed=100)


@pytest.fixture(scope="module")
def large_bench_scenario():
    return _scenario(LARGE_DCN, LARGE_SCALE, seed=101)


def test_medium_dcn_speedup(medium_bench_scenario):
    # Acceptance bar: >= 5x fewer link visits than one DP per query.
    assert _measure("medium DCN", medium_bench_scenario) >= 5.0


def test_large_dcn_speedup(large_bench_scenario):
    assert _measure("large DCN", large_bench_scenario) >= 5.0


def test_write_report(medium_bench_scenario, large_bench_scenario):
    """Runs last: persist whatever the two measurements appended."""
    assert len(_REPORT_LINES) > 3, "measurements did not run"
    write_report("runtime_incremental_counter", _REPORT_LINES)
    write_benchmark_json(
        "runtime_incremental_counter",
        _METRICS,
        config={"days": BENCH_DAYS, "events_per_10k": EVENTS_PER_10K},
    )
