"""Exactness and caching behaviour of the incremental PathCounter.

The guarantee: after any sequence of enable/disable/drain events, the live
counts, fractions, and aggregates are identical to a fresh full-topology
DP.  The oracle is the vectorized full recount
(:class:`~repro.topology.columnar.ColumnarPathCounter`), an independent
implementation that reruns the whole DP on every query.
"""

import random

import pytest

from repro.core import PathCounter
from repro.topology import build_clos
from repro.topology.columnar import ColumnarPathCounter


def fresh_oracle(topo):
    """A full-recount counter bound live to ``topo``."""
    return ColumnarPathCounter.for_topology(topo)


class TestIncrementalMatchesFullDP:
    def test_randomized_500_step_fuzz(self):
        topo = build_clos(num_pods=3, tors_per_pod=4, aggs_per_pod=3, num_spines=9)
        counter = PathCounter(topo)
        oracle = fresh_oracle(topo)
        rng = random.Random(1234)
        links = list(topo.link_ids())

        for step in range(500):
            lid = rng.choice(links)
            roll = rng.random()
            if roll < 0.45:
                topo.disable_link(lid)
            elif roll < 0.90:
                topo.enable_link(lid)
            else:
                topo.drain_link(lid)

            # Full-state comparison every few steps (and densely at the
            # start, where regressions in the propagation order show up).
            if step < 25 or step % 7 == 0:
                assert counter.counts() == oracle.counts(), f"step {step}"
                assert counter.tor_fractions() == oracle.tor_fractions()

            # Aggregates every step: they are what the simulator records.
            fractions = oracle.tor_fractions()
            assert counter.worst_tor_fraction() == min(fractions.values())
            assert counter.average_tor_fraction() == pytest.approx(
                sum(fractions.values()) / len(fractions), abs=0.0, rel=1e-15
            )
            assert oracle.worst_tor_fraction() == counter.worst_tor_fraction()
            assert (
                oracle.average_tor_fraction() == counter.average_tor_fraction()
            )

            # Hypothetical overlays against the oracle's hypothetical DP.
            if step % 11 == 0:
                extra = frozenset(rng.sample(links, k=rng.randint(1, 5)))
                assert counter.counts(extra) == oracle.counts(extra)
                assert counter.tor_fractions(extra) == oracle.tor_fractions(
                    extra
                )

        # Final state equals a brand-new counter built from scratch.
        scratch = PathCounter(topo)
        assert counter.counts() == scratch.counts()
        assert counter.worst_tor_fraction() == scratch.worst_tor_fraction()
        assert counter.average_tor_fraction() == scratch.average_tor_fraction()
        assert oracle.counts() == scratch.counts()

    def test_average_is_bit_identical_to_recount(self):
        """The Fraction-based running sum guarantees bit-identical floats,
        not just approximate equality."""
        topo = build_clos(2, 3, 2, 4)
        counter = PathCounter(topo)
        oracle = fresh_oracle(topo)
        rng = random.Random(7)
        links = list(topo.link_ids())
        for _ in range(200):
            lid = rng.choice(links)
            (topo.disable_link if rng.random() < 0.5 else topo.enable_link)(lid)
            assert (
                counter.average_tor_fraction() == oracle.average_tor_fraction()
            )
            assert counter.worst_tor_fraction() == oracle.worst_tor_fraction()


class TestIncrementalAccounting:
    def test_incremental_visits_fewer_links(self):
        topo = build_clos(4, 8, 4, 16)
        counter = PathCounter(topo)
        counter.stats.reset()
        lid = ("pod0/tor0", "pod0/agg0")
        topo.disable_link(lid)
        counter.tor_fractions()
        # One full DP visits every link once.
        assert counter.stats.links_visited < topo.num_links / 5
        assert counter.stats.incremental_updates == 1
        assert counter.stats.full_recounts == 0

    def test_redundant_transitions_do_not_dirty(self):
        """enable on an enabled link / DISABLED->DRAINED must not trigger
        recomputation (effective state unchanged)."""
        topo = build_clos(2, 2, 2, 4)
        counter = PathCounter(topo)
        lid = ("pod0/tor0", "pod0/agg0")
        counter.stats.reset()
        topo.enable_link(lid)  # already enabled
        assert counter.stats.incremental_updates == 0
        topo.disable_link(lid)
        assert counter.stats.incremental_updates == 1
        topo.drain_link(lid)  # disabled -> drained: still not carrying
        assert counter.stats.incremental_updates == 1
        topo.enable_link(lid)
        assert counter.stats.incremental_updates == 2

    def test_affected_tors_cache_invalidated_on_admin_change(self):
        topo = build_clos(2, 3, 2, 4)
        counter = PathCounter(topo)
        agg_spine = ("pod0/agg0", "spine0")
        assert counter.affected_tors(agg_spine) == {
            "pod0/tor0",
            "pod0/tor1",
            "pod0/tor2",
        }
        # Cutting a ToR's downlink shields it; the memo must not leak the
        # stale answer.
        topo.disable_link(("pod0/tor0", "pod0/agg0"))
        assert "pod0/tor0" not in counter.affected_tors(agg_spine)

    def test_structural_change_rebuilds_baseline(self):
        from repro.topology import Switch, Topology

        topo = Topology(num_stages=2)
        topo.add_switch(Switch("t0", stage=0))
        topo.add_switch(Switch("s0", stage=1))
        topo.add_link("t0", "s0")
        counter = PathCounter(topo)
        assert counter.baseline_for("t0") == 1
        topo.add_switch(Switch("s1", stage=1))
        topo.add_link("t0", "s1")
        assert counter.baseline_for("t0") == 2
        assert counter.counts()["t0"] == 2

    def test_notify_link_change_for_direct_mutation(self):
        from repro.topology import LinkState

        topo = build_clos(2, 2, 2, 4)
        counter = PathCounter(topo)
        lid = ("pod0/tor0", "pod0/agg0")
        topo.link(lid).state = LinkState.DISABLED  # bypasses the topology API
        counter.notify_link_change(lid)
        assert counter.counts()["pod0/tor0"] == 2

    def test_detach_stops_updates(self):
        topo = build_clos(2, 2, 2, 4)
        counter = PathCounter(topo)
        counter.detach()
        counter.stats.reset()
        topo.disable_link(("pod0/tor0", "pod0/agg0"))
        assert counter.stats.incremental_updates == 0
