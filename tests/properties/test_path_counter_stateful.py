"""Stateful differential test: incremental PathCounter vs full recounts.

Hypothesis drives arbitrary sequences of admin changes, direct
``Link.state`` writes, structure changes, LinkGuardian protection,
``copy()`` and JSON / ``.npz`` round trips.  After every step the live
:class:`PathCounter` must agree exactly with
:class:`~repro.topology.columnar.ColumnarPathCounter` (an independent
vectorized DP rerun per query), and its LinkGuardian-aware ``effective_*``
values with the naive float DP below.
"""

import json
import os
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import PathCounter
from repro.topology import (
    LinkState,
    Switch,
    build_clos,
    load_topology_npz,
    save_topology_npz,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.columnar import ColumnarPathCounter

INDEX = st.integers(min_value=0, max_value=10**6)


def naive_effective_fractions(topo):
    """ToR fractions of ``Σ effective_capacity · count[upper]`` over design."""
    top = topo.num_stages - 1
    eff, base = {}, {}
    for stage in range(top, -1, -1):
        for name in topo.stage(stage):
            links = [topo.link(lid) for lid in topo.uplinks(name)]
            eff[name] = 1.0 if stage == top else sum(
                l.effective_capacity_fraction() * eff[l.upper] for l in links
            )
            base[name] = 1 if stage == top else sum(base[l.upper] for l in links)
    return {
        tor: eff[tor] / base[tor] if base[tor] else 0.0 for tor in topo.tors()
    }


class PathCounterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.added = 0
        self._bind(build_clos(2, 3, 2, 4))

    def _bind(self, topo):
        self.topo = topo
        self.counter = PathCounter(topo)
        self.reference = ColumnarPathCounter.for_topology(topo)

    def _rebind(self, topo):
        """Move to a rebuilt topology; its fresh counters must agree."""
        before = self.counter
        self._bind(topo)
        assert self.counter.counts() == before.counts()
        assert self.counter.effective_tor_fractions() == (
            before.effective_tor_fractions()
        )

    def _link(self, index):
        links = list(self.topo.link_ids())
        return links[index % len(links)]

    @rule(index=INDEX, action=st.sampled_from(["disable", "enable", "drain"]))
    def admin_change(self, index, action):
        getattr(self.topo, f"{action}_link")(self._link(index))

    @rule(index=INDEX, state=st.sampled_from(list(LinkState)))
    def write_state_directly(self, index, state):
        lid = self._link(index)
        self.topo.link(lid).state = state
        self.counter.notify_link_change(lid)
        self.reference.notify_link_change(lid)

    @rule(index=INDEX, new_tor=st.booleans())
    def add_link(self, index, new_tor):
        """A structure change: a new ToR under an agg, or a new uplink."""
        topo = self.topo
        if new_tor:
            name = f"extra/tor{self.added}"
            self.added += 1
            topo.add_switch(Switch(name, stage=0, pod="pod0"))
            aggs = topo.stage(1)
            topo.add_link(name, aggs[index % len(aggs)])
            return
        existing = set(topo.link_ids())
        missing = [
            (lower, upper)
            for stage in range(topo.num_stages - 1)
            for lower in topo.stage(stage)
            for upper in topo.stage(stage + 1)
            if (lower, upper) not in existing
        ]
        if missing:
            topo.add_link(*missing[index % len(missing)])

    @rule(
        index=INDEX,
        fraction=st.sampled_from([0.25, 0.5, 0.9, 1.0]),
        loss=st.sampled_from([0.0, 1e-8]),
    )
    def protect(self, index, fraction, loss):
        lid = self._link(index)
        if self.topo.link(lid).enabled:
            self.topo.set_lg_capable(lid, True)
            self.topo.protect_link(lid, loss, fraction)

    @rule(index=INDEX)
    def unprotect(self, index):
        self.topo.unprotect_link(self._link(index))

    @rule()
    def copy(self):
        self._rebind(self.topo.copy())

    @rule()
    def json_round_trip(self):
        data = json.loads(json.dumps(topology_to_dict(self.topo)))
        self._rebind(topology_from_dict(data))

    @rule()
    def npz_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "topo.npz")
            save_topology_npz(self.topo, path)
            self._rebind(load_topology_npz(path))

    @rule(data=st.data())
    def hypothetical_query(self, data):
        tors = data.draw(
            st.lists(st.sampled_from(self.topo.tors()), min_size=1, max_size=4)
        )
        extra = frozenset(
            data.draw(
                st.lists(st.sampled_from(list(self.topo.link_ids())), max_size=5)
            )
        )
        assert self.counter.restricted_fractions(tors, extra) == (
            self.reference.tor_fractions(extra, tors)
        )
        assert self.counter.counts(extra) == self.reference.counts(extra)

    @invariant()
    def live_state_matches_full_recount(self):
        counter, reference = self.counter, self.reference
        assert counter.baseline() == reference.baseline()
        assert counter.counts() == reference.counts()
        assert counter.tor_fractions() == reference.tor_fractions()
        assert counter.worst_tor_fraction() == reference.worst_tor_fraction()
        assert (
            counter.average_tor_fraction() == reference.average_tor_fraction()
        )

    @invariant()
    def effective_matches_naive_dp(self):
        naive = naive_effective_fractions(self.topo)
        counter = self.counter
        assert counter.effective_tor_fractions() == naive
        assert counter.effective_worst_tor_fraction() == min(naive.values())
        assert counter.effective_average_tor_fraction() == pytest.approx(
            sum(naive.values()) / len(naive), rel=1e-12
        )


PathCounterMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
test_path_counter_stateful = PathCounterMachine.TestCase
