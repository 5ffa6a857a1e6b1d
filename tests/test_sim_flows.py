"""Tests for the fluid network model (max-min fair sharing)."""

import pytest

from repro.fabric.base import RegionNetwork
from repro.sim.flows import Flow, FluidNetwork, total_path_bytes


def make_region():
    region = RegionNetwork(servers=[0, 1])
    region.add_link("a", capacity_gbps=8.0)  # 1e9 bytes/s
    region.add_link("b", capacity_gbps=8.0)
    region.add_link("c", capacity_gbps=4.0)  # 0.5e9 bytes/s
    region.intra_links = {0: "a", 1: "b"}
    return region


class TestFlow:
    def test_flow_initialisation(self):
        flow = Flow("f", 100.0, ["a"])
        assert flow.remaining_bytes == 100.0
        assert not flow.finished

    def test_invalid_flow(self):
        with pytest.raises(ValueError):
            Flow("f", -1.0, ["a"])
        with pytest.raises(ValueError):
            Flow("f", 1.0, [])


class TestRateAllocation:
    def test_single_flow_gets_link_capacity(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.compute_rates()
        assert net.flows["f1"].rate == pytest.approx(1e9)

    def test_two_flows_share_fairly(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 1e9, ["a"]))
        net.compute_rates()
        assert net.flows["f1"].rate == pytest.approx(0.5e9)
        assert net.flows["f2"].rate == pytest.approx(0.5e9)

    def test_max_min_fairness_with_bottleneck(self):
        """A flow constrained elsewhere releases bandwidth to its competitors."""
        net = FluidNetwork(make_region())
        net.add_flow(Flow("narrow", 1e9, ["a", "c"]))  # bottlenecked by c
        net.add_flow(Flow("wide", 1e9, ["a"]))
        net.compute_rates()
        assert net.flows["narrow"].rate == pytest.approx(0.5e9)
        assert net.flows["wide"].rate == pytest.approx(0.5e9, rel=1e-6)

    def test_unknown_link_rejected(self):
        net = FluidNetwork(make_region())
        with pytest.raises(KeyError):
            net.add_flow(Flow("f", 10.0, ["nope"]))

    def test_duplicate_flow_id_rejected(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f", 10.0, ["a"]))
        with pytest.raises(ValueError):
            net.add_flow(Flow("f", 10.0, ["a"]))


class TestProgression:
    def test_time_to_next_completion(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 2e9, ["b"]))
        assert net.time_to_next_completion() == pytest.approx(1.0)

    def test_advance_completes_flows_in_order(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 2e9, ["b"]))
        finished = net.advance(1.0)
        assert [f.flow_id for f in finished] == ["f1"]
        finished = net.advance(net.time_to_next_completion())
        assert [f.flow_id for f in finished] == ["f2"]
        assert net.active_flow_count() == 0

    def test_rates_rebalance_after_completion(self):
        net = FluidNetwork(make_region())
        net.add_flow(Flow("f1", 0.5e9, ["a"]))
        net.add_flow(Flow("f2", 2e9, ["a"]))
        net.advance(net.time_to_next_completion())
        net.compute_rates()
        assert net.flows["f2"].rate == pytest.approx(1e9)

    def test_empty_network(self):
        net = FluidNetwork(make_region())
        assert net.time_to_next_completion() is None
        assert net.advance(1.0) == []

    def test_dark_link_blocks_progress(self):
        region = make_region()
        net = FluidNetwork(region)
        net.add_flow(Flow("f", 1e9, ["a"]))
        region.set_capacity("a", 0.0)
        net.mark_topology_changed()
        assert net.time_to_next_completion() is None

    def test_capacity_change_takes_effect(self):
        region = make_region()
        net = FluidNetwork(region)
        net.add_flow(Flow("f", 1e9, ["a"]))
        region.set_capacity("a", 16.0)
        net.mark_topology_changed()
        assert net.time_to_next_completion() == pytest.approx(0.5)

    def test_negative_advance_rejected(self):
        net = FluidNetwork(make_region())
        with pytest.raises(ValueError):
            net.advance(-0.1)

    def test_conservation_of_bytes(self):
        """The sum of transferred bytes equals the injected volume."""
        net = FluidNetwork(make_region())
        sizes = [0.3e9, 0.7e9, 1.1e9]
        for index, size in enumerate(sizes):
            net.add_flow(Flow(f"f{index}", size, ["a"]))
        transferred = 0.0
        for _ in range(10):
            dt = net.time_to_next_completion()
            if dt is None:
                break
            rates = {fid: flow.rate for fid, flow in net.flows.items()}
            finished = net.advance(dt)
            transferred += sum(rates[fid] * dt for fid in rates)
            if not net.active_flow_count():
                break
        assert transferred == pytest.approx(sum(sizes), rel=1e-6)


class TestHelpers:
    def test_total_path_bytes(self):
        flows = [Flow("f1", 10.0, ["a", "c"]), Flow("f2", 5.0, ["a"])]
        usage = total_path_bytes(flows)
        assert usage == {"a": 15.0, "c": 10.0}


class TestDenseRoundBoundary:
    """Native kernel against the scalar reference on random networks of
    511-513 flows over 48 links: many more flows and water-filling rounds
    per solve than the property suite's small topologies."""

    @staticmethod
    def build_network(solver, num_flows, seed=1234):
        import random

        rng = random.Random(seed)
        region = RegionNetwork(servers=[0])
        num_links = 48
        link_ids = [f"l{i}" for i in range(num_links)]
        for link_id in link_ids:
            region.add_link(link_id, capacity_gbps=rng.choice([4.0, 8.0, 16.0]))
        net = FluidNetwork(region, solver=solver)
        for i in range(num_flows):
            hops = rng.sample(link_ids, rng.randint(1, 3))
            net.add_flow(Flow(f"f{i}", 1e6 * rng.randint(1, 50), hops))
        return net

    @pytest.mark.parametrize("num_flows", [511, 512, 513])
    def test_solvers_agree_at_boundary(self, num_flows):
        reference = self.build_network("scalar", num_flows)
        reference.compute_rates()
        candidate = self.build_network("native", num_flows)
        candidate.compute_rates()
        for flow_id, ref_flow in reference.flows.items():
            rate = candidate.flows[flow_id].rate
            assert rate == pytest.approx(ref_flow.rate, rel=1e-9), (
                flow_id, num_flows,
            )

    @pytest.mark.parametrize("num_flows", [511, 513])
    def test_advance_matches_across_boundary(self, num_flows):
        """Completion steps keep the solvers in lockstep as flows retire."""
        reference = self.build_network("scalar", num_flows)
        candidate = self.build_network("native", num_flows)
        for _ in range(3):
            dt_ref = reference.time_to_next_completion()
            dt_new = candidate.time_to_next_completion()
            assert dt_new == pytest.approx(dt_ref, rel=1e-9)
            done_ref = [f.flow_id for f in reference.advance(dt_ref)]
            done_new = [f.flow_id for f in candidate.advance(dt_new)]
            assert done_ref == done_new


class TestNativeOOMFallback:
    """WF_OOM must surface as a warning + scalar fallback, never as silent
    all-zero rates (which used to reappear later as a bogus executor
    "deadlock" RuntimeError)."""

    class _OOMLib:
        """Proxies the real kernel but reports scratch OOM from every entry."""

        def __init__(self, real):
            self._real = real

        def __getattr__(self, name):
            return getattr(self._real, name)

        def waterfill(self, *args):
            return 1  # WF_OOM

        def waterfill_batch(self, *args):
            return 1  # WF_OOM

    @staticmethod
    def _native_network():
        from repro.sim._native import native_available

        if not native_available():
            pytest.skip("native kernel unavailable")
        net = FluidNetwork(make_region(), solver="native")
        assert net._native_ready()
        return net

    def test_solve_falls_back_with_warning(self):
        net = self._native_network()
        lib, ffi = net._native_loaded
        net._native_loaded = (self._OOMLib(lib), ffi)
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 1e9, ["a"]))
        with pytest.warns(RuntimeWarning, match="could not allocate scratch"):
            net.compute_rates()
        # Correct rates from the scalar solver, and the network is demoted so
        # the failing allocation is not retried every solve.
        assert net.flows["f1"].rate == pytest.approx(0.5e9)
        assert net.flows["f2"].rate == pytest.approx(0.5e9)
        assert net.solver == "scalar"

    def test_batched_advance_falls_back_with_warning(self):
        from repro.sim.flows import FlowAdvanceRequest, service_advance_requests

        reference = self._native_network()
        reference.add_flow(Flow("f1", 1e9, ["a"]))
        reference.add_flow(Flow("f2", 2e9, ["b"]))
        expected = service_advance_requests(
            [FlowAdvanceRequest(reference, now=0.0, budget=None)]
        )[0]

        net = self._native_network()
        lib, ffi = net._native_loaded
        net._native_loaded = (self._OOMLib(lib), ffi)
        net.add_flow(Flow("f1", 1e9, ["a"]))
        net.add_flow(Flow("f2", 2e9, ["b"]))
        with pytest.warns(RuntimeWarning, match="could not allocate scratch"):
            outcome = service_advance_requests(
                [FlowAdvanceRequest(net, now=0.0, budget=None)]
            )[0]
        assert outcome.now == pytest.approx(expected.now, rel=1e-12)
        assert outcome.reason == expected.reason
        assert [f.flow_id for f in outcome.finished] == [
            f.flow_id for f in expected.finished
        ]
        assert net.solver == "scalar"


def test_native_without_kernel_degrades_to_scalar(monkeypatch):
    """With no loadable kernel, "native" and "auto" resolve to the scalar
    solver, and a native network whose kernel fails to load at its first
    solve demotes itself to scalar and gives the scalar rates."""
    import repro.sim._native as native_mod
    from repro.sim.flows import resolve_solver

    reference = TestDenseRoundBoundary.build_network("scalar", 64)
    reference.compute_rates()
    if native_mod.native_available():
        net = TestDenseRoundBoundary.build_network("native", 64)
        assert net.solver == "native"
        monkeypatch.setattr(native_mod, "native_lib", lambda: None)
        net.compute_rates()
        assert net.solver == "scalar"
        assert {f.flow_id: f.rate for f in net.flows.values()} == {
            f.flow_id: f.rate for f in reference.flows.values()
        }
        # The folded advance services the demoted network in Python.
        outcome = net.advance_through(0.0)
        assert outcome.reason == "idle" and not net.active_flow_count()
    monkeypatch.setattr(native_mod, "native_available", lambda: False)
    assert resolve_solver("native") == "scalar"
    assert resolve_solver("auto") == "scalar"


class TestIncrementalReplay:
    """The batch kernel's freeze-level replay must retrace the per-event
    path exactly.

    Between consecutive events of a block only flow retirements change the
    water-filling inputs, and a retired flow was unfrozen during every round
    before its freeze level, so rounds below the minimum retired level are
    bit-identical and the kernel replays them from the recorded freeze order
    instead of re-running their argmin scans (DESIGN.md §10).  These tests
    pin ``waterfill_batch`` bit for bit against the per-event path
    (``_advance_python`` over a native network, which solves every event
    with the one-shot ``waterfill`` entry), check it against the scalar
    reference, and check that the replay actually engages.
    """

    @staticmethod
    def _native_or_skip():
        from repro.sim._native import native_available

        if not native_available():
            pytest.skip("native kernel unavailable")

    @staticmethod
    def _drain(net):
        outcome = net.advance_through(0.0)
        return (
            outcome.now,
            [flow.flow_id for flow in outcome.finished],
            outcome.steps,
            outcome.reason,
            outcome.solve_rounds,
            outcome.rounds_replayed,
        )

    @staticmethod
    def _fresh_solve_rounds(net):
        """Rounds a from-scratch solve per event would run over a drain: one
        zero-step batch call per event solves the current flow set with no
        freeze record, then the event is taken on the per-event path."""
        from repro.sim.flows import FlowAdvanceRequest, service_advance_requests

        total = 0
        while True:
            probe = service_advance_requests(
                [FlowAdvanceRequest(net, now=0.0, max_steps=0)]
            )[0]
            assert probe.rounds_replayed == 0
            total += probe.solve_rounds
            if probe.reason != "steps":
                return total
            net.advance(net.time_to_next_completion())

    @pytest.mark.parametrize("num_flows", [8, 64, 511, 512, 513])
    @pytest.mark.parametrize("seed", [1234, 7, 2024])
    def test_batch_matches_per_event_path_bit_exactly(self, seed, num_flows):
        from repro.sim.flows import FlowAdvanceRequest, _advance_python

        self._native_or_skip()
        build = TestDenseRoundBoundary.build_network
        batch = self._drain(build("native", num_flows, seed))
        per_event = _advance_python(
            FlowAdvanceRequest(build("native", num_flows, seed), now=0.0)
        )
        # now / finish order / steps / reason, all bit-exact.
        assert batch[:4] == (
            per_event.now,
            [flow.flow_id for flow in per_event.finished],
            per_event.steps,
            per_event.reason,
        )
        assert len(batch[1]) == num_flows  # the whole block drained
        # The replay engaged and saved argmin scans: rounds inherited from
        # the freeze record are > 0, and the rounds executed are strictly
        # fewer than a fresh solve per event runs.
        if batch[2] > 1:
            assert batch[5] > 0
            assert batch[4] < self._fresh_solve_rounds(
                build("native", num_flows, seed)
            )

    @pytest.mark.parametrize("num_flows", [511, 513])
    def test_incremental_agrees_with_python_reference(self, num_flows):
        self._native_or_skip()
        build = TestDenseRoundBoundary.build_network
        ref = self._drain(build("scalar", num_flows))
        inc = self._drain(build("native", num_flows))
        assert inc[0] == pytest.approx(ref[0], rel=1e-9)
        assert inc[1] == ref[1]
        assert inc[2:4] == ref[2:4]

    def test_incremental_survives_midstream_admission(self):
        """Admission between batched calls rebuilds the CSR; the freeze
        record is per-call state, so the second call must restart cold and
        still match the per-event path bit for bit (and the scalar
        reference to 1e-9)."""
        from repro.sim.flows import (
            FlowAdvanceRequest,
            _advance_python,
            service_advance_requests,
        )

        self._native_or_skip()
        build = TestDenseRoundBoundary.build_network
        traces = []
        for solver, advance in (
            ("native", lambda r: service_advance_requests([r])[0]),
            ("native", _advance_python),
            ("scalar", _advance_python),
        ):
            candidate = build(solver, 64)
            trace = []
            # First span stops mid-block on the time budget (the whole
            # block drains at t = 0.27 s)...
            outcome = advance(FlowAdvanceRequest(candidate, now=0.0, budget=0.1))
            trace.append((outcome.now, [f.flow_id for f in outcome.finished],
                          outcome.steps, outcome.reason))
            # ...then an admission rebuilds the CSR mid-stream...
            candidate.add_flow(Flow("late", 5e7, ["l0", "l1"]))
            # ...and the rest drains through a second span.
            outcome = advance(
                FlowAdvanceRequest(candidate, now=outcome.now, budget=None)
            )
            trace.append((outcome.now, [f.flow_id for f in outcome.finished],
                          outcome.steps, outcome.reason))
            traces.append(trace)
        batch_trace, per_event_trace, scalar_trace = traces
        assert batch_trace == per_event_trace
        for (now_n, done_n, steps_n, why_n), (now_r, done_r, steps_r, why_r) in zip(
            batch_trace, scalar_trace
        ):
            assert now_n == pytest.approx(now_r, rel=1e-9)
            assert done_n == done_r
            assert (steps_n, why_n) == (steps_r, why_r)
        assert batch_trace[0][3] == "budget"
        assert "late" in batch_trace[1][1]


class TestCompileRace:
    """Two processes (here: threads, same flock semantics) entering
    _compile() concurrently must produce one build, not clobber each other:
    the loser blocks on the lock, re-checks, and adopts the winner's
    published artifact."""

    class _SlowFakeFFI:
        builds = []

        def cdef(self, *_args, **_kwargs):
            pass

        def set_source(self, _name, _source, **_kwargs):
            pass

        def compile(self, tmpdir, verbose=False):
            import os
            import time

            TestCompileRace._SlowFakeFFI.builds.append(tmpdir)
            time.sleep(0.3)  # hold the lock long enough for the loser to queue
            path = os.path.join(tmpdir, "_repro_waterfill.fake.so")
            with open(path, "wb") as handle:
                handle.write(b"fake shared object")
            return path

    def test_concurrent_compiles_build_once(self, monkeypatch, tmp_path):
        import threading

        import cffi

        from repro.sim import _native

        pytest.importorskip("fcntl")
        self._SlowFakeFFI.builds = []
        monkeypatch.setattr(cffi, "FFI", self._SlowFakeFFI)
        monkeypatch.setattr(
            _native, "_build_dir", lambda: str(tmp_path / "kernel")
        )

        outcomes = [None, None]

        def attempt(slot):
            outcomes[slot] = _native._compile()

        threads = [
            threading.Thread(target=attempt, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert outcomes[0] is not None and outcomes[0] == outcomes[1]
        import os

        assert os.path.exists(outcomes[0])
        assert len(self._SlowFakeFFI.builds) == 1  # loser adopted, not rebuilt
