import random

import pytest

from netfab.packet import FlowKey
from netfab.resilience import LoadBalancer, Unavailable, UnknownPath

SEC = 1_000_000


def make_lb(**kw):
    return LoadBalancer(["fw1", "fw2"], **kw)


def key(rng):
    return FlowKey(rng.getrandbits(32), rng.getrandbits(32), "tcp",
                   rng.getrandbits(16), rng.getrandbits(16))


def run_probes(lb, t0, t1, answering):
    """Drive ticks once per second; paths in `answering` reply instantly."""
    for t in range(t0, t1 + 1, SEC):
        for pid in lb.probe_tick(t):
            if pid in answering:
                lb.on_probe_reply(pid, t)


class TestHealth:
    def test_two_paths_required(self):
        with pytest.raises(ValueError):
            LoadBalancer(["only"])

    def test_starts_up(self):
        assert make_lb().up == ["fw1", "fw2"]

    def test_down_after_three_misses(self):
        # fw1 stops answering after the probe at t=10s; its miss is noticed at
        # the next tick, so the third consecutive miss lands at t=13s.
        lb = make_lb()
        run_probes(lb, 0, 9 * SEC, {"fw1", "fw2"})
        for t in (10, 11, 12):
            run_probes(lb, t * SEC, t * SEC, {"fw2"})
            assert lb.paths["fw1"].state == "up"
        run_probes(lb, 13 * SEC, 13 * SEC, {"fw2"})
        assert lb.paths["fw1"].state == "down"
        assert 13 * SEC <= 14 * SEC  # inside the detection deadline
        assert ("fw1", "down") in lb.transitions

    def test_single_miss_keeps_up(self):
        lb = make_lb()
        run_probes(lb, 0, SEC, set())
        assert lb.paths["fw1"].state == "up"

    def test_up_after_two_replies(self):
        lb = make_lb()
        run_probes(lb, 0, 4 * SEC, {"fw2"})
        assert lb.paths["fw1"].state == "down"
        lb.probe_tick(5 * SEC)
        lb.on_probe_reply("fw1", 5 * SEC)
        assert lb.paths["fw1"].state == "down"  # one reply is not enough
        lb.probe_tick(6 * SEC)
        lb.on_probe_reply("fw1", 6 * SEC)
        assert lb.paths["fw1"].state == "up"
        assert ("fw1", "up") in lb.transitions

    def test_miss_resets_recovery_count(self):
        lb = make_lb()
        run_probes(lb, 0, 4 * SEC, {"fw2"})
        lb.probe_tick(5 * SEC)
        lb.on_probe_reply("fw1", 5 * SEC)
        run_probes(lb, 6 * SEC, 6 * SEC, {"fw2"})  # missed again
        lb.probe_tick(7 * SEC)
        lb.on_probe_reply("fw1", 7 * SEC)
        assert lb.paths["fw1"].state == "down"

    def test_unknown_path_reply(self):
        with pytest.raises(UnknownPath):
            make_lb().on_probe_reply("fw9", 0)

    def test_probe_interval_respected(self):
        lb = make_lb()
        assert lb.probe_tick(0) == ["fw1", "fw2"]
        assert lb.probe_tick(SEC // 2) == []
        assert lb.probe_tick(SEC) == ["fw1", "fw2"]


class TestDispatch:
    def test_roughly_even_split(self):
        lb = make_lb()
        rng = random.Random(77)
        counts = {"fw1": 0, "fw2": 0}
        for _ in range(10_000):
            counts[lb.dispatch(key(rng))] += 1
        assert abs(counts["fw1"] - 5000) <= 500

    def test_affinity_sticks(self):
        lb = make_lb()
        k = FlowKey(1, 2, "tcp", 3, 4)
        first = lb.dispatch(k)
        assert all(lb.dispatch(k) == first for _ in range(20))

    def test_survivor_takes_over(self):
        lb = make_lb()
        rng = random.Random(5)
        keys = [key(rng) for _ in range(500)]
        before = {k: lb.dispatch(k) for k in keys}
        run_probes(lb, 0, 4 * SEC, {"fw2"})  # fw1 never answers
        for k in keys:
            assert lb.dispatch(k) == "fw2"
        # flows already on fw2 never moved
        for k in keys:
            if before[k] == "fw2":
                assert lb.dispatch(k) == "fw2"

    def test_both_down_unavailable(self):
        lb = make_lb()
        run_probes(lb, 0, 4 * SEC, set())
        assert lb.up == []
        with pytest.raises(Unavailable):
            lb.dispatch(FlowKey(1, 2, "tcp", 3, 4))

    def test_dest_override_follows_owner(self):
        lb = make_lb()
        lb.dest_override[0xC0000263] = "fw2"
        for _ in range(10):
            assert lb.dispatch(FlowKey(1, 2, "tcp", 3, 4),
                               dst_ip=0xC0000263) == "fw2"

    def test_dest_override_falls_back_when_owner_down(self):
        lb = make_lb()
        lb.dest_override[0xC0000263] = "fw2"
        run_probes(lb, 0, 4 * SEC, {"fw1"})  # fw2 dies
        assert lb.dispatch(FlowKey(1, 2, "tcp", 3, 4),
                           dst_ip=0xC0000263) == "fw1"

    def test_recovered_path_serves_new_flows(self):
        lb = make_lb()
        run_probes(lb, 0, 4 * SEC, {"fw2"})
        run_probes(lb, 5 * SEC, 6 * SEC, {"fw1", "fw2"})
        assert lb.up == ["fw1", "fw2"]
        rng = random.Random(9)
        got = {lb.dispatch(key(rng)) for _ in range(200)}
        assert got == {"fw1", "fw2"}
