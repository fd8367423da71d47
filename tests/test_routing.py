import random

import pytest

from dtn_cluster_sim.routing import (Buffer, ForwardDecision, Message,
                                     epidemic_decide, interest_cluster_transfer)

from oracles import DuplicateMessage, ReferenceBuffer


def msg(mid=0, source=1, category=1, created_at=0.0, group=(5, 8), **kw):
    return Message(id=mid, source=source, category=category, created_at=created_at,
                   destination_group=frozenset(group), **kw)


def held(buffer: Buffer) -> list[int]:
    """Ids of the messages a buffer holds, in exchange order."""
    return [entry.message_id for entry in buffer.in_exchange_order()]


class TestInterestClusterTransfer:
    def test_member_without_copy_gets_message(self):
        d = interest_cluster_transfer(msg(group=(5, 8)), peer=8)
        assert d is ForwardDecision.FORWARD

    def test_non_member_strict_closes_connection(self):
        d = interest_cluster_transfer(msg(group=(5, 8)), peer=3, strict=True)
        assert d is ForwardDecision.CLOSE_CONNECTION

    def test_non_member_default_skips(self):
        d = interest_cluster_transfer(msg(group=(5, 8)), peer=3)
        assert d is ForwardDecision.SKIP

    def test_forward_only_toward_members(self):
        rng = random.Random(0)
        for _ in range(200):
            group = {rng.randrange(10) for _ in range(rng.randrange(5))}
            peer = rng.randrange(10)
            strict = rng.random() < 0.5
            d = interest_cluster_transfer(msg(group=group), peer, strict=strict)
            assert (d is ForwardDecision.FORWARD) == (peer in group)
            if d is ForwardDecision.CLOSE_CONNECTION:
                assert strict


class TestEpidemic:
    def test_forward_when_peer_lacks(self):
        assert epidemic_decide(msg(), 2) is ForwardDecision.FORWARD


class TestMessage:
    def test_copy_starts_at_zero_hops(self):
        # a copy stored without a hop count is the source's own: 0 hops
        b = Buffer(capacity=None)
        b.insert(msg(source=4), now=0.0)
        assert [e.hops for e in b.in_exchange_order()] == [0]

    def test_copy_handed_on_adds_a_hop(self):
        # handing a copy on stores the carrier's hop count plus one, on the
        # one shared Message
        m = msg(source=4)
        carrier, peer = Buffer(capacity=None), Buffer(capacity=None)
        carrier.insert(m, now=0.0, hops=1)
        (entry,) = carrier.in_exchange_order()
        peer.insert(entry.message, now=1.0, hops=entry.hops + 1)
        (copy,) = peer.in_exchange_order()
        assert (copy.hops, copy.received_at) == (2, 1.0)
        assert copy.message is m and copy.message.source == 4

    def test_final_destination_must_be_member(self):
        with pytest.raises(ValueError):
            msg(group=(5, 8), final_destination=9)


class TestBuffer:
    def test_copy_lapses_just_after_ttl(self):
        # a copy lives through created_at + ttl and lapses just after it
        b = Buffer(capacity=None)
        b.insert(msg(created_at=10.0), now=10.0)
        assert b.purge_expired(now=15.0, ttl=5.0) == []
        assert [m.id for m in b.purge_expired(now=15.1, ttl=5.0)] == [0]

    def test_oldest_received_evicted(self):
        b = Buffer(capacity=2)
        b.insert(msg(mid=1), now=5.0)
        b.insert(msg(mid=2), now=8.0)
        evicted = b.insert(msg(mid=3), now=10.0)
        assert [m.id for m in evicted] == [1]
        assert held(b) == [2, 3]

    def test_no_eviction_under_capacity(self):
        b = Buffer(capacity=3)
        b.insert(msg(mid=1), now=1.0)
        b.insert(msg(mid=2), now=2.0)
        assert b.insert(msg(mid=3), now=3.0) == []

    def test_tie_breaks_on_smaller_id(self):
        b = Buffer(capacity=2)
        b.insert(msg(mid=9), now=5.0)
        b.insert(msg(mid=4), now=5.0)
        evicted = b.insert(msg(mid=7), now=6.0)
        assert [m.id for m in evicted] == [4]

    def test_reference_buffer_rejects_duplicate(self):
        # only the reference checks: the engine never offers a message to a
        # node that held it, so a Buffer is never handed a duplicate
        # (tests/test_sim_engine.py::test_no_node_receives_a_message_twice)
        ref = ReferenceBuffer(capacity=2)
        ref.insert(msg(mid=1), now=1.0)
        with pytest.raises(DuplicateMessage):
            ref.insert(msg(mid=1), now=2.0)

    def test_unlimited(self):
        b = Buffer(capacity=None)
        for i in range(500):
            assert b.insert(msg(mid=i), now=float(i)) == []
        assert len(b.in_exchange_order()) == 500

    def test_capacity_never_exceeded(self):
        rng = random.Random(1)
        b = Buffer(capacity=5)
        for i in range(100):
            b.insert(msg(mid=i), now=float(rng.randrange(50)))
            assert len(b.in_exchange_order()) <= 5

    def test_exchange_order(self):
        b = Buffer(capacity=None)
        b.insert(msg(mid=3), now=2.0)
        b.insert(msg(mid=1), now=2.0)
        b.insert(msg(mid=2), now=1.0)
        assert [e.message.id for e in b.in_exchange_order()] == [2, 1, 3]

    def test_same_instant_entries_come_out_by_id(self):
        rng = random.Random(5)
        for _ in range(20):
            ids = rng.sample(range(50), 8)
            b = Buffer(capacity=None)
            for mid in ids:
                b.insert(msg(mid=mid), now=3.0, hops=rng.randrange(4))
            assert [e.message_id for e in b.in_exchange_order()] == sorted(ids)

    def test_purge_expired(self):
        b = Buffer(capacity=None)
        b.insert(msg(mid=1, created_at=0.0), now=0.0)
        b.insert(msg(mid=2, created_at=5.0), now=5.0)
        dead = b.purge_expired(now=11.0, ttl=10.0)
        assert [m.id for m in dead] == [1]
        assert held(b) == [2]

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Buffer(capacity=0)

    @pytest.mark.parametrize("capacity", [1, 2, 5, 50, None])
    def test_matches_reference_buffer(self, capacity):
        """Random inserts (same-instant ties, decreasing `now`) and purges
        give the reference's evictions, its expired copies in exchange order,
        and its contents after every operation, `held` included. As in a
        replay, each message enters a buffer at most once, evicted or
        expired copies included."""
        rng = random.Random(capacity or 0)
        for _ in range(25):
            b, ref = Buffer(capacity), ReferenceBuffer(capacity)
            unsent = [msg(mid=i, created_at=float(rng.randrange(20)))
                      for i in range(rng.randrange(1, 60))]
            monotone = rng.random() < 0.5
            now = 0.0
            for _ in range(100):
                now = now + rng.randrange(3) if monotone else float(rng.randrange(30))
                if not unsent or rng.random() < 0.2:
                    ttl = float(rng.randrange(1, 15))
                    order = ref.in_exchange_order()
                    dead = {m.id for m in ref.purge_expired(now, ttl)}
                    assert b.purge_expired(now, ttl) == [
                        e.message for e in order if e.message_id in dead]
                else:
                    m = unsent.pop(rng.randrange(len(unsent)))
                    hops = rng.randrange(4)
                    assert b.insert(m, now, hops) == ref.insert(m, now, hops)
                assert b.in_exchange_order() == ref.in_exchange_order()
                assert b.held == {e.message_id for e in ref.in_exchange_order()}
