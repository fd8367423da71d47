import random

import pytest

from dtn_cluster_sim.routing import (Buffer, DuplicateMessage, ForwardDecision,
                                     Message, epidemic_decide,
                                     interest_cluster_transfer)


def msg(mid=0, source=1, category=1, created_at=0.0, group=(5, 8), **kw):
    return Message(id=mid, source=source, category=category, created_at=created_at,
                   destination_group=frozenset(group), **kw)


class TestInterestClusterTransfer:
    def test_member_without_copy_gets_message(self):
        d = interest_cluster_transfer({5, 8}, carrier=1, peer=8, message=msg(),
                                      peer_has_message=False)
        assert d is ForwardDecision.FORWARD

    def test_non_member_strict_closes_connection(self):
        d = interest_cluster_transfer({5, 8}, carrier=1, peer=3, message=msg(),
                                      peer_has_message=False, strict=True)
        assert d is ForwardDecision.CLOSE_CONNECTION

    def test_non_member_default_skips(self):
        d = interest_cluster_transfer({5, 8}, carrier=1, peer=3, message=msg(),
                                      peer_has_message=False)
        assert d is ForwardDecision.SKIP

    def test_duplicate_suppression(self):
        d = interest_cluster_transfer({5, 8}, carrier=1, peer=8, message=msg(),
                                      peer_has_message=True)
        assert d is ForwardDecision.NOOP

    def test_forward_only_toward_members(self):
        rng = random.Random(0)
        for _ in range(200):
            group = {rng.randrange(10) for _ in range(rng.randrange(5))}
            peer = rng.randrange(10)
            strict = rng.random() < 0.5
            has = rng.random() < 0.3
            d = interest_cluster_transfer(group, 99, peer, msg(group=group or {99}),
                                          peer_has_message=has, strict=strict)
            if d is ForwardDecision.FORWARD:
                assert peer in group
                assert not has
            if d is ForwardDecision.CLOSE_CONNECTION:
                assert strict


class TestEpidemic:
    def test_forward_when_peer_lacks(self):
        assert epidemic_decide(1, 2, msg(), False) is ForwardDecision.FORWARD

    def test_noop_when_peer_has(self):
        assert epidemic_decide(1, 2, msg(), True) is ForwardDecision.NOOP

    def test_source_always_has_its_message(self):
        m = msg(source=7)
        assert epidemic_decide(1, 7, m, False) is ForwardDecision.NOOP


class TestMessage:
    def test_path_defaults_to_source(self):
        assert msg(source=4).hop_count == 0

    def test_hand_to_extends_path(self):
        m = msg(source=4).hand_to(9)
        assert m.hop_count == 1
        assert m.hand_to(3).hop_count == 2
        assert m.source == 4

    def test_final_destination_must_be_member(self):
        with pytest.raises(ValueError):
            msg(group=(5, 8), final_destination=9)

    def test_expiry(self):
        m = msg(created_at=10.0, ttl=5.0)
        assert not m.expired(15.0)
        assert m.expired(15.1)
        assert not msg(created_at=10.0).expired(1e9)


class TestBuffer:
    def test_oldest_received_evicted(self):
        b = Buffer(capacity=2)
        b.insert(msg(mid=1), now=5.0)
        b.insert(msg(mid=2), now=8.0)
        evicted = b.insert(msg(mid=3), now=10.0)
        assert [m.id for m in evicted] == [1]
        assert 1 not in b and 2 in b and 3 in b

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

    def test_duplicate_rejected(self):
        b = Buffer(capacity=2)
        b.insert(msg(mid=1), now=1.0)
        with pytest.raises(DuplicateMessage):
            b.insert(msg(mid=1), now=2.0)

    def test_unlimited(self):
        b = Buffer(capacity=None)
        for i in range(500):
            assert b.insert(msg(mid=i), now=float(i)) == []
        assert len(b) == 500

    def test_capacity_never_exceeded(self):
        rng = random.Random(1)
        b = Buffer(capacity=5)
        for i in range(100):
            b.insert(msg(mid=i), now=float(rng.randrange(50)))
            assert len(b) <= 5

    def test_exchange_order(self):
        b = Buffer(capacity=None)
        b.insert(msg(mid=3), now=2.0)
        b.insert(msg(mid=1), now=2.0)
        b.insert(msg(mid=2), now=1.0)
        assert [e.message.id for e in b.in_exchange_order()] == [2, 1, 3]

    def test_purge_expired(self):
        b = Buffer(capacity=None)
        b.insert(msg(mid=1, created_at=0.0, ttl=10.0), now=0.0)
        b.insert(msg(mid=2, created_at=0.0), now=0.0)
        dead = b.purge_expired(now=11.0)
        assert [m.id for m in dead] == [1]
        assert 2 in b and 1 not in b

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Buffer(capacity=0)
