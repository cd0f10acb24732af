"""Unit tests for packets and the state store."""

import pytest

from repro.lang.errors import SnapError
from repro.lang.packet import Packet, make_packet
from repro.lang.state import StateVariable, Store


class TestPacket:
    def test_get_and_missing(self):
        pkt = make_packet(srcip=1, dstip=2)
        assert pkt.get("srcip") == 1
        assert pkt.get("nonexistent") is None

    def test_modify_is_functional(self):
        pkt = make_packet(srcip=1)
        pkt2 = pkt.modify("srcip", 9)
        assert pkt.get("srcip") == 1
        assert pkt2.get("srcip") == 9

    def test_modify_many(self):
        pkt = make_packet(a=1).modify_many({"b": 2, "c": 3})
        assert pkt.get("b") == 2 and pkt.get("c") == 3

    def test_modify_many_empty_returns_self(self):
        pkt = make_packet(a=1)
        assert pkt.modify_many({}) is pkt

    def test_without(self):
        pkt = make_packet(a=1, b=2).without("a")
        assert pkt.get("a") is None
        assert pkt.get("b") == 2

    def test_equality_ignores_none_fields(self):
        assert make_packet(a=1, b=None) == make_packet(a=1)

    def test_hash_consistent_with_equality(self):
        assert hash(make_packet(a=1, b=None)) == hash(make_packet(a=1))

    def test_usable_in_sets(self):
        s = {make_packet(a=1), make_packet(a=1), make_packet(a=2)}
        assert len(s) == 2

    def test_contains(self):
        pkt = make_packet(a=1)
        assert "a" in pkt
        assert "b" not in pkt

    def test_repr_mentions_fields(self):
        assert "srcip=5" in repr(make_packet(srcip=5))

    def test_constructor_copies_the_callers_dict(self):
        fields = {"a": 1}
        pkt = Packet(fields)
        fields["a"] = 2
        fields["b"] = 3
        assert pkt.get("a") == 1 and pkt.get("b") is None
        assert pkt.fields() is not pkt._fields

    def test_wrap_adopts_the_dict_and_updates_copy_once(self):
        fields = {"a": 1}
        pkt = Packet._wrap(fields)
        assert pkt._fields is fields
        assert pkt == make_packet(a=1) and hash(pkt) == hash(make_packet(a=1))
        for updated in (
            pkt.modify("a", 2), pkt.modify_many({"b": 2}), pkt.without("a")
        ):
            assert type(updated) is Packet
            assert updated._fields is not fields
        assert fields == {"a": 1}


class TestStateVariable:
    def test_default_read(self):
        var = StateVariable("s", default=0)
        assert var.get((1,)) == 0

    def test_set_get(self):
        var = StateVariable("s")
        var.set((1, 2), True)
        assert var.get((1, 2)) is True

    def test_increment_from_default(self):
        var = StateVariable("c", default=0)
        var.increment((7,))
        var.increment((7,))
        assert var.get((7,)) == 2

    def test_decrement(self):
        var = StateVariable("c", default=0)
        var.increment((7,), -1)
        assert var.get((7,)) == -1

    def test_increment_none_default_treated_as_zero(self):
        var = StateVariable("c", default=None)
        var.increment((1,))
        assert var.get((1,)) == 1

    def test_increment_non_numeric_raises(self):
        var = StateVariable("c", default=0)
        var.set((1,), True)
        with pytest.raises(SnapError):
            var.increment((1,))

    def test_copy_is_independent(self):
        var = StateVariable("s", default=0)
        var.set((1,), 5)
        dup = var.copy()
        dup.set((1,), 6)
        assert var.get((1,)) == 5

    def test_equality_by_content(self):
        a = StateVariable("s", default=0)
        b = StateVariable("s", default=0)
        a.set((1,), 2)
        assert a != b
        b.set((1,), 2)
        assert a == b

    def test_equality_with_explicit_default_entries(self):
        a = StateVariable("s", default=0)
        b = StateVariable("s", default=0)
        a.set((1,), 0)  # explicitly stored default value
        assert a == b


class TestStore:
    def test_auto_creates_variables(self):
        store = Store({"c": 0})
        assert store.read("c", (1,)) == 0

    def test_write_read(self):
        store = Store()
        store.write("s", (1,), "x")
        assert store.read("s", (1,)) == "x"

    def test_copy_independent(self):
        store = Store({"c": 0})
        store.write("c", (1,), 5)
        dup = store.copy()
        dup.write("c", (1,), 9)
        assert store.read("c", (1,)) == 5

    def test_equality(self):
        a = Store({"c": 0})
        b = Store({"c": 0})
        assert a == b
        a.write("c", (1,), 1)
        assert a != b

    def test_declare_defaults_after_creation(self):
        store = Store()
        _ = store.variable("c")
        store.declare_defaults({"c": 0})
        assert store.read("c", (9,)) == 0
