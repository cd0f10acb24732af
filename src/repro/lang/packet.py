"""Immutable packets.

A packet is a finite mapping from field names to values.  ``eval``
(Appendix A) treats packets functionally — ``pkt[f -> v]`` builds a new
packet — so :class:`Packet` is immutable and hashable, making it usable in
the sets of packets that ``eval`` returns.
"""

from __future__ import annotations


class Packet:
    """An immutable field->value mapping.

    Missing fields read as ``None`` (the "absent" value); a test against an
    absent field simply fails, mirroring a parser that did not populate the
    field for this packet.
    """

    __slots__ = ("_fields", "_hash")

    def __init__(self, fields=None, **kwargs):
        merged = dict(fields or {})
        merged.update(kwargs)
        self._fields = merged
        self._hash = None

    @classmethod
    def _wrap(cls, fields: dict) -> "Packet":
        """Adopt ``fields`` as the packet's own dict, without the
        constructor's defensive copy.  Internal: the caller must have
        built the dict itself and must not touch it afterwards."""
        packet = cls.__new__(cls)
        packet._fields = fields
        packet._hash = None
        return packet

    def get(self, field: str):
        # The data plane (the executor dataplane/netasm.py generates and
        # dataplane/network.py Walker) works on the field dict directly,
        # reading absent fields as ``dict.get`` does; any semantics added
        # here must be mirrored there.
        return self._fields.get(field)

    def __getitem__(self, field: str):
        return self._fields.get(field)

    def __contains__(self, field: str) -> bool:
        return field in self._fields and self._fields[field] is not None

    def modify(self, field: str, value) -> "Packet":
        """Functional update: a new packet with ``field`` set to ``value``."""
        updated = dict(self._fields)
        updated[field] = value
        return Packet._wrap(updated)

    def modify_many(self, assignments: dict) -> "Packet":
        if not assignments:
            return self
        updated = dict(self._fields)
        updated.update(assignments)
        return Packet._wrap(updated)

    def without(self, *fields: str) -> "Packet":
        """A new packet with the given fields removed (SNAP-header strip)."""
        updated = {k: v for k, v in self._fields.items() if k not in fields}
        return Packet._wrap(updated)

    def fields(self):
        return dict(self._fields)

    def __eq__(self, other):
        if not isinstance(other, Packet):
            return NotImplemented
        # Absent and None-valued fields are indistinguishable.
        keys = set(self._fields) | set(other._fields)
        return all(self._fields.get(k) == other._fields.get(k) for k in keys)

    def __reduce__(self):
        # The cached hash must never cross an interpreter boundary:
        # string hashing is PYTHONHASHSEED-randomized per process, so a
        # hash computed in a worker daemon (or a spawn-started pool
        # worker) would poison hash containers here.  Rehash on arrival.
        return (Packet, (self._fields,))

    def __hash__(self):
        if self._hash is None:
            items = tuple(
                sorted((k, v) for k, v in self._fields.items() if v is not None)
            )
            self._hash = hash(items)
        return self._hash

    def __repr__(self):
        inner = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self._fields.items()) if v is not None
        )
        return f"Packet({inner})"


def make_packet(**kwargs) -> Packet:
    """Convenience constructor; field names are canonicalized to lowercase
    (matching the parser's case-insensitive treatment of fields)."""
    return Packet({key.lower(): value for key, value in kwargs.items()})
