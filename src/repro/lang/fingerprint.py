"""Canonical structural fingerprints for policy ASTs.

Every :class:`~repro.lang.ast.Policy` / :class:`~repro.lang.ast.Expr`
node gets a 128-bit blake2b digest of its *structure*: node type plus the
canonical encoding of every public slot, child digests included.  Two
independently constructed but structurally equal ASTs fingerprint
identically — in this process, in another process, in a later session —
which is what makes the digest usable as a *cross-generation* cache key
for incremental compilation (``id()``-based keys die with the objects
they name; ``hash()`` is salted per process for strings).

Digests are cached on the node (the ``_fingerprint`` slot shared by all
AST classes), so fingerprinting an unchanged program a second time is a
single attribute read per node.  Immutability makes the cache sound: a
node's structure can never change after construction.

The encoding is deliberately boring and versioned by construction: a
type tag byte, then length-prefixed canonical bytes per slot value.  Do
not change it casually — checked-in test vectors pin it, because stored
artifacts (bench baselines, future on-disk caches) key on it.
"""

from __future__ import annotations

import hashlib

from repro.lang import ast
from repro.lang.values import Symbol
from repro.util.ipaddr import IPPrefix

#: Digest size in bytes; 128 bits keeps accidental collisions out of
#: reach for any realistic policy population.
DIGEST_SIZE = 16


def _slot_names(cls) -> tuple:
    """Public ``__slots__`` across the MRO, in definition order."""
    return tuple(
        name
        for klass in cls.__mro__
        for name in getattr(klass, "__slots__", ())
        if not name.startswith("_")
    )


def _encode(value, update) -> None:
    """Feed one slot value into the hash, canonically and type-tagged."""
    if isinstance(value, (ast.Policy, ast.Expr)):
        update(b"N")
        update(fingerprint(value))
    elif isinstance(value, bool):
        update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        data = str(value).encode()
        update(b"I%d:" % len(data))
        update(data)
    elif isinstance(value, str):
        data = value.encode()
        update(b"S%d:" % len(data))
        update(data)
    elif isinstance(value, Symbol):
        data = value.name.encode()
        update(b"Y%d:" % len(data))
        update(data)
    elif isinstance(value, IPPrefix):
        update(b"P%d/%d;" % (value.network, value.length))
    elif value is None:
        update(b"_")
    elif isinstance(value, tuple):
        update(b"T%d:" % len(value))
        for item in value:
            _encode(item, update)
    else:
        # Last resort for exotic literal payloads (e.g. a frozenset in a
        # Value): repr of builtins is stable across sessions.
        data = repr(value).encode()
        update(b"R%d:" % len(data))
        update(data)


def fingerprint(node) -> bytes:
    """The node's canonical structural digest (16 bytes), cached."""
    cached = getattr(node, "_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    update = h.update
    update(type(node).__name__.encode())
    update(b"(")
    for name in _slot_names(type(node)):
        _encode(getattr(node, name), update)
    update(b")")
    digest = h.digest()
    object.__setattr__(node, "_fingerprint", digest)
    return digest


__all__ = ["DIGEST_SIZE", "fingerprint"]
