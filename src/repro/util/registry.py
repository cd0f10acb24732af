"""Name → factory registry for a pluggable engine family.

The data-plane engines (:mod:`repro.dataplane.engine`) resolve names
through this class (lazy factories, shared stateful instances).

* A *factory* is a zero-argument callable returning a fresh engine, or
  a lazy ``"module:attr"`` string resolved on first use — registering a
  name never imports its implementation.
* *Stateful* entries (engines owning OS resources: pools, daemons)
  resolve by name to one shared instance, so ad-hoc calls reuse a
  single pool instead of leaking one per call; sessions get private
  instances via :meth:`session_instance`.
"""

from __future__ import annotations

import importlib

from repro.lang.errors import SnapError


class EngineRegistry:
    """One engine family's name registry."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict = {}
        self._instances: dict = {}

    def register(self, name: str, factory, *, stateful: bool = False) -> None:
        """Register (or replace) a named engine."""
        self._entries[name] = {"factory": factory, "stateful": stateful}
        self._instances.pop(name, None)

    def unregister(self, name: str) -> None:
        """Remove a named engine (no-op if absent)."""
        self._entries.pop(name, None)
        self._instances.pop(name, None)

    def names(self) -> tuple:
        """The registered names, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name) -> bool:
        return name in self._entries

    def factory(self, name: str):
        """The entry's factory, resolving a lazy string on first use."""
        entry = self._entries[name]
        factory = entry["factory"]
        if isinstance(factory, str):
            module, _, attr = factory.partition(":")
            factory = getattr(importlib.import_module(module), attr)
            entry["factory"] = factory
        return factory

    def resolve(self, engine, default: str = "sequential"):
        """An engine for ``engine``: a registered name (shared instance
        when stateful, fresh otherwise), an instance passed through, or
        ``default`` for None."""
        if engine is None:
            engine = default
        if isinstance(engine, str):
            if engine not in self._entries:
                raise SnapError(
                    f"unknown {self.kind} {engine!r}; expected one of "
                    f"{self.names()} or an engine instance"
                )
            if self._entries[engine]["stateful"]:
                shared = self._instances.get(engine)
                if shared is None:
                    shared = self.factory(engine)()
                    self._instances[engine] = shared
                return shared
            return self.factory(engine)()
        if hasattr(engine, "run"):
            return engine
        raise SnapError(
            f"unknown {self.kind} {engine!r}; expected one of "
            f"{self.names()} or an engine instance"
        )

    def session_instance(self, engine):
        """A *private* instance for a session when ``engine`` names a
        stateful entry; None otherwise (the caller uses the value
        as-is)."""
        if (
            isinstance(engine, str)
            and engine in self._entries
            and self._entries[engine]["stateful"]
        ):
            return self.factory(engine)()
        return None

    def __repr__(self):
        return f"EngineRegistry({self.kind!r}, {list(self.names())})"
