"""The global state store.

§3: "the program state is a dictionary that maps state variables to their
contents.  The contents of each state variable is itself a mapping from
values to values."  §7.1 describes data-plane realizations (pre-allocated
arrays for dense keys, reactively-populated tables for sparse ones); our
:class:`StateVariable` is the sparse-table realization with a per-variable
default value, which subsumes the dense case.
"""

from __future__ import annotations

from repro.lang.errors import SnapError


class StateVariable:
    """One persistent array ``s[index] -> value`` with a default value.

    Keys are value vectors (tuples) — ``orphan[dstip][dns.rdata]`` indexes
    with a 2-vector.  Reading an absent key yields ``default`` (0 for
    counters, False for flags), matching how a switch would initialise a
    register array.
    """

    __slots__ = ("name", "default", "_table", "_shared")

    def __init__(self, name: str, default=False):
        self.name = name
        self.default = default
        self._table: dict[tuple, object] = {}
        #: Possibly held by another :class:`Store` too (:meth:`Store.copy`).
        self._shared = False

    def get(self, key: tuple):
        return self._table.get(key, self.default)

    def set(self, key: tuple, value) -> None:
        self._table[key] = value

    def increment(self, key: tuple, delta: int = 1) -> None:
        current = self._table.get(key, self.default)
        if current is None:
            current = 0
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            raise SnapError(
                f"state variable {self.name!r} holds non-numeric value "
                f"{current!r}; cannot increment"
            )
        self._table[key] = current + delta

    def items(self):
        return self._table.items()

    def snapshot(self) -> dict:
        return dict(self._table)

    def copy(self) -> "StateVariable":
        dup = StateVariable(self.name, self.default)
        dup._table = dict(self._table)
        return dup

    def __eq__(self, other):
        if not isinstance(other, StateVariable):
            return NotImplemented
        if self.name != other.name:
            return False
        keys = set(self._table) | set(other._table)
        return all(self.get(k) == other.get(k) for k in keys)

    def __hash__(self):  # pragma: no cover - mutable, identity hashing only
        return id(self)

    def __len__(self):
        return len(self._table)

    def __repr__(self):
        return f"StateVariable({self.name!r}, entries={len(self._table)})"


class Store:
    """The full network state: a dictionary of :class:`StateVariable`.

    Unknown variables are created on first write with the default supplied
    by the program's state-variable declarations (see
    :meth:`declare_defaults`), or ``False`` if undeclared; :meth:`read`
    never creates one.

    Copies are persistent by table: :meth:`copy` shares every table with
    the original, and whichever side next asks for a shared table through
    :meth:`variable` — the path every write takes — gets its own copy of
    that one table first.  A table obtained from :meth:`variable` must
    therefore not be written after its store is copied.  Data-plane stores
    are never copied: the generated switch code binds the tables
    :meth:`variable` returns, and a bound table must not be shared.
    """

    def __init__(self, defaults: dict | None = None):
        self._vars: dict[str, StateVariable] = {}
        self._defaults: dict[str, object] = dict(defaults or {})

    def declare_defaults(self, defaults: dict) -> None:
        """Record default values (variable name -> default)."""
        for name, default in defaults.items():
            self._defaults[name] = default
            if name in self._vars and len(self._vars[name]) == 0:
                self.variable(name).default = default

    def variable(self, name: str) -> StateVariable:
        """``name``'s table, for writing: created if absent, copied first
        if shared with another store."""
        var = self._vars.get(name)
        if var is None:
            var = StateVariable(name, self._defaults.get(name, False))
            self._vars[name] = var
        elif var._shared:
            var = var.copy()
            self._vars[name] = var
        return var

    def read(self, name: str, key: tuple):
        var = self._vars.get(name)
        if var is None:
            return self._defaults.get(name, False)
        return var.get(key)

    def write(self, name: str, key: tuple, value) -> None:
        self.variable(name).set(key, value)

    def names(self):
        return tuple(self._vars)

    def defaults(self) -> dict:
        """The declared defaults (variable name -> default), as a copy."""
        return dict(self._defaults)

    def adopt(self, variable: StateVariable) -> None:
        """Take ownership of ``variable`` — the object, not a copy — in
        place of the table held under its name; the giver must stop
        writing through it."""
        self._vars[variable.name] = variable

    def written_since(self, base: "Store") -> list:
        """The tables this store holds that are not ``base``'s objects:
        for a store made from ``base`` by :meth:`copy` and writes, the
        variables it wrote."""
        theirs = base._vars
        return [var for name, var in self._vars.items() if theirs.get(name) is not var]

    def copy(self) -> "Store":
        """A store sharing every table with this one, in O(variables)."""
        for var in self._vars.values():
            var._shared = True
        dup = Store(self._defaults)
        dup._vars = dict(self._vars)
        return dup

    def _peek(self, name: str) -> StateVariable:
        """``name``'s table for reading: neither created nor copied."""
        var = self._vars.get(name)
        if var is None:
            return StateVariable(name, self._defaults.get(name, False))
        return var

    def __eq__(self, other):
        if not isinstance(other, Store):
            return NotImplemented
        names = set(self._vars) | set(other._vars)
        return all(self._peek(n) == other._peek(n) for n in names)

    def __hash__(self):  # pragma: no cover - mutable, identity hashing only
        return id(self)

    def __repr__(self):
        return f"Store({', '.join(sorted(self._vars)) or 'empty'})"
