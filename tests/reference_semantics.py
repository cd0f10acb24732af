"""Reference store and ``eval``: a whole-copy store, a content-compare merge.

This is the Appendix A ``eval`` as ``repro.lang.semantics`` ran it before
stores shared their tables: every state write copies the whole store,
every read of an absent variable creates it, and the merge at ``+`` and
``;`` compares every table of every variant with the base by content.
It is kept, unchanged in behaviour, as the oracle
``tests/test_semantics_reference.py`` checks the copy-on-write store and
the identity merge against.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import InconsistentStateError, SnapError
from repro.lang.semantics import EMPTY_LOG, Log, eval_expr, index_key
from repro.lang.state import StateVariable, Store
from repro.lang.values import matches


class ReferenceStore:
    """A dictionary of :class:`StateVariable`; :meth:`copy` copies all."""

    def __init__(self, defaults: dict | None = None):
        self.tables: dict[str, StateVariable] = {}
        self.defaults = dict(defaults or {})

    def variable(self, name: str) -> StateVariable:
        var = self.tables.get(name)
        if var is None:
            var = StateVariable(name, self.defaults.get(name, False))
            self.tables[name] = var
        return var

    def read(self, name: str, key: tuple):
        return self.variable(name).get(key)

    def write(self, name: str, key: tuple, value) -> None:
        self.variable(name).set(key, value)

    def copy(self) -> "ReferenceStore":
        dup = ReferenceStore(self.defaults)
        dup.tables = {name: var.copy() for name, var in self.tables.items()}
        return dup

    def as_store(self) -> Store:
        """The same contents as a :class:`Store`, for ``==``."""
        store = Store(self.defaults)
        for var in self.tables.values():
            store.adopt(var.copy())
        return store

    @classmethod
    def of(cls, store: Store) -> "ReferenceStore":
        """A reference store holding copies of ``store``'s tables."""
        ref = cls(store.defaults())
        for name in store.names():
            ref.tables[name] = store.variable(name).copy()
        return ref


def merge_stores(base: ReferenceStore, variants: list) -> ReferenceStore:
    """Appendix A ``merge``: prefer a variant's value where it changed."""
    merged = base.copy()
    names = set(base.tables)
    for variant in variants:
        names |= set(variant.tables)
    for name in names:
        base_var = base.variable(name)
        chosen = None
        for variant in variants:
            if variant.variable(name) != base_var:
                chosen = variant.variable(name)
                break
        if chosen is None and variants:
            chosen = variants[-1].variable(name)
        if chosen is not None:
            merged.tables[name] = chosen.copy()
    return merged


def eval_policy(policy: ast.Policy, store: ReferenceStore, packet):
    """Figure 13's eval over a :class:`ReferenceStore`."""
    if isinstance(policy, ast.Id):
        return store, frozenset((packet,)), EMPTY_LOG
    if isinstance(policy, ast.Drop):
        return store, frozenset(), EMPTY_LOG
    if isinstance(policy, ast.Test):
        passed = matches(packet.get(policy.field), policy.value)
        return store, frozenset((packet,)) if passed else frozenset(), EMPTY_LOG
    if isinstance(policy, ast.StateTest):
        key = index_key(policy.index, packet)
        passed = store.read(policy.var, key) == eval_expr(policy.value, packet)
        log = Log(reads=(policy.var,))
        return store, frozenset((packet,)) if passed else frozenset(), log
    if isinstance(policy, ast.Not):
        _, passed, log = eval_policy(policy.pred, store, packet)
        out = frozenset() if packet in passed else frozenset((packet,))
        return store, out, log
    if isinstance(policy, (ast.And, ast.Or)):
        _, left, log1 = eval_policy(policy.left, store, packet)
        _, right, log2 = eval_policy(policy.right, store, packet)
        out = left & right if isinstance(policy, ast.And) else left | right
        return store, out, log1.union(log2)

    if isinstance(policy, ast.Mod):
        return store, frozenset((packet.modify(policy.field, policy.value),)), EMPTY_LOG
    if isinstance(policy, ast.StateMod):
        key = index_key(policy.index, packet)
        updated = store.copy()
        updated.write(policy.var, key, eval_expr(policy.value, packet))
        return updated, frozenset((packet,)), Log(writes=(policy.var,))
    if isinstance(policy, (ast.StateIncr, ast.StateDecr)):
        key = index_key(policy.index, packet)
        updated = store.copy()
        delta = +1 if isinstance(policy, ast.StateIncr) else -1
        updated.variable(policy.var).increment(key, delta)
        return updated, frozenset((packet,)), Log(writes=(policy.var,))

    if isinstance(policy, ast.If):
        _, passed, pred_log = eval_policy(policy.pred, store, packet)
        branch = policy.then if packet in passed else policy.orelse
        new_store, packets, branch_log = eval_policy(branch, store, packet)
        return new_store, packets, branch_log.union(pred_log)
    if isinstance(policy, ast.Parallel):
        store1, packets1, log1 = eval_policy(policy.left, store, packet)
        store2, packets2, log2 = eval_policy(policy.right, store, packet)
        if not log1.consistent_with(log2):
            raise InconsistentStateError(
                f"parallel composition conflicts on state: {log1} vs {log2}"
            )
        merged = merge_stores(store, [store1, store2])
        return merged, packets1 | packets2, log1.union(log2)
    if isinstance(policy, ast.Seq):
        store1, packets1, log1 = eval_policy(policy.left, store, packet)
        results = [eval_policy(policy.right, store1, pkt) for pkt in packets1]
        logs = [log for _, _, log in results]
        for i, log_i in enumerate(logs):
            for log_j in logs[i + 1 :]:
                if not log_i.consistent_with(log_j):
                    raise InconsistentStateError(
                        "sequential composition produced inconsistent parallel "
                        f"runs of the right operand: {log_i} vs {log_j}"
                    )
        out = frozenset().union(*(pkts for _, pkts, _ in results))
        merged = merge_stores(store1, [st for st, _, _ in results])
        total_log = log1
        for log in logs:
            total_log = total_log.union(log)
        return merged, out, total_log
    if isinstance(policy, ast.Atomic):
        return eval_policy(policy.body, store, packet)
    raise SnapError(f"cannot evaluate: {policy!r}")


def replay_obs(trace, policy: ast.Policy, store: Store):
    """``repro.workloads.replay_obs`` over a reference copy of ``store``:
    returns ``(final store as a Store, per-packet output sets)``."""
    ref = ReferenceStore.of(store)
    outputs = []
    for packet, port in trace:
        ref, out, _ = eval_policy(policy, ref, packet.modify("inport", port))
        outputs.append(out)
    return ref.as_store(), outputs
