"""Reference semantics of SNAP — the ``eval`` function of Appendix A.

``eval`` is the *specification*: any implementation (the xFDD interpreter,
the distributed data plane) must process packets exactly as ``eval`` says.
It takes a policy, a store, and a packet, and returns

    (new store, set of output packets, log)

where the log records reads ``R s`` and writes ``W s`` of state variables.
Parallel and sequential composition check the logs for read/write and
write/write conflicts; a conflict is the undefined case ⊥ of the paper,
raised here as :class:`InconsistentStateError`.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import InconsistentStateError, SnapError
from repro.lang.packet import Packet
from repro.lang.state import Store
from repro.lang.values import matches


class Log:
    """A read/write log: which state variables were read and written."""

    __slots__ = ("reads", "writes")

    def __init__(self, reads=frozenset(), writes=frozenset()):
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)

    def union(self, other: "Log") -> "Log":
        return Log(self.reads | other.reads, self.writes | other.writes)

    def consistent_with(self, other: "Log") -> bool:
        """Appendix A ``consistent``: no W in one against R or W in other."""
        for var in self.writes:
            if var in other.reads or var in other.writes:
                return False
        for var in other.writes:
            if var in self.reads or var in self.writes:
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Log)
            and other.reads == self.reads
            and other.writes == self.writes
        )

    def __repr__(self):
        return f"Log(reads={sorted(self.reads)}, writes={sorted(self.writes)})"


EMPTY_LOG = Log()


def eval_expr(expr: ast.Expr, packet: Packet):
    """Appendix A ``evale``: evaluate an expression against a packet."""
    if isinstance(expr, ast.Value):
        return expr.value
    if isinstance(expr, ast.Field):
        return packet.get(expr.name)
    if isinstance(expr, ast.Vector):
        return tuple(eval_expr(item, packet) for item in expr.items)
    raise SnapError(f"not an expression: {expr!r}")


def index_key(expr: ast.Expr, packet: Packet) -> tuple:
    """Evaluate an index expression to a hashable state key (a tuple)."""
    value = eval_expr(expr, packet)
    return value if isinstance(value, tuple) else (value,)


def _merge_stores(base: Store, variants: list[Store]) -> Store:
    """Appendix A ``merge``: each variable from the variant that wrote it.

    Every variant is ``base`` itself or ``base`` copied and then written,
    so the tables it wrote are exactly those that are not ``base``'s
    objects (:meth:`Store.written_since`).  Parallel and Seq check the
    variants' logs before merging, so at most one variant writes any
    variable: identity is enough, and no table is compared or copied here.
    """
    writers = [
        (v, tables)
        for v in variants
        if v is not base and (tables := v.written_since(base))
    ]
    if not writers:
        return base
    if len(writers) == 1:
        return writers[0][0]
    merged = base.copy()
    for _, tables in writers:
        for table in tables:
            merged.adopt(table)
    return merged


def eval_policy(policy: ast.Policy, store: Store, packet: Packet):
    """The eval function of Figure 13.  Returns (store, packets, log).

    The input store is never mutated; the store returned is the input
    itself when nothing was written, else a copy sharing its unwritten
    tables.
    """
    # --- predicates ------------------------------------------------------
    if isinstance(policy, ast.Id):
        return store, frozenset((packet,)), EMPTY_LOG
    if isinstance(policy, ast.Drop):
        return store, frozenset(), EMPTY_LOG
    if isinstance(policy, ast.Test):
        passed = matches(packet.get(policy.field), policy.value)
        return store, frozenset((packet,)) if passed else frozenset(), EMPTY_LOG
    if isinstance(policy, ast.StateTest):
        key = index_key(policy.index, packet)
        want = eval_expr(policy.value, packet)
        got = store.read(policy.var, key)
        passed = got == want
        log = Log(reads=(policy.var,))
        return store, frozenset((packet,)) if passed else frozenset(), log
    if isinstance(policy, ast.Not):
        _, passed, log = eval_policy(policy.pred, store, packet)
        out = frozenset() if packet in passed else frozenset((packet,))
        return store, out, log
    if isinstance(policy, ast.And):
        _, left, log1 = eval_policy(policy.left, store, packet)
        _, right, log2 = eval_policy(policy.right, store, packet)
        return store, left & right, log1.union(log2)
    if isinstance(policy, ast.Or):
        _, left, log1 = eval_policy(policy.left, store, packet)
        _, right, log2 = eval_policy(policy.right, store, packet)
        return store, left | right, log1.union(log2)

    # --- modifications ---------------------------------------------------
    if isinstance(policy, ast.Mod):
        return store, frozenset((packet.modify(policy.field, policy.value),)), EMPTY_LOG
    if isinstance(policy, ast.StateMod):
        key = index_key(policy.index, packet)
        value = eval_expr(policy.value, packet)
        updated = store.copy()
        updated.write(policy.var, key, value)
        return updated, frozenset((packet,)), Log(writes=(policy.var,))
    if isinstance(policy, ast.StateIncr):
        key = index_key(policy.index, packet)
        updated = store.copy()
        updated.variable(policy.var).increment(key, +1)
        return updated, frozenset((packet,)), Log(writes=(policy.var,))
    if isinstance(policy, ast.StateDecr):
        key = index_key(policy.index, packet)
        updated = store.copy()
        updated.variable(policy.var).increment(key, -1)
        return updated, frozenset((packet,)), Log(writes=(policy.var,))

    # --- composition -----------------------------------------------------
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
        merged = _merge_stores(store, [store1, store2])
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
        out_packets = frozenset().union(*(pkts for _, pkts, _ in results))
        merged = _merge_stores(store1, [st for st, _, _ in results])
        total_log = log1
        for log in logs:
            total_log = total_log.union(log)
        return merged, out_packets, total_log

    if isinstance(policy, ast.Atomic):
        return eval_policy(policy.body, store, packet)

    raise SnapError(f"cannot evaluate: {policy!r}")


def run(policy: ast.Policy, packet: Packet, store: Store | None = None):
    """Evaluate one packet; returns (store, frozenset of output packets).

    Convenience wrapper that creates a store with inferred defaults when
    none is given, and discards the log.
    """
    if store is None:
        store = Store(ast.infer_state_defaults(policy))
    new_store, packets, _ = eval_policy(policy, store, packet)
    return new_store, packets


def run_sequence(policy: ast.Policy, packets, store: Store | None = None):
    """Evaluate a packet sequence, threading state through.

    Returns (final store, list of per-packet output sets).  This is the
    OBS-level reference behaviour the distributed simulation must match.
    """
    if store is None:
        store = Store(ast.infer_state_defaults(policy))
    outputs = []
    for packet in packets:
        store, out, _ = eval_policy(policy, store, packet)
        outputs.append(out)
    return store, outputs
