"""The root-to-leaf paths a packet entering the OBS can take (§4.3).

"Traversing from d's root down to the action sets at d's leaves, we can
gather information associating each flow with the set of state variables
read or written."  :func:`feasible_paths` is that traversal, the one walk
S_uv (:func:`repro.analysis.packet_state.packet_state_mapping`), the
shard planner's per-port footprints
(:func:`repro.dataplane.engine.ingress_state_footprint`) and lint's
SNAP-W201 read.

Each path carries on the walk's stack the ingress ports its ``inport``
tests admit, the state variables its tests read, and its field facts:
the outcome of each test taken (a negative ``f = v`` outcome is an
excluded value of ``f``) and the value a positive ``f = v`` test pinned
(a prefix pins none).  An arm the facts decide is never entered; the
deciding test goes to ``on_decided`` (lint reports it as SNAP-W201).
Fresh packets carry no ``outport``, so a positive ``outport`` test's arm
is skipped unreported.

A fact is only worth keeping below an arm whose support
(``XFDD._support``) names the test's field or variable: nothing else
there can repeat the test.  On an ordered diagram that is rare — a test
of one field sits above the others — so most arms share their parent's
facts dict, and one that learns a fact copies it.
"""

from __future__ import annotations

from repro.lang.values import matches
from repro.util.ipaddr import IPPrefix
from repro.xfdd.diagram import Leaf
from repro.xfdd.tests import FieldValueTest, StateVarTest

INPORT = "inport"
OUTPORT = "outport"


def _learn(facts, test, outcome) -> dict:
    """``facts`` plus ``test``'s outcome (and the value it pins)."""
    learned = dict(facts) if facts else {}
    learned[test] = outcome
    if outcome and type(test) is FieldValueTest and not isinstance(
        test.value, IPPrefix
    ):
        learned[test.field] = test.value
    return learned


def feasible_paths(root, inports=(), on_decided=None):
    """Yield ``(sources, reads, leaf)`` per feasible root-to-leaf path.

    ``sources`` is the frozenset of ``inports`` the path's ``inport``
    tests admit, ``reads`` the frozenset of state variables its tests
    read.  ``on_decided(test, outcome)`` (optional) is called for each
    test the path's facts already decide, before the walk takes the
    decided arm.
    """
    # facts: {test: outcome taken} and {field: pinned value}, or None.
    stack = [(root, frozenset(inports), frozenset(), None)]
    while stack:
        node, sources, reads, facts = stack.pop()
        while type(node) is not Leaf:
            test = node.test
            if facts is None:
                break
            forced = facts.get(test)
            if forced is None and type(test) is FieldValueTest:
                value = facts.get(test.field)
                if value is not None:
                    forced = matches(value, test.value)
            if forced is None:
                break
            if on_decided is not None:
                on_decided(test, forced)
            node = node.hi if forced else node.lo
        else:
            yield sources, reads, node
            continue
        hi, lo = node.hi, node.lo
        hi_sources = lo_sources = sources
        hi_facts = lo_facts = facts
        fresh = True  # may a fresh packet take the hi arm?
        # key: what an arm's support names wherever the test can recur.
        if type(test) is FieldValueTest:
            key = test.field
            fresh = key != OUTPORT
            if key == INPORT:
                value = test.value
                hi_sources = frozenset(p for p in sources if matches(p, value))
                lo_sources = sources - hi_sources
        elif type(test) is StateVarTest:
            key = (test.var,)
            reads = reads | {test.var}  # either arm reads it
        else:  # FieldFieldTest
            key = test.field1
        if key in lo._support:
            lo_facts = _learn(facts, test, False)
        stack.append((lo, lo_sources, reads, lo_facts))
        if fresh:
            if key in hi._support:
                hi_facts = _learn(facts, test, True)
            stack.append((hi, hi_sources, reads, hi_facts))
