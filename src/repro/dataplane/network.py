"""The distributed data-plane simulator — our Mininet substitute.

Each switch runs its compiled NetASM program over its local state tables;
packets carry the SNAP header and are forwarded by the per-switch
match-action tables along the MILP-selected (u, v) path.

Egress selection (Appendix D): when a packet pauses on a state variable
before its egress is known, the ingress tags it with a candidate egress
whose flow needs that variable (weighted by demand); when the leaf finally
assigns the real outport, the packet is re-tagged and continues along the
new path from its current switch — which the MILP guarantees lies on that
path too.

Two delivery modes, one packet semantics:

* sequential (default): each injected packet runs to completion before the
  next, on the :class:`Walker` — the one scalar walker, which every
  engine lane and every sampled postcard packet also runs.  It must agree
  exactly with the OBS ``eval`` semantics, and the property tests check
  that it does;
* concurrent: hops of in-flight packets interleave under a scheduler,
  exposing the §2.1 transaction hazards that ``atomic()`` exists to
  prevent.  A hop-granular loop over the same ``SwitchProgram.process``
  and the same two routing decisions (:meth:`Network.pause_egress`,
  :meth:`Network.next_hop`) the walker uses.
"""

from __future__ import annotations

import itertools
from collections import deque

from repro.dataplane.header import (
    DONE_TAG,
    ROOT_TAG,
    SNAP_INPORT,
    SNAP_NODE,
    SNAP_OUTPORT,
    add_header,
    strip_header,
)
from repro.dataplane.netasm import ARRIVAL, SwitchProgram, compile_switch
from repro.dataplane.rules import RuleTables, build_rule_tables
from repro.dataplane.split import NodeIndex, owned_entries
from repro.lang.errors import DataPlaneError, RetiredNetworkError
from repro.lang.packet import Packet
from repro.lang.state import Store
from repro.milp.results import RoutingPaths
from repro.obs import postcards
from repro.topology.graph import Topology

MAX_HOPS = 1000
HOP_LIMIT_MESSAGE = "packet exceeded hop limit (routing loop?)"

#: Monotonic tokens identifying (a) a compiled switch-program set and (b)
#: one Network instance built around it.  The process-pool engine keys its
#: worker-side rehydration caches on these: a TE ``rewire`` shares the
#: compiled programs (same program key, new network key), while a policy
#: rebuild mints a fresh program key.
_EXEC_KEYS = itertools.count(1)


class DeliveryRecord:
    """One packet copy's fate: delivered at a port, or dropped."""

    __slots__ = ("fields", "egress", "hops")

    def __init__(self, fields: dict, egress: int | None, hops: int):
        self.fields = fields  # the copy's own field dict, never touched again
        self.egress = egress  # None = dropped
        self.hops = hops

    @property
    def packet(self) -> Packet:
        """The copy as a :class:`Packet`, wrapped on demand."""
        return Packet._wrap(self.fields)

    def __repr__(self):
        where = f"port {self.egress}" if self.egress is not None else "dropped"
        return f"DeliveryRecord({where}, hops={self.hops})"


class Network:
    """Topology + per-switch programs + routing tables + link stats."""

    #: Who holds this network's state now; ``None`` while it is its own.
    retired_by: str | None = None

    def __init__(
        self,
        topology: Topology,
        xfdd,
        placement: dict,
        routing: RoutingPaths,
        mapping,
        demands: dict | None = None,
        state_defaults: dict | None = None,
        rules: RuleTables | None = None,
    ):
        self.topology = topology
        self.placement = dict(placement)
        self.routing = routing
        self.mapping = mapping
        self.demands = dict(demands or {})
        self.index = NodeIndex(xfdd)
        self.rules: RuleTables = (
            rules if rules is not None else build_rule_tables(routing)
        )
        port_switches = set(topology.ports.values())
        defaults = dict(state_defaults or {})
        self.state_defaults = defaults
        owned = owned_entries(xfdd, self.index, self.placement)
        self.switches: dict[str, SwitchProgram] = {
            name: compile_switch(
                name, xfdd, self.index, self.placement, defaults,
                has_ports=name in port_switches, owned=owned.get(name, ()),
            )
            for name in topology.switches()
        }
        self.link_packets: dict = {}
        #: Engine :func:`repro.workloads.replay` uses when none is passed
        #: explicitly (a name or an engine instance; the controller sets
        #: it from ``CompilerOptions.engine``).
        self.default_engine: object = "sequential"
        # Worker-cache keys for the process engine (see _EXEC_KEYS).
        self._exec_program_key = next(_EXEC_KEYS)
        self._exec_network_key = next(_EXEC_KEYS)
        self._init_routing_indices()

    def _init_routing_indices(self) -> None:
        """(Re)build everything derived from routing/topology/demands."""
        # Per-flow path index: (u, v) -> {switch: position}, so the
        # per-hop "is this switch on the installed path" question is a
        # dict lookup instead of a list scan.
        self._path_pos: dict = {}
        for (u, v), path in self.routing.paths.items():
            self._path_pos[(u, v)] = {sw: i for i, sw in enumerate(path)}
        # Candidate-egress index (Appendix D): (u, var) -> flows needing
        # ``var``, highest demand first (stable, so ties keep the mapping's
        # iteration order — the same flow the per-query scan used to pick).
        self._egress_index: dict = {}
        for (fu, fv), states in self.mapping.items():
            pos = self._path_pos.get((fu, fv))
            if pos is None:
                continue
            demand = self.demands.get((fu, fv), 0.0)
            for var in states:
                self._egress_index.setdefault((fu, var), []).append(
                    (demand, fv, pos)
                )
        for candidates in self._egress_index.values():
            candidates.sort(key=lambda entry: -entry[0])
        # Default routes: shortest-path next hop toward each switch, used
        # for processing-complete packets with no installed (u, v) rule —
        # e.g. hairpin flows (egress == ingress port) or re-tagged egresses.
        # Such packets have no remaining state constraints, so any route
        # to the egress is semantically equivalent.  Computed lazily: one
        # reverse BFS per egress switch covers every source at once, and
        # only egresses that actually need a default route pay for it.
        self._default_next: dict = {}
        self._default_done: set = set()

    def rewire(self, topology: Topology, routing: RoutingPaths,
               demands: dict | None = None,
               rules: RuleTables | None = None) -> "Network":
        """A new network with routing/topology/demands replaced.

        For hot swaps where the xFDD and placement are unchanged (TE
        events): the compiled switch programs — and with them the state
        stores — are *shared* with this network, so state carries over
        for free and no per-switch recompilation happens; only the rule
        tables and routing-derived indices are rebuilt.
        """
        dup = object.__new__(Network)
        dup.topology = topology
        dup.placement = dict(self.placement)
        dup.routing = routing
        dup.mapping = self.mapping
        dup.demands = dict(demands if demands is not None else self.demands)
        dup.index = self.index
        dup.rules = rules if rules is not None else build_rule_tables(routing)
        dup.state_defaults = self.state_defaults
        dup.switches = self.switches
        dup.link_packets = {}
        dup.default_engine = self.default_engine
        # Same compiled programs -> same program key (process-pool workers
        # keep their rehydrated programs); new routing -> new network key.
        dup._exec_program_key = self._exec_program_key
        dup._exec_network_key = next(_EXEC_KEYS)
        dup._init_routing_indices()
        return dup

    # -- state access ------------------------------------------------------

    def require_live(self) -> None:
        """A network whose state has a successor (:meth:`adopt_state`, a
        controller hot swap) is retired: every driver of it raises."""
        if self.retired_by is not None:
            raise RetiredNetworkError(
                "this network is retired, its state belongs to "
                f"{self.retired_by}: fetch controller.network() after every event"
            )

    def global_store(self) -> Store:
        """Union of all switches' local state (for OBS equivalence
        checks): a snapshot the caller may mutate freely."""
        self.require_live()
        merged = Store(self.state_defaults)
        for program in self.switches.values():
            for name in program.store.names():
                merged.adopt(program.store.variable(name).copy())
        return merged

    def adopt_state(self, previous: "Network") -> None:
        """Move ``previous``'s state into this network and retire it.

        The live-reconfiguration half of a controller hot swap: every
        non-empty :class:`StateVariable` *object* of the old data plane
        becomes its new owner switch's table (no entry is copied: the
        cost is O(variables) however much state is held) and reads this
        program's default on absent keys.  Variables this placement no
        longer has are dropped; new ones keep their fresh tables.
        """
        previous.require_live()
        moves = [
            (self.switches[self.placement[name]], old.store.variable(name))
            for old in previous.switches.values()
            for name in old.store.names() if name in self.placement
        ]
        for program, variable in moves:
            if len(variable):
                variable.default = program.store.variable(variable.name).default
                program.store.adopt(variable)
                program._functions, program._templates = [None, None], {}  # rebound
        previous.retired_by = "the network that adopted it"

    # -- per-shard state transfer (process and cluster lanes) ---------------

    def _placed_variables(self, names):
        """``(name, StateVariable)`` for each name with a placed owner;
        unplaced variables cannot hold data-plane state."""
        for name in names:
            owner = self.placement.get(name)
            if owner is not None:
                yield name, self.switches[owner].store.variable(name)

    def extract_shard_state(self, variables) -> dict:
        """Snapshot the named state variables from their owner switches.

        Returns ``{var: (default, {key: value})}`` — pure data, picklable,
        suitable for shipping a shard's private state to a worker process.
        Variables without a placed owner are skipped.
        """
        return {
            name: (variable.default, variable.snapshot())
            for name, variable in self._placed_variables(sorted(variables))
        }

    def install_shard_state(self, state: dict) -> None:
        """Replace the named variables' contents with ``state``.

        The worker-side half of the transfer: a cached worker network may
        hold a previous batch's values, so installation *replaces* each
        variable's table rather than merging into it.
        """
        for name, variable in self._placed_variables(state):
            variable.default, table = state[name]
            variable._table = dict(table)

    def merge_shard_state(self, state: dict) -> None:
        """Apply a worker's post-run shard state back into this network.

        The parent-side half: every entry the worker's run produced is
        written into the variable's owner switch.  Shards are provably
        disjoint, and state tables never delete keys, so entry-wise update
        reproduces exactly the state a sequential run would have left.
        """
        for name, variable in self._placed_variables(state):
            variable.default, table = state[name]
            for key, value in table.items():
                variable.set(key, value)

    # -- the two routing decisions (shared by every packet driver) ----------------

    def pause_egress(self, u: int, v, var: str, switch: str) -> int:
        """The egress tag a packet pausing on ``var`` at ``switch`` keeps
        travelling toward (Appendix D).

        The current tag ``v`` stands when the installed ``(u, v)`` path
        still reaches the variable's owner from here; otherwise the
        packet is retagged to the highest-demand flow from ``u`` that
        needs ``var`` and whose path passes through ``switch`` (the
        per-``(u, var)`` candidate lists are precomputed, sorted by
        demand).
        """
        if v is not None:
            pos = self._path_pos.get((u, v))
            if (
                pos is not None
                and switch in pos
                and var in self.mapping.states_for(u, v)
            ):
                owner = self.placement[var]
                if owner in pos and pos[owner] >= pos[switch]:
                    return v
        for _, candidate, pos in self._egress_index.get((u, var), ()):
            if switch in pos:
                return candidate
        raise DataPlaneError(
            f"no candidate egress for flow from port {u} pausing on "
            f"{var!r} at {switch}"
        )

    def next_hop(self, switch: str, u: int, v: int, tag: int) -> str:
        """Where ``switch`` sends a packet of flow ``(u, v)`` carrying ``tag``.

        The rule table first (it holds every installed path's next hops);
        a DONE packet has no state constraints left, so any route to its
        egress will do and the default route is second.
        """
        nxt = self.rules.next_hop(switch, u, v)
        if nxt is None and tag == DONE_TAG:
            nxt = self._default_next_hop(switch, self.topology.port_switch(v))
        if nxt is None:
            raise DataPlaneError(
                f"no route at {switch} for flow ({u}, {v}) (tag={tag})"
            )
        return nxt

    def _default_next_hop(self, source: str, target: str):
        """Next hop from ``source`` on some shortest path toward ``target``.

        One reverse BFS from ``target`` fills in the next hop for *every*
        source (the BFS parent pointers point toward the target), replacing
        the per-source shortest-path calls this table was built from."""
        if target not in self._default_done:
            default_next = self._default_next
            adjacency = self.topology.graph.pred  # reverse edges of the DiGraph
            visited = {target}
            frontier = deque((target,))
            while frontier:
                node = frontier.popleft()
                for prev in adjacency[node]:
                    if prev not in visited:
                        visited.add(prev)
                        default_next[(prev, target)] = node
                        frontier.append(prev)
            # Marked done only after the table is fully populated, so a
            # concurrent reader (sharded-engine lanes share this cache)
            # never observes a half-filled route table.
            self._default_done.add(target)
        return self._default_next.get((source, target))

    # -- packet drivers -----------------------------------------------------------

    def inject(self, packet: Packet, port: int) -> list[DeliveryRecord]:
        """Sequential mode: run one packet to completion."""
        return self.inject_many(((packet, port),))[0]

    def inject_many(self, packets_with_ports) -> list[list[DeliveryRecord]]:
        """Sequential mode: each packet runs to completion, in order;
        one record list per packet (:meth:`stream`, materialised)."""
        return list(self.stream(packets_with_ports))

    def stream(self, packets_with_ports):
        """Sequential mode, one packet at a time: yields each packet's
        record list as its walk ends and keeps none of them.

        One :class:`Walker` over all ingress ports, run inline; arrivals
        stream straight into it.  When the stream ends — exhausted,
        closed early by its consumer, or on a packet that raises — what
        the packets that ran leave behind is their state writes and
        their link counts in ``link_packets``.
        """
        walker = Walker(self)
        run_packet = walker.run_packet
        sampler = postcards.active_sampler()
        try:
            for index, (packet, port) in enumerate(packets_with_ports):
                if sampler is not None and sampler.should(index):
                    yield walker.run_sampled(packet, port, index)
                else:
                    yield run_packet(packet, port)
        finally:
            walker.add_link_counts(self.link_packets)

    def inject_concurrent(self, packets_with_ports, scheduler=None) -> list[DeliveryRecord]:
        """Concurrent mode: all packets in flight, hops interleaved.

        ``scheduler(pending)`` picks which pending hop advances next (index
        into the queue); the default is FIFO.  Adversarial schedulers model
        in-flight packet reordering — the hazard §2.1's transactions exist
        to contain.

        A hop-granular scheduler over the same pieces the
        run-to-completion :class:`Walker` is made of —
        :meth:`SwitchProgram.process`, :meth:`pause_egress` and
        :meth:`next_hop` — taking one step at a time where the walker
        takes a whole memoized leg.
        """
        self.require_live()
        ports = self.topology.ports
        switches = self.switches
        links = self.link_packets
        records: list[DeliveryRecord] = []
        queue: deque = deque(
            (add_header(packet, port), self.topology.port_switch(port), 0)
            for packet, port in packets_with_ports
        )

        def advance(packet, switch, hops):
            """Deliver a DONE packet at its egress switch, else one link."""
            fields = packet._fields
            v, tag = fields[SNAP_OUTPORT], fields[SNAP_NODE]
            if tag == DONE_TAG and ports[v] == switch:
                records.append(
                    DeliveryRecord(strip_header(packet)._fields, v, hops)
                )
                return
            nxt = self.next_hop(switch, fields[SNAP_INPORT], v, tag)
            links[(switch, nxt)] = links.get((switch, nxt), 0) + 1
            queue.append((packet, nxt, hops + 1))

        while queue:
            # The deque goes to the scheduler as is (it only needs
            # len() and indexing); copying it to a list every hop made
            # adversarial-scheduler soaks quadratic.
            index = scheduler(queue) if scheduler is not None else 0
            packet, switch, hops = queue[index]
            del queue[index]
            if hops > MAX_HOPS:
                raise DataPlaneError(HOP_LIMIT_MESSAGE)
            tag = packet._fields[SNAP_NODE]
            if tag == DONE_TAG or tag not in switches[switch].entries:
                advance(packet, switch, hops)
                continue
            for outcome in switches[switch].process(packet):
                packet = outcome.packet
                fields = packet._fields
                if outcome.kind == "pause":
                    v = self.pause_egress(
                        fields[SNAP_INPORT], fields.get(SNAP_OUTPORT),
                        outcome.var, switch,
                    )
                    advance(packet.modify(SNAP_OUTPORT, v), switch, hops)
                elif outcome.kind == "emit" and fields.get("outport") in ports:
                    advance(
                        packet.modify_many({
                            SNAP_OUTPORT: fields["outport"],
                            SNAP_NODE: DONE_TAG,
                        }),
                        switch, hops,
                    )
                else:
                    records.append(DeliveryRecord(fields, None, hops))
        return records

    # -- reporting -------------------------------------------------------------

    def instruction_counts(self) -> dict:
        return {
            name: len(program.instructions) for name, program in self.switches.items()
        }

    def __repr__(self):
        return (
            f"Network({self.topology.name}, switches={len(self.switches)}, "
            f"rules={self.rules.total_rules()})"
        )


# -- the scalar packet walker --------------------------------------------------


class Walker:
    """The one scalar packet walker: a packet runs to completion.

    Every run-to-completion driver is this class — ``inject`` /
    ``inject_many`` and the sequential engine (one walker over all
    ingress ports), each thread, process and cluster lane (one walker
    per shard batch), and sampled postcard packets (the same walk with a
    recorder), and ``replay()``'s :meth:`fold`, which counts the walk
    instead of recording it.  Its records agree with the OBS ``eval``
    semantics; the property tests check that they do.

    Between two events everything the walk looks up is a constant, so it
    is kept in *continuation cells*: per ``(switch, ingress port u)``
    one pair of dicts, ``done[egress] -> [count, hops, links]`` and
    ``pause[(v, tag)] -> [count, hops, links, egress, resume]`` — the
    links to the egress switch, or (Appendix D) the kept-or-retagged
    egress and the links to the first switch that can act on ``tag``,
    with ``resume = [generated function, program, entry, that switch's
    own dict pair, tag]`` (the function bound when a copy first runs
    there: :meth:`fold` may never need it).  A cell is built on first use from
    :meth:`Network.pause_egress` and :meth:`Network.next_hop`, so hop
    counts and per-link packet counts are exactly those of a hop-by-hop
    walk; a lookup that raises leaves no cell behind.  An outcome then
    costs one probe, one counter bump and one add, and the counters
    expand into link counts on demand.  A walker is private to its
    caller, so lanes never race on counters.

    The SNAP header is walk-local: ``u`` is the ingress port, ``v`` and
    the tag ride the stack with each copy; only a dropped copy's record
    has the three ``snap.*`` fields written out.
    """

    __slots__ = ("network", "batch", "_ingress", "_cells")

    def __init__(self, network: Network, batch=()):
        network.require_live()
        self.network = network
        self.batch = batch  # [(global_index, packet, port)], for run()
        self._ingress: dict = {}  # port -> resume at ROOT_TAG
        self._cells: dict = {}  # (switch, u) -> (done, pause)

    def run(self):
        """The lane contract: the batch, in order.  Returns
        ``({global_index: [DeliveryRecord]}, {link: count})`` — keyed by
        index because the engines merge several lanes' results back
        into global arrival order."""
        results: dict = {}
        run_packet = self.run_packet
        sampler = postcards.active_sampler()
        for index, packet, port in self.batch:
            if sampler is not None and sampler.should(index):
                results[index] = self.run_sampled(packet, port, index)
            else:
                results[index] = run_packet(packet, port)
        links: dict = {}
        self.add_link_counts(links)
        return results, links

    def run_sampled(self, packet: Packet, port: int, index: int) -> list:
        """:meth:`run_packet` for a postcard-sampled packet."""
        recorder = postcards.PostcardRecorder(index, port)
        records = self.run_packet(packet, port, recorder)
        recorder.finish(records)
        return records

    def add_link_counts(self, links: dict) -> None:
        """Add this walker's per-link packet counts to ``links`` (once,
        after its last walk: the cell counters are not reset)."""
        for pair in self._cells.values():
            for cells in pair:
                for cell in cells.values():
                    for link in cell[2]:
                        links[link] = links.get(link, 0) + cell[0]

    def fold(self, arrivals, stats) -> None:
        """:meth:`run_packet` over ``arrivals``, counted into ``stats`` (a
        ``ReplayStats``) by path, not recorded: the fused walk of
        :class:`_Fold`; a sampled packet goes through :meth:`run_sampled`.
        The counts expand when the walk ends, also on a packet that
        raises: the packets before it stay counted."""
        walk = _Fold(self, stats)
        counts, entries = walk.counts, {}
        sampler = postcards.active_sampler()
        try:
            for index, (packet, port) in enumerate(arrivals):
                if sampler is not None and sampler.should(index):
                    stats.record(self.run_sampled(packet, port, index))
                    continue
                run = entries.get(port)
                if run is None:
                    resume = self._ingress.get(port) or self._enter(port)
                    run = entries[port] = walk.context(resume, port, None, 0, (), port)
                counts[run(packet._fields)] += 1
        except BaseException as exc:
            walk.raised(exc.__traceback__)
            raise
        finally:
            walk.expand()
            self.add_link_counts(self.network.link_packets)

    def run_packet(self, packet: Packet, port: int, recorder=None) -> list:
        """One packet from its ingress port to every copy's fate.

        Each copy is a mutable field dict that belongs to this walk: one
        copy of the packet's fields at ingress, forked only by the
        switch programs and handed as is to the copy's final
        :class:`DeliveryRecord`.

        ``recorder`` (a postcard recorder) sees the same walk through
        the programs' traced functions; hop events are replayed from
        each cell's link tuple.
        """
        resume = self._ingress.get(port) or self._enter(port)
        fields = dict(packet._fields)
        fields["inport"] = port
        return self._finish(port, resume, fields, None, 0, None, recorder)

    def _enter(self, port: int):
        """The ``resume`` at ingress ``port``, built on its first packet
        (leading inport-only branches resolved once per port)."""
        net = self.network
        try:
            program = net.switches[net.topology.ports[port]]
        except KeyError:
            raise DataPlaneError(f"no OBS port {port} in the topology") from None
        entry = program.resolve_inport_entry(ROOT_TAG, port)
        resume = self._continuation(program, entry, port, ROOT_TAG)
        self._ingress[port] = resume
        return resume

    def _finish(self, port, resume, fields, out, hops, v, recorder=None) -> list:
        """The continuation loop: a packet of ingress ``port``, from the
        copy ``fields`` about to run at ``resume`` — or, with ``out``
        given, from what that run emitted — to every copy's record.

        Depth-first over packet copies, first-emitted first: the OBS
        evaluation order.  Stack items are ``(resume, fields, hops, v)``
        or DeliveryRecords; a record on the stack is a delivery whose
        forwarding hops a hop-by-hop walk would still be taking, so it
        surfaces in the same depth-first position.
        """
        run, program, entry, (done, pause), tag = resume
        records: list = []
        stack: list = []
        while True:
            if out is None:
                out = []
                if recorder is None:
                    if run is None:  # bound when a copy first runs here
                        run = resume[0] = program.functions()[entry]
                    run(fields, out)
                else:
                    recorder.process(program.switch)
                    program.functions(True)[entry](fields, out, recorder)
            in_flight = None
            for fields, outcome in out:
                if outcome == DONE_TAG:
                    egress = fields.get("outport")
                    cell = done.get(egress)
                    if cell is None and egress in self.network.topology.ports:
                        cell = self.done_cell(program.switch, port, egress)
                elif outcome is None:
                    cell = None
                else:
                    cell = pause.get((v, outcome))
                    if cell is None:
                        cell = self._pause_cell(pause, program, port, v, outcome)
                if cell is None:
                    # Dropped, or emitted toward no port: the one place
                    # the header is observable.
                    fields[SNAP_INPORT] = port
                    if v is not None:
                        fields[SNAP_OUTPORT] = v
                    fields[SNAP_NODE] = tag
                    records.append(DeliveryRecord(fields, None, hops))
                    continue
                cell[0] += 1
                total = hops + cell[1]
                if total > MAX_HOPS:
                    raise DataPlaneError(HOP_LIMIT_MESSAGE)
                if recorder is not None:
                    for link in cell[2]:
                        recorder.hop(*link)
                if outcome != DONE_TAG:
                    item = (cell[4], fields, total, cell[3])
                elif total == hops:
                    # Delivered here: ahead of any copy still in flight.
                    records.append(DeliveryRecord(fields, egress, hops))
                    continue
                else:
                    item = DeliveryRecord(fields, egress, total)
                    if not stack and len(out) == 1:
                        # Unicast: nothing else in flight to order against.
                        records.append(item)
                        return records
                if in_flight is None:
                    in_flight = [item]
                else:
                    in_flight.append(item)
            if in_flight is not None:
                stack.extend(reversed(in_flight))
            while stack and type(stack[-1]) is DeliveryRecord:
                records.append(stack.pop())
            if not stack:
                return records
            resume, fields, hops, v = stack.pop()
            run, program, entry, (done, pause), tag = resume
            out = None

    def _continuation(self, program: SwitchProgram, entry: int, u: int, tag: int):
        """How a copy of ingress ``u`` carrying ``tag`` is processed at
        ``program``'s switch: the ``resume`` of the class docstring."""
        cells = self._cells.setdefault((program.switch, u), ({}, {}))
        return [None, program, entry, cells, tag]

    def done_cell(self, switch: str, u: int, egress: int) -> list:
        """The DONE cell of a finished copy of ingress ``u`` leaving
        ``switch`` for the port ``egress``: ``[count, hops, links]``
        (no links when the port is on ``switch``).  Callers bump
        ``cell[0]`` once per copy that takes it."""
        done = self._cells.setdefault((switch, u), ({}, {}))[0]
        cell = done.get(egress)
        if cell is None:
            links = ()
            if self.network.topology.ports[egress] != switch:
                links = self._walk(switch, u, egress, DONE_TAG)[1]
            cell = done[egress] = [0, len(links), links]
        return cell

    def _pause_cell(self, pause: dict, program, u: int, v, tag: int) -> list:
        """Build the PAUSE cell of ``(v, tag)`` at ``program``'s switch:
        the copy is tagged with an egress that reaches the variable and
        carried to the first switch that can act on its tag."""
        switch = program.switch
        egress = self.network.pause_egress(u, v, program.pause_vars[tag], switch)
        resume, links = self._walk(switch, u, egress, tag)
        cell = pause[(v, tag)] = [0, len(links), links, egress, resume]
        return cell

    def _walk(self, switch: str, u: int, v: int, tag: int):
        """Follow :meth:`Network.next_hop` until the packet reaches a
        switch that can act on it (process the tag, or deliver a DONE
        packet at its egress).  Returns ``(resume, links)``; ``resume``
        is ``None`` for a DONE packet."""
        net = self.network
        switches = net.switches
        egress_switch = net.topology.port_switch(v)
        links = []
        while True:
            nxt = net.next_hop(switch, u, v, tag)
            links.append((switch, nxt))
            if len(links) > MAX_HOPS:
                raise DataPlaneError(HOP_LIMIT_MESSAGE)
            switch = nxt
            if tag == DONE_TAG:
                if switch == egress_switch:
                    return None, tuple(links)
            elif tag in switches[switch].entries:
                program = switches[switch]
                resume = self._continuation(program, program.entries[tag], u, tag)
                return resume, tuple(links)


class _Fold:
    """One :meth:`Walker.fold`: the walk fused into generated code.

    A *context* — a ``resume``, ingress port ``u``, egress tag ``v``,
    hops so far, cells crossed and ``inport`` (``U``) — runs its own
    :meth:`~repro.dataplane.netasm.SwitchProgram.template` on a trace
    packet's own, unwritten fields: PAUSE calls a link (per tag and
    ``inport``) that builds the cell, then is replaced by the next
    context's function; EMIT probes a table that a miss fills from
    :meth:`Walker.done_cell`; DROP returns the drop path.  Every terminal
    returns a *path id*.  A fork, a cell that raises and the hop limit
    (read when a link is made) go through :meth:`Walker._finish` with an
    owned copy and return path 0; they, and a packet that raises
    (:meth:`raised`), bump the cells already crossed, so link counts are
    the stream's.
    """

    __slots__ = ("walker", "stats", "paths", "counts")

    def __init__(self, walker: Walker, stats):
        self.walker, self.stats = walker, stats
        self.paths: list = [None]  # path id -> (cells, egress or None, hops)
        self.counts: list = [0]  # path id -> packets

    def path(self, cells: tuple, egress, hops: int) -> int:
        """A new path id; its egress key enters ``per_egress`` now, so
        the keys keep the order in which packets first reached them."""
        if egress is not None:
            self.stats.per_egress.setdefault(egress, 0)
        self.paths.append((cells, egress, hops))
        self.counts.append(0)
        return len(self.paths) - 1

    def expand(self) -> None:
        """Add the counted paths to ``stats`` and their cells' counters."""
        delivered = dropped = total_hops = 0
        for (cells, egress, hops), count in zip(self.paths[1:], self.counts[1:]):
            for cell in cells:
                cell[0] += count
            if egress is None:
                dropped += count
            else:
                delivered += count
                total_hops += count * hops
                self.stats.per_egress[egress] += count
        self.stats.add_folded(delivered, total_hops, dropped)

    @staticmethod
    def raised(tb) -> None:
        """Bump the cells crossed by a packet that raised: those of the
        innermost context on its traceback (``slow`` bumps them only once
        :meth:`Walker._finish` returns)."""
        crossed = ()
        while tb is not None:
            crossed, tb = tb.tb_frame.f_globals.get("CROSSED", crossed), tb.tb_next
        for cell in crossed:
            cell[0] += 1

    def context(self, resume, u: int, v, hops: int, crossed: tuple, inport):
        """The function of the context of the class docstring."""
        walker, stats = self.walker, self.stats
        _, program, entry, (_, pause), _ = resume
        code, namespace, links = program.template(entry)
        namespace, table = dict(namespace), {}
        drop = self.path(crossed, None, hops)

        def slow(out: list) -> int:
            records = walker._finish(u, resume, None, out, hops, v)
            for cell in crossed:
                cell[0] += 1
            stats.record(records)
            return 0

        def link(name: str, tag: int, at):
            def pause_link(f) -> int:
                try:
                    cell = pause.get((v, tag)) or walker._pause_cell(
                        pause, program, u, v, tag
                    )
                    over = hops + cell[1] > MAX_HOPS
                except DataPlaneError:  # _finish raises it again
                    over = True
                if over:
                    return slow([({**f, "inport": at}, tag)])
                run = namespace[name] = self.context(
                    cell[4], u, cell[3], hops + cell[1], crossed + (cell,), at
                )
                return run(f)
            return pause_link

        def emit(f) -> int:
            egress = f.get("outport")
            if egress not in walker.network.topology.ports:
                path = drop
            else:
                try:
                    cell = walker.done_cell(program.switch, u, egress)
                except DataPlaneError:
                    return slow([(f, DONE_TAG)])
                if hops + cell[1] > MAX_HOPS:
                    return slow([(f, DONE_TAG)])
                path = self.path(crossed + (cell,), egress, hops + cell[1])
            table[egress] = path
            return path

        def fork(f, targets: tuple) -> int:
            run, out = program.functions(), []
            for target in targets[:-1]:
                run[target](dict(f), out)
            run[targets[-1]](f, out)
            return slow(out)

        namespace.update(
            E=table, D=drop, U=inport, emit=emit, fork=fork, CROSSED=crossed
        )
        for name, tag, at in links:
            namespace[name] = link(name, tag, inport if at is ARRIVAL else at)
        exec(code, namespace)  # noqa: S102 - generated by netasm
        return namespace[f"b{entry}"]


# -- execution-spec serialization (worker processes and cluster daemons) ------
#
# A remote executor never sees the parent's Network: it receives a *spec*
# of pure data and rehydrates a lane-capable Network from it.  The spec is
# split along the exec-token boundary: the *program* half (the lowered
# switch programs, keyed ``_exec_program_key``) is the expensive part and
# survives TE rewires; the *network* half (routing tables, port map,
# reverse adjacency, packet-state mapping, placement, demands, keyed
# ``_exec_network_key``) is rebuilt per rewire.  Shipping them separately
# is what lets a cluster coordinator rewire a warm worker with zero
# program bytes on the wire.


class _WorkerGraph:
    """Reverse-adjacency view backing ``topology.graph.pred``."""

    __slots__ = ("pred",)

    def __init__(self, pred: dict):
        self.pred = pred


class _WorkerTopology:
    """Just enough topology for the per-lane fast path."""

    __slots__ = ("ports", "graph", "name")

    def __init__(self, ports: dict, pred: dict):
        self.ports = ports
        self.graph = _WorkerGraph(pred)
        self.name = "worker"

    def port_switch(self, port: int) -> str:
        try:
            return self.ports[port]
        except KeyError:
            raise DataPlaneError(f"unknown OBS port {port}") from None


class _WorkerRouting:
    """Path table shim satisfying ``Network._init_routing_indices``."""

    __slots__ = ("paths",)

    def __init__(self, paths: dict):
        self.paths = paths


def exec_program_spec(network: Network) -> dict:
    """The program half of the execution spec: ``{switch: LoweredProgram}``."""
    from repro.dataplane.netasm import lower_programs

    return lower_programs(network.switches)


def exec_network_spec(network: Network) -> dict:
    """The network half of the execution spec (pure data, no programs)."""
    topology = network.topology
    graph = topology.graph
    return {
        "ports": dict(topology.ports),
        "pred": {node: tuple(graph.pred[node]) for node in graph.pred},
        "paths": {flow: tuple(path) for flow, path in network.routing.paths.items()},
        "tables": {sw: dict(tbl) for sw, tbl in network.rules.tables.items()},
        "mapping": network.mapping,
        "placement": dict(network.placement),
        "demands": dict(network.demands),
        "state_defaults": dict(network.state_defaults),
    }


def worker_network(
    spec: dict, programs: dict, program_key, network_key
) -> Network:
    """A lane-capable Network rehydrated from an execution spec.

    ``programs`` is the (already revived, possibly cached) switch-program
    set; two networks rehydrated with the same programs share state
    stores, exactly like the parent's ``rewire`` path.  The result runs
    the compiled per-shard lane but never consults an xFDD.
    """
    network = object.__new__(Network)
    network.topology = _WorkerTopology(spec["ports"], spec["pred"])
    network.placement = spec["placement"]
    network.routing = _WorkerRouting(spec["paths"])
    network.mapping = spec["mapping"]
    network.demands = spec["demands"]
    network.index = None  # lanes never consult the xFDD
    network.rules = RuleTables(spec["tables"])
    network.state_defaults = spec["state_defaults"]
    network.switches = programs
    network.link_packets = {}
    network.default_engine = "sequential"
    network._exec_program_key = program_key
    network._exec_network_key = network_key
    network._init_routing_indices()
    return network
