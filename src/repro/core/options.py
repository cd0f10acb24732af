"""Immutable compiler configuration.

One frozen :class:`CompilerOptions` value configures a whole
:class:`~repro.core.controller.SnapController` session.  Freezing it is
deliberate: a long-lived controller answers a stream of events, and the
answer to "what settings produced snapshot N?" must not change when the
caller later tweaks a knob.  To recompile with different settings, start
a new session (or pass a ``dataclasses.replace``-d options value).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CompilerOptions:
    """Settings shared by every compilation a session performs.

    Every compilation runs on the session's
    :class:`~repro.xfdd.incremental.CompileSession`, solves the §4.4 ST
    MILP (or the §6.2.2 TE LP), and validates its routing in P6;
    ``solver_time_limit`` and ``mip_rel_gap`` are what the solver takes.

    ``engine`` selects how the session's live data plane executes
    workloads: ``"sequential"`` (run-to-completion in arrival order),
    ``"sharded"`` (per-ingress state shards on parallel thread lanes,
    one lane per shard; ports that share a variable serialize on that
    shard's owner lane),
    ``"process"`` (the same shards on a pool of worker processes — one
    session-owned pool that survives TE hot swaps, see
    :mod:`repro.dataplane.engine`), ``"cluster"`` (the same shards on
    socket-connected worker daemons, local subprocesses or remote
    hosts, see :mod:`repro.cluster`), ``"vector"`` / ``"vector-jit"``
    (the columnar NumPy batch tier inside each lane, interpreted or as
    generated per-program kernels, see :mod:`repro.dataplane.vector`),
    any other name added through
    :func:`repro.dataplane.engine.register_engine`, or an engine
    instance.

    A field stays only if a caller needs a value other than its default
    or it describes the deployment; session-wide constants live in the
    modules that use them (``HISTORY_LIMIT`` in
    :mod:`repro.core.controller`, ``DEMAND_FLOOR`` in
    :mod:`repro.milp.placement`), and telemetry is process-wide, set
    through :func:`repro.obs.configure`.
    """

    solver_time_limit: float | None = None
    mip_rel_gap: float | None = None
    stateful_switches: tuple | None = None
    #: Data-plane execution engine for ``SnapController.network()``: a
    #: registered name (``"sequential"`` | ``"sharded"`` | ``"process"``
    #: | ``"cluster"`` | ``"vector"`` | ``"vector-jit"`` | ...) or an
    #: engine instance.
    engine: object = "sequential"

    def __post_init__(self):
        if self.stateful_switches is not None and not isinstance(
            self.stateful_switches, tuple
        ):
            object.__setattr__(
                self, "stateful_switches", tuple(self.stateful_switches)
            )
        if isinstance(self.engine, str):
            from repro.dataplane.engine import engine_names

            if self.engine not in engine_names():
                raise ValueError(
                    f"engine must be one of {engine_names()} or an engine "
                    f"instance, got {self.engine!r}"
                )
