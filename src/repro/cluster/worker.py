"""The standalone cluster worker daemon.

Run one per execution slot, on this machine or any other host that can
reach the coordinator's network:

.. code-block:: console

    $ python -m repro.cluster.worker --listen 0.0.0.0:7411

The daemon binds the given address (port ``0`` picks a free port), prints
a one-line banner —

.. code-block:: text

    SNAP-CLUSTER-WORKER <protocol-version> <host> <port>

— and serves coordinators one connection at a time over the
:mod:`repro.cluster.protocol` wire format.  A worker is a *cache plus an
execution lane*: it holds rehydrated switch-program sets keyed by the
parent network's ``_exec_program_key`` and lane-capable worker networks
keyed by ``_exec_network_key``, so a long-lived daemon pays
deserialization once per spec, not per batch — and a TE ``rewire`` (same
program key, new network key) reships only the small network half.  Shard
batches execute on exactly the compiled lane
(:class:`repro.dataplane.network.Walker`) the in-process engines run, so a
cluster run is field-for-field identical to a sequential one.

Spawned daemons (see :func:`repro.cluster.coordinator
.spawn_worker_process`) get ``--orphan-exit``: the daemon records its
parent pid and exits as soon as it is re-parented, so a coordinator that
dies without cleanup can never leak workers.  Manually started daemons
omit the flag and keep serving successive coordinators until
:data:`~repro.cluster.protocol.SHUTDOWN` (or SIGTERM) arrives.
"""

from __future__ import annotations

import argparse
import os
import pickle
import select
import socket
import sys
import traceback

from repro.cluster import protocol as wire

#: Cache budget per daemon: a worker serving a long-lived session sees a
#: new network token per hot swap; old entries must not accumulate.  An
#: evicted spec is simply re-shipped (the coordinator retries on the
#: ``missing`` error reply).
CACHE_LIMIT = 4


def _trim(cache: dict) -> None:
    while len(cache) > CACHE_LIMIT:
        cache.pop(next(iter(cache)))


class WorkerDaemon:
    """One execution slot behind a listening TCP socket."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0,
        orphan_exit: bool = False,
    ):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(4)
        self.host, self.port = self._listener.getsockname()[:2]
        self._parent = os.getppid() if orphan_exit else None
        self._programs: dict = {}  # program_key -> {switch: SwitchProgram}
        self._networks: dict = {}  # network_key -> worker Network
        self._active = 0  # jobs served on the current connection
        self._chaos_mode: str | None = None

    # -- serving -----------------------------------------------------------

    def _orphaned(self) -> bool:
        return self._parent is not None and os.getppid() != self._parent

    def serve_forever(self) -> None:
        """Accept coordinators until SHUTDOWN (or orphaning) ends us."""
        self._listener.settimeout(1.0)
        try:
            while True:
                if self._orphaned():
                    return
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                try:
                    self._serve_connection(conn)
                finally:
                    conn.close()
        finally:
            self._listener.close()

    def _serve_connection(self, conn) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            # Wait for the next frame in 1 s slices so an orphaned daemon
            # notices its parent is gone even while a coordinator holds
            # the connection open idle.
            ready, _, _ = select.select([conn], [], [], 1.0)
            if not ready:
                if self._orphaned():
                    sys.exit(0)
                continue
            try:
                message_type, payload = wire.recv_message(conn)
            except (wire.TransportError, wire.ProtocolError):
                # Coordinator went away, or a stray client (port
                # scanner, health probe) sent bytes that are not our
                # protocol: drop the connection, keep the daemon.
                return
            try:
                self._handle(conn, message_type, payload or {})
            except (wire.TransportError, wire.ProtocolError):
                # The peer vanished while we were replying (e.g. the
                # coordinator timed this worker out and abandoned the
                # socket mid-lane): the result is undeliverable, the
                # daemon lives on for the next coordinator.
                return

    # -- message handlers --------------------------------------------------

    def _handle(self, conn, message_type: str, payload: dict) -> None:
        if message_type == wire.HELLO:
            version = payload.get("version")
            if version != wire.PROTOCOL_VERSION:
                wire.send_message(conn, wire.ERROR, {
                    "message": (
                        f"protocol version mismatch: coordinator speaks "
                        f"{version}, worker speaks {wire.PROTOCOL_VERSION}"
                    ),
                })
                return
            wire.send_message(conn, wire.WELCOME, {
                "version": wire.PROTOCOL_VERSION, "pid": os.getpid(),
            })
        elif message_type == wire.PING:
            wire.send_message(conn, wire.PONG, {
                "pid": os.getpid(),
                "active": self._active,
                "programs": len(self._programs),
                "networks": len(self._networks),
            })
        elif message_type == wire.LOAD_PROGRAM:
            # Exception-wrapped like the RUN handlers: a spec that fails
            # to revive here is a *deterministic* job failure the
            # coordinator must see as an ERROR reply — an unhandled
            # exception would kill the daemon and be misread as worker
            # loss, requeueing the same poison onto the next daemon.
            try:
                from repro.dataplane.netasm import revive_programs

                self._programs[payload["key"]] = revive_programs(
                    pickle.loads(payload["blob"])
                )
                _trim(self._programs)
            except Exception as exc:
                wire.send_message(conn, wire.ERROR, {
                    "message": f"program spec rejected: "
                               f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                })
            else:
                wire.send_message(conn, wire.OK, {"key": payload["key"]})
        elif message_type == wire.LOAD_NETWORK:
            programs = self._programs.get(payload["program_key"])
            if programs is None:
                # Never shipped, or evicted: the coordinator re-ships.
                wire.send_message(conn, wire.ERROR, {
                    "message": "program spec not cached",
                    "missing": "program",
                })
                return
            try:
                from repro.dataplane.network import worker_network

                spec = pickle.loads(payload["blob"])
                self._networks[payload["key"]] = worker_network(
                    spec, programs, payload["program_key"], payload["key"]
                )
                _trim(self._networks)
            except Exception as exc:
                wire.send_message(conn, wire.ERROR, {
                    "message": f"network spec rejected: "
                               f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                })
            else:
                wire.send_message(conn, wire.OK, {"key": payload["key"]})
        elif message_type == wire.RUN_SHARD:
            self._maybe_chaos_exit()
            network = self._networks.get(payload["network_key"])
            if network is None:
                wire.send_message(conn, wire.ERROR, {
                    "message": "network spec not cached",
                    "missing": "network",
                })
                return
            self._active += 1
            try:
                from repro.dataplane.network import Walker

                network.install_shard_state(payload["state"])
                lane = Walker(network, payload["batch"])
                telemetry = payload.get("telemetry")
                if telemetry is None:
                    records, links = lane.run()
                    job_spans = job_cards = None
                else:
                    # One job per connection at a time, so the capture
                    # windows slice out exactly this shard's spans and
                    # postcards; the span parents under the
                    # coordinator's wire-shipped trace context.
                    from repro.obs import postcards
                    from repro.obs.tracing import TRACER

                    with TRACER.capture() as job_spans, \
                            postcards.capture() as job_cards, \
                            postcards.sampling(
                                telemetry.get("postcard_every", 0)
                            ):
                        with TRACER.span(
                            "worker.run_shard",
                            parent=telemetry.get("trace"),
                            batch=len(payload["batch"]),
                            worker=os.getpid(),
                        ):
                            records, links = lane.run()
                state = network.extract_shard_state(payload["variables"])
            except Exception as exc:
                wire.send_message(conn, wire.ERROR, {
                    "message": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                })
            else:
                wire.send_message(conn, wire.RESULT, {
                    "records": records, "links": links, "state": state,
                    "spans": job_spans, "postcards": job_cards,
                })
            finally:
                self._active -= 1
        elif message_type == wire.CHAOS:
            # Test-only fault injection: "exit-on-next-run" makes the
            # daemon die abruptly when the next job arrives — the
            # deterministic stand-in for a host failing mid-run.
            self._chaos_mode = payload.get("mode")
            wire.send_message(conn, wire.OK, {"mode": self._chaos_mode})
        elif message_type == wire.SHUTDOWN:
            wire.send_message(conn, wire.BYE, {"pid": os.getpid()})
            sys.exit(0)
        else:
            wire.send_message(conn, wire.ERROR, {
                "message": f"unknown message type {message_type!r}",
            })

    def _maybe_chaos_exit(self) -> None:
        if self._chaos_mode == "exit-on-next-run":
            os._exit(23)  # simulated host loss: no goodbye, no flush

    def __repr__(self):
        return (
            f"WorkerDaemon({self.host}:{self.port}, "
            f"{len(self._programs)} programs, "
            f"{len(self._networks)} networks)"
        )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="SNAP cluster worker daemon",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to bind (port 0 picks a free port; default %(default)s)",
    )
    parser.add_argument(
        "--orphan-exit", action="store_true",
        help="exit when the spawning parent process dies",
    )
    args = parser.parse_args(argv)
    # Daemons inherit the coordinator's environment, including any
    # SNAP_TELEMETRY_FILE: drop the snapshot path so a daemon's atexit
    # flush can never clobber the coordinator's snapshot.  Telemetry
    # itself stays on — spans/postcards ride back over the wire.
    import dataclasses

    from repro import obs

    obs.configure(
        dataclasses.replace(obs.resolve_config(None), snapshot_path=None)
    )
    host, _, port = args.listen.rpartition(":")
    daemon = WorkerDaemon(
        host or "127.0.0.1", int(port or 0), orphan_exit=args.orphan_exit
    )
    print(
        f"SNAP-CLUSTER-WORKER {wire.PROTOCOL_VERSION} "
        f"{daemon.host} {daemon.port}",
        flush=True,
    )
    daemon.serve_forever()


if __name__ == "__main__":
    main()
