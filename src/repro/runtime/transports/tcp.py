"""TCP socket transport: campaign tasks over a stream, no shared disk.

The one parallel backend.  The scheduler listens on a ``host:port``;
workers forked from the scheduler (``workers=N``, dialing over
localhost) and independently launched ``python -m repro worker
--connect HOST:PORT`` processes on any host with a route (no
filesystem in common needed) dial in, and everything — tasks, claims,
results, heartbeats, stop — travels as length-prefixed, versioned,
CRC-checked pickle frames (see :mod:`~repro.runtime.transports.wire`).

Every frame is small (hello, task, claim, heartbeat, result), so both
ends set ``TCP_NODELAY``: with Nagle's algorithm on, a frame that
follows an unacknowledged one waits for the peer's delayed ACK, which
stalls every task by tens of milliseconds.

The scheduler drives the protocol through its claim-lease machinery
(deadlines armed at claim, requeues bounded by ``policy.max_requeues``):

* **authentication** — the messages are pickles, and unpickling bytes
  from an unauthenticated socket would hand arbitrary code execution to
  anyone who can reach the port.  Every connection therefore starts
  with the wire layer's mutual HMAC challenge/response over a shared
  secret (``--auth`` / ``$REPRO_TCP_AUTH``; auto-generated and handed
  to forked workers as an argument when not configured):
  the scheduler deserializes nothing from a peer that has not answered
  its challenge, and the worker unpickles no payload from a scheduler
  that has not answered *its* counter-challenge.  The handshake
  authenticates but does not encrypt — on untrusted networks, tunnel
  the port (see ``docs/distributed.md``).
* **hello** — a connecting worker introduces itself; the scheduler
  answers with the campaign payload (the pickled unit callable) and
  counts the worker as capacity (``worker.connect`` event).
* **claim** — the worker announces a task the moment it starts
  executing it; the scheduler arms a per-unit lease from that moment
  (``policy.lease_timeout_s``), so a worker that hangs holding a task
  has it voided and re-dispatched.  A forked worker holding an expired
  task is SIGKILLed and replaced (its other tasks requeue through the
  EOF path); an external worker can only be sent a ``cancel``.
* **result streaming** — with no shared :class:`ResultCache`, unit
  values ride the wire inside the result message, chunk-framed when
  large.  With ``shared_cache=True`` (hosts that share a filesystem)
  values go ``put``/verify into the cache instead and the message
  carries only ``stored=True`` digest references.
* **liveness** — each worker heartbeats from a background thread
  (independent of task length).  A dropped connection requeues the
  worker's outstanding tasks immediately, while heartbeat staleness
  covers half-open connections that never deliver an EOF.  Staleness
  is judged by scheduler-local arrival of new heartbeat values, never
  by comparing clocks across hosts.
* **stale-report immunity** — requeued units travel under fresh task
  ids, so a zombie's late result names an unknown task and is dropped.
  Results are digest-addressed and deterministic, so even a racing
  zombie's shared-cache write is bit-identical to the retry's.

Workers reconnect with jittered exponential backoff when the scheduler
goes away (a ``--resume`` reuses them), drain gracefully on ``stop``,
and discard their local task queue on disconnect — the scheduler has
already requeued everything they held.

Local workers are forked on the first :meth:`TcpTransport.submit`, not
in :meth:`~TcpTransport.open`: a fully cached run, or one whose workload
cannot be pickled (the scheduler swaps it to inline before submitting),
forks nothing.  Forking skips the interpreter start and package imports
a fresh ``python -m repro worker`` pays (~0.25 s per worker).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import secrets
import selectors
import signal
import socket
import sys
import threading
import time
from collections import deque

from repro import obs
from repro.runtime.cache import MISS
from repro.runtime.transports.base import (
    Task,
    Transport,
    UnitOutcome,
    _OutcomeBuffer,
    execute_task_units,
)
from repro.runtime.transports.wire import (
    AUTH_NONCE_BYTES,
    KIND_AUTH,
    PENDING,
    FrameDecoder,
    MessageAssembler,
    MessageStream,
    WireError,
    client_handshake,
    encode_auth_challenge,
    encode_auth_welcome,
    encode_message,
    verify_auth_response,
)

#: Seconds between a worker's heartbeat messages.
HEARTBEAT_INTERVAL_S = 1.0

#: A worker whose heartbeats stop arriving for this long is presumed
#: dead (its connection is dropped and its tasks requeue).
HEARTBEAT_STALE_S = 5.0

#: Environment flag set inside workers (``runtime.chaos`` uses it to
#: tell "safe to hard-exit" apart from "would kill the scheduler").
WORKER_ENV_FLAG = "REPRO_WORKER"

#: Environment variable carrying the shared handshake secret to external
#: workers (forked workers get it as an argument; external ones must be
#: given it, via this variable or ``repro worker --auth``).
AUTH_ENV = "REPRO_TCP_AUTH"

#: Start method of local workers (see the module docstring).
_FORK = multiprocessing.get_context("fork")

#: Ceiling on one blocking send before the peer is presumed gone.
SEND_TIMEOUT_S = 30.0

#: Worker-side connect timeout per dial attempt.
CONNECT_TIMEOUT_S = 5.0

#: Worker reconnect backoff: base * 2**attempt, jittered, capped.
BACKOFF_BASE_S = 0.1
BACKOFF_CAP_S = 5.0

#: Bytes pulled per ``recv`` when a socket is readable.
RECV_BYTES = 65536


def parse_address(address):
    """Split ``"host:port"`` into ``(host, port)`` (port validated)."""
    text = str(address).strip()
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"address {address!r} is not HOST:PORT (e.g. 127.0.0.1:7777)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"address {address!r} has a non-numeric port")
    if not 0 <= port <= 65535:
        raise ValueError(f"address {address!r} port is out of range")
    return host, port


def _no_delay(sock):
    """Turn off Nagle's algorithm on a connected socket (see module doc)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _dial(host, port):
    """Worker side: one connect attempt to the scheduler, Nagle off."""
    return _no_delay(
        socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
    )


def _forked_worker_main(inherited, address, worker_id, poll_s, auth):
    """Child side of a forked local worker: shed the scheduler, then serve.

    The child closes its copies of the scheduler's listener and
    connection sockets (otherwise a connection the scheduler drops would
    never EOF at its peer), closes its copy of the run's event sink (the
    parent flushed it just before forking, so nothing is written twice),
    starts with collection off as a fresh worker process would, and
    leaves SIGINT to the scheduler, which stops its workers itself.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for sock in inherited:
        sock.close()
    obs.EVENTS.unbind()
    obs.disable()
    obs.reset()
    tcp_worker_main(address, worker_id, poll_s, auth)


class _Conn:
    """Scheduler-side state of one worker connection."""

    def __init__(self, sock, addr):
        self.sock = sock
        self.addr = addr
        # Frames and messages are decoded separately: until ``authed``
        # flips, incoming frames get frame-level parsing only (struct +
        # CRC, no pickle) and anything but a valid auth response drops
        # the connection.
        self.decoder = FrameDecoder()
        self.assembler = MessageAssembler()
        self.authed = False
        self.nonce = secrets.token_bytes(AUTH_NONCE_BYTES)
        self.worker_id = None  # set by hello
        self.pid = None  # set by hello
        self.assigned = set()  # task ids sent down this connection
        self.connected_at = time.monotonic()


class TcpTransport(Transport):
    """Scheduler-side endpoint of the socket protocol.

    Parameters
    ----------
    host, port:
        The listen address.  ``port=0`` binds an ephemeral port;
        :meth:`ensure_listening` / :attr:`address` report the bound one
        so externally launched workers know where to dial.
    workers:
        Worker processes to fork locally (on the first submission) and
        babysit.  ``0`` relies entirely on workers launched elsewhere;
        dead forked workers are replaced, and ``policy.max_requeues``
        bounds a workload that keeps killing them.
    queue_depth:
        Tasks outstanding per live worker — the backpressure knob that
        keeps each worker's next task queued behind its current one.
    poll_s:
        Scheduler-side select granularity while waiting for traffic.
    worker_poll_s:
        Idle receive tick passed to forked workers.
    stale_s:
        Heartbeat age past which a connection is presumed half-open and
        dropped (its tasks requeue).  Judged from scheduler-local
        arrival of new heartbeat values, never by comparing clocks.
    shared_cache:
        When true, workers write values into the campaign's shared
        :class:`ResultCache` and results carry ``stored=True`` digest
        references (requires a cache and a filesystem in common); when
        false — the default, and the point of this transport — values
        stream back over the wire.
    auth:
        Shared secret for the connection handshake.  Defaults to
        ``$REPRO_TCP_AUTH``, else a random per-transport secret that
        only forked workers (handed it as an argument) can answer —
        externally launched workers then need the secret
        handed to them (``repro worker --auth`` / ``$REPRO_TCP_AUTH``;
        read it from :attr:`auth`).  A peer that cannot answer the
        challenge is dropped before any of its bytes are deserialized.
    """

    name = "tcp"
    requires_pickling = True
    needs_poll_tick = True

    def __init__(self, host="127.0.0.1", port=0, workers=0, queue_depth=2,
                 poll_s=0.02, worker_poll_s=0.05, stale_s=HEARTBEAT_STALE_S,
                 shared_cache=False, auth=None):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if stale_s <= 0:
            raise ValueError("stale_s must be positive")
        if not 0 <= int(port) <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if auth is None:
            auth = os.environ.get(AUTH_ENV) or secrets.token_hex(32)
        if isinstance(auth, bytes):
            auth = auth.decode("utf-8")
        if not auth:
            raise ValueError("auth secret must be non-empty")
        self.auth = str(auth)
        self._auth_secret = self.auth.encode("utf-8")
        self.host = str(host)
        self.port = int(port)
        self.workers = int(workers)
        self.queue_depth = int(queue_depth)
        self.poll_s = float(poll_s)
        self.worker_poll_s = float(worker_poll_s)
        self.stale_s = float(stale_s)
        self.shared_cache = bool(shared_cache)
        self._ctx = None
        self._selector = None
        self._listener = None
        self._bound = None  # (host, port) actually bound
        self._token = None
        self._payload_msg = None
        self._conns = []
        self._inflight = {}  # task_id -> Task
        self._claims = {}  # task_id -> worker id
        self._pending = deque()  # submitted tasks not yet sent to a worker
        self._procs = []
        self._spawn_seq = 0
        self._hb_seen = {}  # worker id -> last heartbeat value (worker clock)
        self._hb_fresh = {}  # worker id -> local monotonic arrival of that value
        self._buffer = _OutcomeBuffer()

    # -- listening ---------------------------------------------------------
    def ensure_listening(self):
        """Bind and listen (idempotent); returns the bound ``(host, port)``.

        Exposed so launchers can learn an ephemeral port *before* the
        campaign starts and hand it to externally started workers.
        """
        if self._listener is None:
            if self._selector is None:
                self._selector = selectors.DefaultSelector()
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(64)
            listener.settimeout(1.0)
            self._listener = listener
            self._bound = listener.getsockname()[:2]
            self._selector.register(listener, selectors.EVENT_READ, None)
        return self._bound

    @property
    def address(self):
        """The bound ``"host:port"`` string (binds on first use)."""
        host, port = self.ensure_listening()
        return f"{host}:{port}"

    # -- lifecycle ---------------------------------------------------------
    def open(self, ctx):
        """Start (or rejoin) a campaign run: publish payload, bring capacity."""
        if self.shared_cache and ctx.cache is None:
            raise ValueError(
                "shared_cache=True needs a result cache: without one, "
                "leave it off and let values stream over the wire"
            )
        self._ctx = ctx
        self.ensure_listening()
        self._inflight = {}
        self._claims = {}
        self._pending = deque()
        self._buffer = _OutcomeBuffer()
        self._token = f"{os.getpid():x}-{time.time_ns():x}"
        try:
            payload_pickle = pickle.dumps(ctx.worker)
        except Exception:
            # The callable cannot travel; publish an empty payload.  The
            # scheduler's picklability probe hits the same failure before
            # the first submission and swaps to inline.
            payload_pickle = None
        cache_dir = None
        if self.shared_cache and ctx.cache is not None:
            cache_dir = str(ctx.cache.path)
        self._payload_msg = encode_message({
            "kind": "payload",
            "token": self._token,
            "payload_pickle": payload_pickle,
            "collect": ctx.collect,
            "cache_dir": cache_dir,
        })
        # A reused transport may still hold live connections from the
        # previous run (close() keeps them warm for --resume): hand each
        # the fresh payload so their next tasks run this campaign.
        warm = 0
        for conn in list(self._conns):
            if conn.worker_id is not None and self._send(conn, self._payload_msg):
                warm += 1
        if warm:
            self._buffer.signals.append({"kind": "spawn", "workers": warm})

    def _fork_worker(self):
        """Fork one local worker that dials this transport's listener."""
        self._spawn_seq += 1
        worker_id = f"w{os.getpid()}-{self._spawn_seq}"
        inherited = [self._listener] + [conn.sock for conn in self._conns]
        proc = _FORK.Process(
            target=_forked_worker_main,
            args=(inherited, self.address, worker_id, self.worker_poll_s,
                  self.auth),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        obs.EVENTS.flush()  # the child must not inherit unwritten lines
        proc.start()
        self._procs.append(proc)

    def worker_pids(self):
        """PIDs of the live forked workers (chaos tooling kills these)."""
        return [proc.pid for proc in self._procs if proc.is_alive()]

    def claim_holders(self):
        """Worker ids currently holding a claimed task (smoke tooling).

        Safe to call from another thread while a campaign drives the
        transport: a concurrent mutation just reads as "no claims yet".
        """
        try:
            return set(self._claims.values())
        except RuntimeError:  # dict mutated mid-iteration by the poll loop
            return set()

    def connected_pids(self):
        """``worker_id -> pid`` for every connection past its hello."""
        return {
            conn.worker_id: conn.pid
            for conn in self._conns
            if conn.worker_id is not None and conn.pid
        }

    # -- capacity ----------------------------------------------------------
    def _live_workers(self):
        connected = sum(1 for conn in self._conns if conn.worker_id is not None)
        alive = sum(1 for proc in self._procs if proc.is_alive())
        return max(connected, alive, 1)

    def slots(self):
        """Bounded by ``queue_depth`` tasks per live worker."""
        return max(self._live_workers() * self.queue_depth
                   - len(self._inflight), 0)

    # -- sending -----------------------------------------------------------
    def _send(self, conn, data):
        """Send bytes down one connection; drop the peer on failure."""
        try:
            conn.sock.settimeout(SEND_TIMEOUT_S)
            conn.sock.sendall(data)
            conn.sock.settimeout(0.0)
            return True
        except OSError:
            self._drop_conn(conn, reason="send failed")
            return False

    def _pick_conn(self):
        """The least-loaded hello'd connection with queue room, or None."""
        best = None
        for conn in self._conns:
            if conn.worker_id is None:
                continue
            if len(conn.assigned) >= self.queue_depth:
                continue
            if best is None or len(conn.assigned) < len(best.assigned):
                best = conn
        return best

    def _flush_pending(self):
        """Assign parked tasks to connections as capacity allows."""
        while self._pending:
            conn = self._pick_conn()
            if conn is None:
                return
            task = self._pending.popleft()
            if task.task_id not in self._inflight:
                continue  # expired while parked
            spec = encode_message({
                "kind": "task",
                "token": self._token,
                "task": task.task_id,
                "indices": list(task.indices),
                "items": list(task.items),
                "digests": list(task.digests),
            })
            conn.assigned.add(task.task_id)
            # A failed send drops the connection, which requeues this
            # task (and the conn's others) for re-dispatch under fresh
            # ids — never re-park it here, or it would run twice.
            self._send(conn, spec)

    # -- protocol ----------------------------------------------------------
    def submit(self, task):
        """Queue one task; it flows to a worker as soon as one has room.

        The first submission forks the local workers; afterwards
        :meth:`poll` replaces any that die.
        """
        missing = self.workers - len(self._procs)
        if missing > 0:
            for _ in range(missing):
                self._fork_worker()
            self._buffer.signals.append({"kind": "spawn", "workers": missing})
        self._inflight[task.task_id] = task
        self._pending.append(task)
        self._flush_pending()

    def poll(self, timeout):
        """Service the sockets; collect outcomes, claims, heartbeats."""
        deadline = time.monotonic() + max(timeout or 0.0, 0.0)
        while True:
            remaining = max(deadline - time.monotonic(), 0.0)
            self._service(min(self.poll_s, remaining))
            self._check_stale()
            self._reap_and_respawn()
            self._flush_pending()
            if self._buffer:
                return self._buffer.drain()
            if time.monotonic() >= deadline:
                return [], []

    def _service(self, wait):
        if self._selector is None:
            time.sleep(wait)
            return
        for key, _ in self._selector.select(wait):
            if key.data is None:
                self._accept()
            else:
                self._read_conn(key.data)

    def _accept(self):
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.settimeout(0.0)
        _no_delay(sock)
        conn = _Conn(sock, addr)
        self._conns.append(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        # Challenge immediately: nothing this peer sends is deserialized
        # until it answers with the right HMAC.
        self._send(conn, encode_auth_challenge(conn.nonce))

    def _read_conn(self, conn):
        try:
            data = conn.sock.recv(RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_conn(conn, reason="read failed")
            return
        if not data:
            self._drop_conn(conn, reason="disconnected")
            return
        try:
            frames = conn.decoder.feed(data)
        except WireError as exc:
            self._drop_conn(conn, reason=f"protocol error: {exc}")
            return
        for kind, payload in frames:
            if conn not in self._conns:
                return  # dropped mid-batch (auth or send failure)
            try:
                if not conn.authed:
                    self._auth_conn(conn, kind, payload)
                    continue
                message = conn.assembler.feed(kind, payload)
                if message is PENDING:
                    continue
                self._handle_message(conn, message)
            except WireError as exc:
                self._drop_conn(conn, reason=f"protocol error: {exc}")
                return
            except Exception as exc:
                # A buggy or version-skewed peer must not take the
                # scheduler down: malformed field shapes are treated
                # exactly like wire corruption — the connection dies and
                # its tasks requeue.
                self._drop_conn(conn, reason=f"malformed message: {exc!r}")
                return

    def _auth_conn(self, conn, kind, payload):
        """Admit a peer that answered the challenge; drop anything else.

        Until this succeeds, a connection's bytes get frame-level
        parsing only — the pickle layer is unreachable, so a port
        scanner (or an attacker with a crafted payload) cannot execute
        anything here.
        """
        if kind != KIND_AUTH:
            raise WireError("frame before authentication")
        peer_nonce = verify_auth_response(
            self._auth_secret, conn.nonce, payload
        )
        conn.authed = True
        self._send(conn, encode_auth_welcome(self._auth_secret, peer_nonce))

    def _handle_message(self, conn, message):
        kind = message.get("kind") if isinstance(message, dict) else None
        if kind == "hello":
            self._on_hello(conn, message)
        elif kind == "claim":
            self._on_claim_msg(conn, message)
        elif kind == "heartbeat":
            self._on_heartbeat_msg(message)
        elif kind == "result":
            self._on_result(conn, message)
        # unknown kinds are ignored (forward compatibility)

    def _on_hello(self, conn, message):
        conn.worker_id = str(message.get("worker") or f"conn{id(conn):x}")
        conn.pid = message.get("pid")
        self._hb_fresh[conn.worker_id] = time.monotonic()
        obs.emit("worker.connect", worker=conn.worker_id,
                 addr=f"{conn.addr[0]}:{conn.addr[1]}")
        if self._payload_msg is not None:
            if not self._send(conn, self._payload_msg):
                return
        self._buffer.signals.append({"kind": "spawn", "workers": 1})
        self._flush_pending()

    def _on_claim_msg(self, conn, message):
        if message.get("token") != self._token:
            return  # claim from a run this transport no longer serves
        task_id = message.get("task")
        if task_id in self._inflight and task_id not in self._claims:
            self._claims[task_id] = conn.worker_id
            self._buffer.signals.append({
                "kind": "claim", "task_id": task_id, "worker": conn.worker_id,
            })

    def _on_heartbeat_msg(self, message):
        worker = message.get("worker")
        if worker is None:
            return
        t = float(message.get("t", 0.0))
        if t <= self._hb_seen.get(worker, 0.0):
            return
        self._hb_seen[worker] = t
        # Staleness is judged by when *we* saw a new value, not by the
        # worker's wall clock (cross-host skew must not void live claims).
        self._hb_fresh[worker] = time.monotonic()
        self._buffer.signals.append({
            "kind": "heartbeat",
            "worker": worker,
            "lag_s": max(time.time() - t, 0.0),
            "pid": message.get("pid"),
            "units_done": message.get("units_done", 0),
        })

    def _on_result(self, conn, message):
        if message.get("token") != self._token:
            return  # zombie report from a prior run: drop it unprocessed
        task_id = message.get("task")
        task = self._inflight.get(task_id)
        if task is None:
            conn.assigned.discard(task_id)
            return  # stale report from a requeued task: ignore
        # Build every outcome before committing anything: a malformed
        # report raises out to _read_conn, which drops the connection —
        # and the task, still inflight and still assigned, requeues like
        # any other loss instead of leaving units forever outstanding.
        outcomes = list(self._report_outcomes(task, message))
        del self._inflight[task_id]
        self._claims.pop(task_id, None)
        conn.assigned.discard(task_id)
        self._buffer.outcomes.extend(outcomes)

    def _report_outcomes(self, task, report):
        digest_of = dict(zip(task.indices, task.digests))
        worker = report.get("worker")
        for entry in report.get("units", ()):
            index = entry["index"]
            if index not in digest_of:
                raise WireError(
                    f"result from worker {worker} names unknown unit "
                    f"index {index!r}"
                )
            if not entry.get("ok"):
                error = entry.get("error") or RuntimeError(
                    f"tcp worker {worker} failed unit {index}"
                )
                yield UnitOutcome(
                    index=index, kind="error", error=error, worker=worker,
                    elapsed_s=entry.get("elapsed_s"),
                )
                continue
            if entry.get("stored"):
                cache = self._ctx.cache if self._ctx is not None else None
                if cache is None:
                    raise WireError(
                        f"worker {worker} reported a stored result but "
                        f"this campaign has no shared cache"
                    )
                value = cache.peek(digest_of[index])
                if value is MISS:
                    yield UnitOutcome(
                        index=index, kind="error", worker=worker,
                        error=RuntimeError(
                            f"tcp worker {worker} reported unit {index} "
                            f"stored but its result never reached the "
                            f"shared cache"
                        ),
                    )
                    continue
            else:
                try:
                    value = pickle.loads(entry["value_pickle"])
                except Exception as exc:
                    yield UnitOutcome(
                        index=index, kind="error", worker=worker,
                        error=RuntimeError(
                            f"unit {index} result from worker {worker} "
                            f"did not survive the wire: {exc!r}"
                        ),
                    )
                    continue
            yield UnitOutcome(
                index=index, kind="ok", value=value, worker=worker,
                elapsed_s=entry.get("elapsed_s"),
                telemetry=entry.get("telemetry"),
                stored=bool(entry.get("stored")),
            )

    # -- failure detection -------------------------------------------------
    def _drop_conn(self, conn, reason):
        """Forget a connection and requeue everything it was holding.

        A closed stream is proof of death: the tasks come back as
        ``requeue`` outcomes immediately, with no staleness wait, and
        are re-dispatched under fresh ids — so a late result from a
        zombie (it reconnected, or the kernel delivered its last write)
        names an unknown task and is dropped.
        """
        if conn not in self._conns:
            return
        self._conns.remove(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn.worker_id is not None:
            self._hb_fresh.pop(conn.worker_id, None)
            obs.emit("worker.disconnect", worker=conn.worker_id, reason=reason)
        for task_id in conn.assigned:
            task = self._inflight.pop(task_id, None)
            self._claims.pop(task_id, None)
            if task is None:
                continue
            self._buffer.outcomes.extend(
                UnitOutcome(index=i, kind="requeue") for i in task.indices
            )
        conn.assigned = set()

    def _check_stale(self):
        """Drop half-open connections whose heartbeats went stale.

        SIGKILL closes the socket and arrives as EOF; this guards the
        cases that never EOF (network partition, a wedged peer whose
        kernel keeps the connection open).  Workers heartbeat from a
        background thread, so a long unit cannot look stale.  The same
        horizon reaps connections that never finished the handshake or
        the hello — a port scanner, a half-opened client — so a
        long-lived listener cannot accumulate dead sockets.
        """
        now = time.monotonic()
        for conn in list(self._conns):
            last = conn.connected_at
            if conn.worker_id is not None:
                last = max(self._hb_fresh.get(conn.worker_id, 0.0), last)
            if now - last > self.stale_s:
                reason = ("heartbeat stale" if conn.worker_id is not None
                          else "no hello within the staleness horizon")
                self._drop_conn(conn, reason=reason)

    def _reap_and_respawn(self):
        for proc in list(self._procs):
            if proc.is_alive():
                continue
            self._procs.remove(proc)
            if len(self._procs) < self.workers:
                self._fork_worker()
                self._buffer.signals.append({"kind": "respawn"})

    def expire(self, task_ids):
        """Void dead leases: forget the tasks, stop their holders.

        A forked worker holding an expired task is SIGKILLed — a hung
        unit cannot be interrupted any other way — and its connection's
        EOF requeues its other tasks; :meth:`poll` then forks its
        replacement.  An external worker is only told to ``cancel``.
        """
        cancelled = {}
        expired = set(task_ids)
        for task_id in task_ids:
            self._inflight.pop(task_id, None)
            self._claims.pop(task_id, None)
            for conn in self._conns:
                if task_id in conn.assigned:
                    conn.assigned.discard(task_id)
                    cancelled.setdefault(id(conn), (conn, []))[1].append(task_id)
        self._pending = deque(
            task for task in self._pending if task.task_id not in expired
        )
        owned = {proc.pid: proc for proc in self._procs}
        for conn, ids in cancelled.values():
            if conn.pid in owned:
                owned[conn.pid].kill()
            else:
                self._send(conn, encode_message({"kind": "cancel", "tasks": ids}))
        return self._buffer.drain()

    def close(self, hard=False):
        """End this campaign run; connections stay warm for the next.

        Outstanding tasks are withdrawn (workers get a ``cancel`` for
        anything still queued on their side); dropping the workers and
        the listener is :meth:`shutdown`'s job so a transport instance
        can be reused across runs — including a ``--resume``.
        """
        for conn in list(self._conns):
            if conn.assigned:
                self._send(conn, encode_message({
                    "kind": "cancel", "tasks": sorted(conn.assigned),
                }))
                conn.assigned = set()
        self._inflight.clear()
        self._claims.clear()
        self._pending = deque()
        self._payload_msg = None
        self._buffer = _OutcomeBuffer()

    def shutdown(self):
        """Drain workers (``stop`` message), close sockets, reap children."""
        self.close(hard=True)
        stop = encode_message({"kind": "stop"})
        for conn in list(self._conns):
            self._send(conn, stop)
        for conn in list(self._conns):
            self._drop_conn(conn, reason="shutdown")
        if self._listener is not None:
            try:
                self._selector.unregister(self._listener)
            except (KeyError, ValueError, OSError):
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
            self._bound = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        for proc in self._procs:
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._procs = []

    def describe(self):
        """Backend description for run records."""
        return {
            "transport": self.name,
            "address": f"{self.host}:{self.port}" if self._bound is None
            else f"{self._bound[0]}:{self._bound[1]}",
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "shared_cache": self.shared_cache,
        }


# -- worker side ---------------------------------------------------------
class _WireHeartbeat:
    """Background heartbeat sender: liveness decoupled from task length.

    A daemon thread sends a heartbeat message every
    :data:`HEARTBEAT_INTERVAL_S` under the connection's send lock, so a
    unit that computes for minutes still proves its worker alive, while
    hard death kills the thread with the process and the scheduler sees
    EOF (or staleness).  The send socket's timeout is fixed at
    connection setup and never mutated, so the two threads cannot race
    each other's deadlines; a send that fails anyway may have written a
    partial frame, after which the stream has no trustworthy boundary
    left — the connection is shut down so the main loop reconnects on a
    clean one.
    """

    def __init__(self, sock, lock, worker_id):
        self._sock = sock
        self._lock = lock
        self._worker_id = worker_id
        self.units_done = 0
        self.tasks_done = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{worker_id}", daemon=True
        )

    def beat(self):
        """Send one heartbeat now (progress counters included)."""
        message = encode_message({
            "kind": "heartbeat",
            "worker": self._worker_id,
            "pid": os.getpid(),
            "t": time.time(),
            "units_done": self.units_done,
            "tasks_done": self.tasks_done,
        })
        try:
            with self._lock:
                self._sock.sendall(message)
        except OSError:
            # A timed-out sendall may have left a partial frame on the
            # stream (silent desync the scheduler would later read as
            # corruption from a healthy worker); tear the connection
            # down so the main loop reconnects on a clean one.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _run(self):
        while not self._stop.wait(HEARTBEAT_INTERVAL_S):
            self.beat()

    def __enter__(self):
        self.beat()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=HEARTBEAT_INTERVAL_S)


class _Campaign:
    """Worker-side view of the currently published campaign payload."""

    def __init__(self, message):
        self.token = message.get("token")
        self.collect = bool(message.get("collect"))
        self.cache = None
        self.worker_fn = None
        self.error = None
        cache_dir = message.get("cache_dir")
        payload_pickle = message.get("payload_pickle")
        if payload_pickle is None:
            self.error = "the campaign payload was withheld (unpicklable)"
            return
        try:
            self.worker_fn = pickle.loads(payload_pickle)
        except Exception as exc:
            # A payload that cannot load here must fail loudly per
            # task, not strand the scheduler.
            self.error = (
                f"worker could not load the campaign payload: {exc!r}"
            )
            return
        if cache_dir is not None:
            from repro.runtime.cache import ResultCache

            self.cache = ResultCache(cache_dir)


def _result_entries(outcomes, digest_of, campaign, worker_id):
    """Build result-message unit entries (cache refs or wire values)."""
    entries = []
    for outcome in outcomes:
        entry = {
            "index": outcome.index,
            "ok": outcome.kind == "ok",
            "elapsed_s": outcome.elapsed_s,
        }
        if outcome.kind != "ok":
            entry["error"] = outcome.error
            entries.append(entry)
            continue
        if campaign.cache is not None:
            digest = digest_of[outcome.index]
            campaign.cache.put(digest, outcome.value)
            if not campaign.cache.contains(digest):
                entry["ok"] = False
                entry["error"] = RuntimeError(
                    f"worker {worker_id} could not persist unit "
                    f"{outcome.index} into the shared cache"
                )
            else:
                entry["stored"] = True
                entry["telemetry"] = outcome.telemetry
            entries.append(entry)
            continue
        try:
            entry["value_pickle"] = pickle.dumps(outcome.value)
        except Exception as exc:
            entry["ok"] = False
            entry["error"] = RuntimeError(
                f"unit {outcome.index} result could not be pickled "
                f"for the wire: {exc!r}"
            )
        else:
            entry["telemetry"] = outcome.telemetry
        entries.append(entry)
    return entries


def _encode_result(token, task_id, worker_id, entries):
    """Encode a result message, sanitizing anything that won't pickle."""
    message = {"kind": "result", "token": token, "task": task_id,
               "worker": worker_id, "units": entries}
    try:
        return encode_message(message)
    except Exception:
        safe = [
            {
                "index": e["index"],
                "ok": bool(e.get("ok")) and "error" not in e,
                "elapsed_s": e.get("elapsed_s"),
                **({"stored": True} if e.get("stored") else {}),
                **({"value_pickle": e["value_pickle"]}
                   if "value_pickle" in e else {}),
                **({"error": RuntimeError(repr(e.get("error")))}
                   if not e.get("ok") else {}),
            }
            for e in entries
        ]
        return encode_message({"kind": "result", "token": token,
                               "task": task_id, "worker": worker_id,
                               "units": safe})


class _ConnectionLost(Exception):
    """The stream to the scheduler broke; reconnect and start over."""


def _locked_send(sock, lock, data):
    """Send under the connection lock; broken stream raises.

    The lock serializes whole frames between the main loop and the
    heartbeat thread; the socket's timeout was fixed at setup and is
    never touched here (mutating it from two threads would race the
    receive deadline on the other handle of the connection).
    """
    try:
        with lock:
            sock.sendall(data)
    except OSError:
        raise _ConnectionLost


def _run_task(sock, lock, spec, campaign, worker_id, hb):
    """Claim, execute, and report one task message."""
    task_id = spec.get("task")
    if campaign is None or spec.get("token") != campaign.token:
        return  # a stale task from a withdrawn run: drop it
    if campaign.error is not None:
        entries = [
            {"index": index, "ok": False, "elapsed_s": 0.0,
             "error": RuntimeError(campaign.error)}
            for index in spec["indices"]
        ]
        _locked_send(sock, lock, _encode_result(
            campaign.token, task_id, worker_id, entries,
        ))
        return
    _locked_send(sock, lock, encode_message({
        "kind": "claim", "token": campaign.token, "task": task_id,
        "worker": worker_id,
    }))
    task = Task(
        task_id=task_id,
        indices=tuple(spec["indices"]),
        items=tuple(spec["items"]),
        digests=tuple(spec["digests"]),
    )
    outcomes = execute_task_units(
        campaign.worker_fn, task, campaign.collect, worker_id
    )
    digest_of = dict(zip(task.indices, task.digests))
    entries = _result_entries(outcomes, digest_of, campaign, worker_id)
    _locked_send(sock, lock, _encode_result(
        campaign.token, task_id, worker_id, entries,
    ))
    hb.units_done += len(task)
    hb.tasks_done += 1
    hb.beat()  # publish fresh counters without waiting for the tick


def _serve_connection(sock, worker_id, poll_s, initial=b""):
    """One authenticated session; returns True on graceful stop.

    ``initial`` is whatever the handshake over-read past the welcome
    frame.  Sends and receives run on independent duplicates of the
    connection (``sock.dup()``), each with a timeout fixed once at
    setup: the heartbeat thread and the main loop never mutate a shared
    deadline, so a heartbeat cannot inherit the short receive tick (a
    partial-frame desync) and a receive cannot inherit the long send
    ceiling (a stalled stop/cancel).
    """
    stream = MessageStream()
    lock = threading.Lock()
    campaign = None
    queue = deque()
    draining = False
    send_sock = None

    def absorb(messages):
        nonlocal campaign, draining
        for message in messages:
            kind = message.get("kind") if isinstance(message, dict) else None
            if kind == "payload":
                campaign = _Campaign(message)
            elif kind == "task":
                queue.append(message)
            elif kind == "cancel":
                dropped = set(message.get("tasks") or ())
                kept = [
                    spec for spec in queue
                    if spec.get("task") not in dropped
                ]
                queue.clear()
                queue.extend(kept)
            elif kind == "stop":
                draining = True

    try:
        send_sock = sock.dup()
        send_sock.settimeout(SEND_TIMEOUT_S)
        sock.settimeout(poll_s)
        _locked_send(send_sock, lock, encode_message({
            "kind": "hello", "worker": worker_id, "pid": os.getpid(),
        }))
        absorb(stream.feed(initial))
        with _WireHeartbeat(send_sock, lock, worker_id) as hb:
            while True:
                if queue:
                    _run_task(send_sock, lock, queue.popleft(), campaign,
                              worker_id, hb)
                    continue
                if draining:
                    return True
                try:
                    data = sock.recv(RECV_BYTES)
                except socket.timeout:
                    continue
                except OSError:
                    return False
                if not data:
                    return False
                try:
                    absorb(stream.feed(data))
                except WireError:
                    return False
    except _ConnectionLost:
        return False
    finally:
        for handle in (send_sock, sock):
            if handle is None:
                continue
            try:
                handle.close()
            except OSError:
                pass


#: Consecutive handshake rejections before the worker hints at a secret
#: mismatch on stderr (it keeps redialing either way — the scheduler may
#: simply be restarting mid-handshake).
_AUTH_WARN_AFTER = 5


def tcp_worker_main(address, worker_id=None, poll_s=0.05, auth=None):
    """Run one socket worker until the scheduler says stop.

    Dials ``address`` (``"host:port"``), authenticates both ways with
    the shared secret (``auth`` or ``$REPRO_TCP_AUTH`` — the campaign
    payload is a pickle, so the worker proves itself to the scheduler
    *and* verifies the scheduler before deserializing anything),
    introduces itself, and serves the claim/execute/report loop.  A
    lost connection — the scheduler restarted, the network hiccuped —
    is retried forever with jittered exponential backoff (the scheduler
    requeued everything this worker held, and discarding the local
    queue on reconnect keeps the two views consistent); a ``stop``
    message drains gracefully and exits.
    """
    host, port = parse_address(address)
    secret = auth if auth is not None else os.environ.get(AUTH_ENV)
    if not secret:
        print(
            f"tcp worker needs the scheduler's shared secret: pass --auth "
            f"or set {AUTH_ENV} (the scheduler side prints nothing — read "
            f"it from its --auth / {AUTH_ENV} / TcpTransport.auth)",
            file=sys.stderr,
        )
        return 2
    worker_id = worker_id or f"w{os.getpid()}"
    prior = os.environ.get(WORKER_ENV_FLAG)
    os.environ[WORKER_ENV_FLAG] = "1"
    rng = random.Random(os.getpid() ^ time.time_ns())
    failures = 0
    auth_failures = 0
    try:
        while True:
            try:
                sock = _dial(host, port)
            except OSError:
                failures += 1
                delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (failures - 1))
                time.sleep(delay * (0.5 + rng.random() / 2))
                continue
            try:
                leftover = client_handshake(
                    sock, secret, timeout=CONNECT_TIMEOUT_S
                )
            except (WireError, OSError):
                try:
                    sock.close()
                except OSError:
                    pass
                auth_failures += 1
                if auth_failures == _AUTH_WARN_AFTER:
                    print(
                        f"repro worker {worker_id}: the scheduler keeps "
                        f"rejecting the connection handshake — do both "
                        f"sides share the same secret (--auth / "
                        f"{AUTH_ENV})?",
                        file=sys.stderr,
                    )
                failures += 1
                delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (failures - 1))
                time.sleep(delay * (0.5 + rng.random() / 2))
                continue
            failures = 0
            auth_failures = 0
            if _serve_connection(sock, worker_id, poll_s, initial=leftover):
                return 0
            # Disconnected mid-campaign: brief jittered pause, then dial
            # again — the scheduler may just be restarting for a resume.
            time.sleep(BACKOFF_BASE_S * (0.5 + rng.random() / 2))
    finally:
        # Restore the caller's environment: a leaked worker flag
        # would let chaos exit fates kill the host.
        if prior is None:
            os.environ.pop(WORKER_ENV_FLAG, None)
        else:
            os.environ[WORKER_ENV_FLAG] = prior
