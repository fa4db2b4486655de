"""Pre-fork multi-worker front end of the evaluation service.

One Python process can parse JSON and build models on only one core
at a time (the GIL serialises the CPU-bound parts of a request), so a
busy service host leaves most of its cores idle.  ``repro serve
--workers N`` closes that gap the classic Unix way: a small supervisor
binds the port, forks ``N`` worker processes that each run a full
:class:`~repro.service.server.EvaluationService`, and then does
nothing but watch — respawning any worker that dies and translating
SIGTERM/SIGINT into a graceful fleet drain.

Socket strategy: on platforms with ``SO_REUSEPORT`` (Linux, the BSDs)
every worker binds its *own* listening socket to the shared port and
the kernel load-balances incoming connections across them — no accept
lock, no thundering herd.  The supervisor keeps a bound-but-silent
*anchor* socket on the same port so the port is reserved (and a
``port=0`` request resolves to a concrete number) before the first
fork.  Without ``SO_REUSEPORT`` the anchor itself listens and the
workers inherit it across ``fork``, accepting from the shared queue.

Each worker holds its own in-memory model cache, so a device is
built once per worker that sees it.  Each worker also opens a private
*direct* port and publishes it in a
:class:`~repro.service.routing.WorkerRegistry`; cluster ``/stats``
reads its siblings' counters through it.  Every worker serves every
request it accepts.

The supervisor itself never serves a request: its only jobs are the
port reservation, the fork/respawn loop and the shutdown fan-out
(SIGTERM to every worker, a grace period for drains, SIGKILL for
stragglers).  It takes no part in durable jobs: every worker's
:class:`~repro.jobs.JobManager` adopts a killed worker's running jobs
at its next poll, and the job's flock lets exactly one of them win.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import socket
import tempfile
import threading
import time
from typing import Any, Dict, Optional

from ..engine.cache import DEFAULT_CAPACITY
from .admission import ServiceLimits
from .auth import ApiKeyAuth
from .routing import WorkerRegistry
from .server import EvaluationService

_LOG = logging.getLogger("repro.service.prefork")

#: Seconds a draining worker gets between SIGTERM and SIGKILL.
DEFAULT_GRACE = 10.0

#: Base delay before respawning a dead worker; doubles (capped) when
#: a worker keeps dying right after boot, so a crash loop cannot
#: consume the host.
RESPAWN_DELAY = 0.1
RESPAWN_DELAY_MAX = 2.0

#: A worker death this many seconds after its spawn counts as a
#: crash loop and escalates the backoff.
CRASH_LOOP_WINDOW = 1.0


def reuseport_available() -> bool:
    """Whether the kernel load-balances via ``SO_REUSEPORT``."""
    return hasattr(socket, "SO_REUSEPORT")


def _bind_socket(host: str, port: int,
                 reuseport: bool) -> socket.socket:
    """A bound (not listening) TCP socket for the shared port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(worker_id: int, host: str, port: int,
                 anchor: socket.socket, reuseport: bool,
                 capacity: int, limits: Optional[ServiceLimits],
                 auth: Optional[ApiKeyAuth], run_dir: str,
                 jobs_dir: Optional[str] = None,
                 job_ttl: float = 3600.0) -> None:
    """One worker process: twin servers over one warm session.

    The *primary* server accepts on the shared port; the *direct*
    server listens on a private ephemeral port and shares the
    primary's session, admission controller, result cache and
    counters (``shared_with``), so cluster stats fetches see the same
    state through either socket.
    """
    if reuseport:
        listen_sock = _bind_socket(host, port, True)
        anchor.close()  # inherited, unused in this mode
    else:
        listen_sock = anchor  # inherited shared accept queue
    registry = WorkerRegistry(run_dir)
    primary = EvaluationService((host, port), capacity=capacity,
                                limits=limits, auth=auth,
                                worker_id=worker_id, registry=registry,
                                listen_socket=listen_sock,
                                jobs_dir=jobs_dir, job_ttl=job_ttl)
    direct = EvaluationService(("127.0.0.1", 0), auth=auth,
                               worker_id=worker_id, registry=registry,
                               shared_with=primary)
    registry.write(worker_id, {
        "worker": worker_id,
        "pid": os.getpid(),
        "host": host,
        "port": port,
        "direct_host": "127.0.0.1",
        "direct_port": direct.server_port,
    })

    def _drain(signum: int, frame: Any) -> None:
        primary.request_shutdown()
        direct.request_shutdown()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _drain)
    direct_thread = threading.Thread(
        target=direct.serve_forever, kwargs={"poll_interval": 0.1},
        name=f"repro-direct-{worker_id}")
    direct_thread.start()
    try:
        primary.serve_forever(poll_interval=0.1)
    finally:
        direct.shutdown()
        direct_thread.join(timeout=10.0)
        registry.remove(worker_id)
        primary.server_close()
        direct.server_close()


class PreforkSupervisor:
    """Forks, watches and drains a fleet of service workers."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 workers: int = 2,
                 capacity: int = DEFAULT_CAPACITY,
                 limits: Optional[ServiceLimits] = None,
                 auth: Optional[ApiKeyAuth] = None,
                 run_dir: Optional[str] = None,
                 grace: float = DEFAULT_GRACE,
                 jobs_dir: Optional[str] = None,
                 job_ttl: float = 3600.0):
        if workers < 1:
            raise ValueError("workers must be a positive count")
        self.host = host
        self.requested_port = port
        self.port: Optional[int] = None
        self.workers = workers
        self.capacity = capacity
        self.limits = limits
        self.auth = auth
        self.grace = grace
        self.run_dir = run_dir
        self.jobs_dir = jobs_dir
        self.job_ttl = job_ttl
        self.respawns = 0
        self._own_run_dir = run_dir is None
        self._anchor: Optional[socket.socket] = None
        self._reuseport = reuseport_available()
        self._procs: Dict[int, multiprocessing.process.BaseProcess] \
            = {}
        self._spawned_at: Dict[int, float] = {}
        self._backoff: Dict[int, float] = {}
        self._stop = threading.Event()
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise RuntimeError(
                "pre-fork serving needs the fork start method "
                "(POSIX only); run with --workers 1 instead") from exc

    # ------------------------------------------------------------------
    def start(self) -> int:
        """Reserve the port and fork the fleet.

        Returns the concrete bound port (resolving a ``port=0``
        request) — ready to advertise before the watch loop starts.
        """
        self._anchor = _bind_socket(self.host, self.requested_port,
                                    self._reuseport)
        if not self._reuseport:  # pragma: no cover - Linux has it
            self._anchor.listen(128)
        self.port = self._anchor.getsockname()[1]
        if self.run_dir is None:
            self.run_dir = tempfile.mkdtemp(prefix="repro-prefork-")
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        return self.port

    def _spawn(self, worker_id: int) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self.host, self.port, self._anchor,
                  self._reuseport, self.capacity, self.limits,
                  self.auth, self.run_dir, self.jobs_dir,
                  self.job_ttl),
            name=f"repro-worker-{worker_id}")
        proc.start()
        self._procs[worker_id] = proc
        self._spawned_at[worker_id] = time.monotonic()

    # ------------------------------------------------------------------
    def _respawn_dead(self) -> None:
        """Replace any worker that exited, with crash-loop backoff."""
        for worker_id, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            proc.join()
            lived = time.monotonic() - self._spawned_at[worker_id]
            if lived < CRASH_LOOP_WINDOW:
                delay = min(
                    self._backoff.get(worker_id, RESPAWN_DELAY) * 2,
                    RESPAWN_DELAY_MAX)
            else:
                delay = RESPAWN_DELAY
            self._backoff[worker_id] = delay
            _LOG.warning(
                "worker %d (pid %s) exited with code %s; "
                "respawning in %.1fs", worker_id, proc.pid,
                proc.exitcode, delay)
            self.respawns += 1
            if self._stop.wait(delay):
                return
            self._spawn(worker_id)

    def stop(self) -> None:
        """Ask the watch loop to drain the fleet and return."""
        self._stop.set()

    def _handle_signal(self, signum: int, frame: Any) -> None:
        _LOG.info("signal %d received: draining %d workers",
                  signum, len(self._procs))
        self.stop()

    def run_until_signal(self, install_signals: bool = True) -> None:
        """Watch the fleet until SIGTERM/SIGINT (or :meth:`stop`).

        Respawns dead workers while running; on the way out SIGTERMs
        every worker, waits up to ``grace`` seconds for their drains,
        SIGKILLs stragglers and releases the port and the run
        directory.
        """
        previous = {}
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(
                    signum, self._handle_signal)
        try:
            while not self._stop.wait(0.2):
                self._respawn_dead()
        finally:
            self._shutdown_workers()
            self._cleanup()
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # ------------------------------------------------------------------
    def _shutdown_workers(self) -> None:
        procs = [proc for proc in self._procs.values()
                 if proc.is_alive()]
        for proc in procs:
            proc.terminate()  # SIGTERM: drain and exit
        deadline = time.monotonic() + self.grace
        for proc in procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - stuck drain
                _LOG.warning("worker pid %s ignored SIGTERM for "
                             "%.1fs; killing", proc.pid, self.grace)
                proc.kill()
                proc.join()
        self._procs.clear()

    def _cleanup(self) -> None:
        if self._anchor is not None:
            self._anchor.close()
            self._anchor = None
        if self.run_dir is not None:
            registry = WorkerRegistry(self.run_dir)
            for worker_id in range(self.workers):
                registry.remove(worker_id)
            if self._own_run_dir:
                try:
                    os.rmdir(self.run_dir)
                except OSError:
                    pass


def serve_prefork(host: str, port: int, workers: int,
                  capacity: int = DEFAULT_CAPACITY,
                  limits: Optional[ServiceLimits] = None,
                  auth: Optional[ApiKeyAuth] = None,
                  jobs_dir: Optional[str] = None,
                  job_ttl: float = 3600.0) -> PreforkSupervisor:
    """A started supervisor (fleet forked, port resolved).

    The caller — normally :mod:`repro.cli` — announces
    ``supervisor.port`` and then hands the thread to
    :meth:`PreforkSupervisor.run_until_signal`.
    """
    supervisor = PreforkSupervisor(
        host=host, port=port, workers=workers, capacity=capacity,
        limits=limits, auth=auth, jobs_dir=jobs_dir, job_ttl=job_ttl)
    supervisor.start()
    return supervisor
