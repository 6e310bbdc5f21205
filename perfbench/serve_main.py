"""A serving process for the served workloads, with optional span shims.

``--mode single`` runs one :class:`~repro.serve.server.ServeServer` (the
serve-ingest workload); ``--mode router`` runs ``repro-cycles serve
--workers 1`` (the serve-fleet workload: the router plus one forked
worker).  Once listening, the process writes a ready-file holding its
port, the worker ports and the pids of every serving process.

With ``--trace`` the layer shims of :mod:`perfbench.spans` are installed
before anything is forked, so the worker inherits them.  The server also
answers one extra op, ``{"op": "perfbench", "action": ...}``, sent
straight to the process that serves sessions: ``speed`` runs the
host-speed probe there; when traced, ``enable`` / ``disable`` switch
recording and ``ledger`` returns the in-memory totals and clears them.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
from typing import Any, Dict, List, Optional


def _write_ready(path: str, port: int, worker_ports: List[int], pids: List[int]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(json.dumps({"port": port, "worker_ports": worker_ports, "pids": pids}) + "\n")
    os.replace(tmp, path)


def _install_control(recorder: Optional[Any]) -> None:
    """Answer the ``perfbench`` op in front of the request handler
    (``ServeServer`` looks ``handle_request`` up in its module per request).

    ``speed`` runs the host-speed probe in this process and returns it; the
    tracing actions need ``recorder``."""
    import repro.serve.server as server
    from repro.serve.protocol import ok_response, request_id

    from perfbench.common import host_speed

    inner = server.handle_request

    async def handle_request(manager: Any, message: Dict[str, Any]) -> Dict[str, Any]:
        if message.get("op") != "perfbench":
            return await inner(manager, message)
        action = message.get("action")
        req_id = request_id(message)
        if action == "speed":
            return ok_response(req_id, speed=host_speed())
        if recorder is None:
            return ok_response(req_id, enabled=False)
        if action in ("enable", "disable"):
            recorder.enabled = action == "enable"
            return ok_response(req_id, enabled=recorder.enabled)
        ledger = recorder.ledger()
        recorder.reset()
        return ok_response(req_id, ledger=ledger)

    server.handle_request = handle_request


def _run_single(ready: str) -> None:
    from repro.serve.manager import SessionManager
    from repro.serve.server import ServeServer

    async def main() -> None:
        server = ServeServer(SessionManager(), "127.0.0.1", 0)
        await server.start()
        _write_ready(ready, server.bound_port, [], [os.getpid()])
        await server.serve_until_stopped()

    asyncio.run(main())


def _run_router(ready: str) -> int:
    from repro.cli import main as cli_main
    from repro.serve.router import ServeRouter

    original_start = ServeRouter.start

    async def start(self: ServeRouter) -> None:
        await original_start(self)
        pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children() if p.pid]
        _write_ready(ready, self.bound_port, list(self.worker_ports), pids)

    ServeRouter.start = start  # type: ignore[method-assign]
    return cli_main(["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("single", "router"), required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    recorder = None
    if args.trace:
        from perfbench.spans import Recorder, install_serve

        recorder = Recorder()
        install_serve(recorder)
    _install_control(recorder)
    if args.mode == "single":
        _run_single(args.ready)
        return 0
    return _run_router(args.ready)


if __name__ == "__main__":
    raise SystemExit(main())
