"""CLI entry points: ``python -m repro.service serve`` / ``dashboard``.

``serve`` boots the resident query service; ``dashboard`` fetches a
running service's ``/metrics`` over HTTP and renders the terminal (or
HTML) dashboard — useful for watching a service some other process
started.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
import urllib.request

from .dashboard import (
    render_dashboard_html_from_payload,
    render_dashboard_text_from_payload,
)
from .server import QueryService
from .store import DatabaseStore

#: The ``--preload`` demo catalog: a small edge database every stock
#: query shape (triangle, path, star) can run against immediately.
DEMO_EDGES = [(i, (i * 7 + 3) % 23) for i in range(23)] + [
    (i, (i + 1) % 11) for i in range(11)
]


def demo_relations() -> list[dict]:
    edges = sorted(set(DEMO_EDGES))
    return [
        {"name": name, "attributes": list(attrs), "tuples": [list(e) for e in edges]}
        for name, attrs in (
            ("R1", ("a1", "a2")),
            ("R2", ("a1", "a3")),
            ("R3", ("a2", "a3")),
        )
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="The resident query service and its dashboard.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="boot the query service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument("--backend", default="columnar")
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        help="concurrent evaluations (default: 4 inline, 2x workers sharded)",
    )
    serve.add_argument("--queue-limit", type=int, default=16)
    serve.add_argument("--plan-cache", type=int, default=256)
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard worker processes; 0 evaluates inline on the event loop",
    )
    serve.add_argument("--slow-ms", type=float, default=50.0)
    serve.add_argument("--window", type=int, default=1024)
    serve.add_argument(
        "--store", default=None, help="directory for persistent registrations"
    )
    serve.add_argument(
        "--preload",
        action="store_true",
        help="register a small demo edge database as 'demo'",
    )

    dashboard = commands.add_parser(
        "dashboard", help="render a running service's dashboard"
    )
    dashboard.add_argument("--host", default="127.0.0.1")
    dashboard.add_argument("--port", type=int, required=True)
    dashboard.add_argument(
        "--html", default=None, help="write the HTML dashboard to this path"
    )
    return parser


async def _serve(args) -> None:
    store = DatabaseStore(directory=args.store, backend=args.backend)
    max_concurrent = args.max_concurrency
    if max_concurrent is None:
        # Sharded serving wants enough admission slots to keep every
        # worker busy plus headroom for replication turnarounds.
        max_concurrent = 4 if args.workers == 0 else max(8, 2 * args.workers)
    service = QueryService(
        store=store,
        max_concurrent=max_concurrent,
        queue_limit=args.queue_limit,
        plan_cache_capacity=args.plan_cache,
        slow_ms=args.slow_ms,
        window=args.window,
        workers=args.workers,
    )
    if args.preload:
        store.register("demo", demo_relations())
    # SIGTERM (kill, Popen.terminate(), systemd, docker stop) takes the
    # SIGINT path: cancel this task, so the finally below shuts the
    # shard workers down instead of leaving them orphaned. Windows event
    # loops have no signal handlers.
    with contextlib.suppress(NotImplementedError):
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
    try:
        host, port = await service.start(args.host, args.port)
        print(f"repro.service listening on http://{host}:{port}", flush=True)
        await service.serve_forever()
    finally:
        await service.stop()


def _dashboard(args) -> None:
    url = f"http://{args.host}:{args.port}/metrics"
    with urllib.request.urlopen(url, timeout=10) as response:
        payload = json.loads(response.read())
    if args.html:
        document = render_dashboard_html_from_payload(payload)
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {args.html}")
    else:
        print(render_dashboard_text_from_payload(payload), end="")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        try:
            asyncio.run(_serve(args))
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        return 0
    _dashboard(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
