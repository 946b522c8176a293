"""REP010 — concurrency safety under the process-pool runner.

The parallel runner executes experiment payloads in worker processes
(``ProcessPoolExecutor``). Three patterns are silently wrong there:

* **module-global mutation from worker code** — any function reachable
  (over the call graph) from a pool-submitted entry point that mutates
  a module-level container or rebinds a ``global``: each worker mutates
  its *own copy* of the module, the parent never sees it, and results
  differ between serial and parallel runs. Entry points are collected
  from ``pool.submit(fn, ...)`` / ``pool.map(fn, ...)`` and from
  ``loop.run_in_executor(pool, fn, ...)``. The sharded service
  executor dispatches its worker functions through the first form: its
  per-shard socket transport runs them via ``worker.submit(fn, ...)``,
  not through a pool or ``run_in_executor``. Note the
  scope: raw module-level *containers* (dicts/lists/sets) are flagged;
  worker-resident state held behind a dedicated state class applied
  through an explicit replication protocol (the
  ``repro.service.executor.WorkerShard`` pattern, the process-pool
  analogue of the KernelState version discipline) is the sanctioned
  alternative and is not;
* **ContextVar without a default read via ``.get()``** — in a fresh
  worker process nothing has ``.set()`` the var, so a bare ``.get()``
  raises ``LookupError`` only in parallel runs (the serial path sets it
  first and hides the bug);
* **ad-hoc module-level caches** — module globals named like caches
  (``*cache*``, ``*memo*``) mutated by module functions. The sanctioned
  home for memoized state is the ``KernelState`` version protocol,
  where entries are keyed by relation version and invalidation is
  structural; a bare dict at module scope survives relation mutation
  and leaks between logically independent runs.

Since the resident query service (:mod:`repro.service`) the repo also
has asyncio code, which adds a fourth pattern:

* **blocking calls in ``async def`` bodies** — ``time.sleep``, bare
  ``open``, ``Path.read_text``-family I/O, ``Future.result()``, and
  synchronous ``subprocess`` helpers stall the *entire* event loop,
  not just the current request: every in-flight connection stops
  making progress until the call returns. Blocking work belongs in a
  sync helper invoked off-loop (or behind ``run_in_executor``).
  Detection is direct-call-in-async-body: a chained
  ``pool.submit(fn).result()`` is invisible to the dotted-name
  resolver — bind the future to a name for the lint (and the reader).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..registry import rule
from ..report import Finding, Severity
from ..semantic.engine import SemanticAnalysis, semantic_analysis
from ..semantic.policy import CACHE_NAME_FRAGMENTS
from ..walker import Project


def _pool_reachable(analysis: SemanticAnalysis) -> set[str]:
    seen: set[str] = set()
    frontier = list(analysis.call_graph.pool_entry_points)
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        frontier.extend(analysis.call_graph.callees(current))
    return seen


def _is_cache_name(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in CACHE_NAME_FRAGMENTS)


#: ``Path`` / file-object methods that hit the filesystem synchronously.
BLOCKING_FILE_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Synchronous subprocess helpers (block until the child exits).
SUBPROCESS_FUNCTIONS = frozenset({"run", "call", "check_call", "check_output"})


def _async_blocking_verdict(summary, parts: list[str]) -> str | None:
    """Why a call with dotted ``parts`` blocks the event loop, or None.

    Names are resolved through the module's import aliases, so both
    ``import time; time.sleep(...)`` and ``from time import sleep``
    spellings are caught.
    """
    dotted = ".".join(parts)
    if len(parts) == 1:
        name = parts[0]
        if name == "open":
            return "'open()' does synchronous file I/O"
        source = summary.from_imports.get(name)
        if source is not None:
            module, symbol = source
            if module == "time" and symbol == "sleep":
                return f"'{dotted}' resolves to time.sleep"
            if module == "subprocess" and symbol in SUBPROCESS_FUNCTIONS:
                return f"'{dotted}' resolves to subprocess.{symbol}"
        return None
    head_module = summary.imports.get(parts[0])
    if head_module == "time" and parts[-1] == "sleep":
        return "'time.sleep' parks the whole event loop"
    if head_module == "subprocess" and parts[-1] in SUBPROCESS_FUNCTIONS:
        return f"'{dotted}' blocks until the child process exits"
    if parts[-1] in BLOCKING_FILE_METHODS:
        return f"'{dotted}' does synchronous file I/O"
    if parts[-1] == "result":
        return f"'{dotted}' blocks on a future; await it or move it off-loop"
    return None


@rule(
    "REP010",
    "concurrency-safety",
    "no global mutation in pool workers, no default-less ContextVar reads, "
    "no ad-hoc caches, no blocking calls in async bodies",
)
def check(project: Project) -> Iterable[Finding]:
    analysis = semantic_analysis(project)
    worker_nodes = _pool_reachable(analysis)

    # --- global mutation reachable from pool entry points -------------
    for node_id in sorted(worker_nodes):
        module_name, qualname = node_id.split(":", 1)
        module = project.modules.get(module_name)
        summary = analysis.summaries.get(module_name)
        function = analysis.call_graph.nodes.get(node_id)
        if module is None or summary is None or function is None:
            continue
        for mutation in function.mutations:
            head = mutation.name.split(".")[0]
            if mutation.how != "rebind" and head not in summary.mutable_globals:
                continue
            yield Finding(
                code="REP010",
                severity=Severity.ERROR,
                path=project.relative_path(module),
                line=mutation.line,
                message=f"'{qualname}' runs in pool workers but mutates "
                f"module-level '{mutation.name}' ({mutation.how}); each "
                "worker mutates its own copy and serial/parallel runs "
                "diverge — thread state through the spec/result instead",
                context=qualname,
            )

    # --- ContextVar get-without-set -----------------------------------
    # (module, varname) → definition, for vars declared without a default.
    no_default: dict[tuple[str, str], int] = {}
    for summary in analysis.summaries.values():
        for var in summary.contextvars:
            if not var.has_default:
                no_default[(summary.name, var.name)] = var.line

    def resolve_var(module_name: str, alias: str) -> tuple[str, str] | None:
        """Chase a name to the module that defines it as a ContextVar."""
        current_module, current_name = module_name, alias
        for _ in range(16):
            summary = analysis.summaries.get(current_module)
            if summary is None:
                return None
            if any(v.name == current_name for v in summary.contextvars):
                return current_module, current_name
            if current_name in summary.from_imports:
                source, symbol = summary.from_imports[current_name]
                current_module, current_name = source, symbol
                continue
            return None
        return None

    gets: dict[tuple[str, str], list[tuple[str, str, int]]] = {}
    sets: set[tuple[str, str]] = set()
    for summary in analysis.summaries.values():
        for function in (*summary.all_functions(), summary.module_scope):
            for site in function.calls:
                parts = site.name.split(".")
                if len(parts) != 2 or parts[1] not in ("get", "set"):
                    continue
                resolved = resolve_var(summary.name, parts[0])
                if resolved is None or resolved not in no_default:
                    continue
                if parts[1] == "set":
                    sets.add(resolved)
                else:
                    gets.setdefault(resolved, []).append(
                        (summary.name, function.qualname, site.line)
                    )

    for key in sorted(gets):
        if key in sets:
            continue
        for module_name, qualname, line in gets[key]:
            module = project.modules.get(module_name)
            if module is None:
                continue
            defining_module, varname = key
            yield Finding(
                code="REP010",
                severity=Severity.ERROR,
                path=project.relative_path(module),
                line=line,
                message=f"ContextVar '{varname}' ({defining_module}) has no "
                "default and is read with .get() but never .set(); in a "
                "fresh pool worker this raises LookupError — give it a "
                "default or set it on worker startup",
                context=qualname,
            )

    # --- ad-hoc module-level caches -----------------------------------
    for summary in analysis.summaries.values():
        module = project.modules.get(summary.name)
        if module is None:
            continue
        for name in sorted(summary.mutable_globals):
            if not _is_cache_name(name):
                continue
            for function in summary.all_functions():
                for mutation in function.mutations:
                    if mutation.name.split(".")[0] != name:
                        continue
                    yield Finding(
                        code="REP010",
                        severity=Severity.ERROR,
                        path=project.relative_path(module),
                        line=mutation.line,
                        message=f"module-level cache '{name}' is mutated in "
                        f"'{function.qualname}' outside any version "
                        "protocol; memoized state belongs in KernelState, "
                        "keyed by relation version",
                        context=function.qualname,
                    )

    # --- blocking calls inside async bodies ---------------------------
    for summary in analysis.summaries.values():
        module = project.modules.get(summary.name)
        if module is None:
            continue
        for function in summary.all_functions():
            if not function.is_async:
                continue
            for site in function.calls:
                verdict = _async_blocking_verdict(summary, site.name.split("."))
                if verdict is None:
                    continue
                yield Finding(
                    code="REP010",
                    severity=Severity.ERROR,
                    path=project.relative_path(module),
                    line=site.line,
                    message=f"async '{function.qualname}' makes a blocking "
                    f"call: {verdict} — every in-flight request stalls "
                    "until it returns; move it to a sync helper or an "
                    "executor",
                    context=function.qualname,
                )
