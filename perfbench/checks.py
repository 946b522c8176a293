"""Response checks, failure accounting and the workload self-checks.

The first response to each distinct request -- a (label, version) pair
-- is compared with direct in-process evaluation of the same generated
data; every later response to it is compared with that first one
through ``strip_volatile``. Reference work runs before any server is
booted, outside every timed phase and outside ``setup_s``.
"""

from __future__ import annotations

import json

from repro.csp.solver import solve as reference_solve
from repro.relational.query import Atom, JoinQuery
from repro.relational.router import execute_route
from repro.relational.semiring import get_semiring
from repro.service.server import canonical_answers, strip_volatile
from repro.service.store import database_from_payload


def key_of(request) -> tuple[str, str]:
    return request.label, request.version


def reference_answers(workload) -> dict:
    """(label, version) -> the answer fields direct evaluation gives.

    A plan's warm pass holds every distinct request it ever sends.
    """
    databases: dict = {}
    expected: dict = {}
    for plan in workload.connections:
        for request in plan.warm:
            key = key_of(request)
            if request.kind != "query" or key in expected:
                continue
            payload = request.payload
            name = f"{payload['database']}@{request.version}"
            if name not in databases:
                databases[name] = database_from_payload(workload.databases[name])
            query = JoinQuery(
                Atom(a["relation"], tuple(a["attributes"])) for a in payload["atoms"]
            )
            semiring = (
                get_semiring(payload["semiring"]) if "semiring" in payload else None
            )
            answer = execute_route(
                query, databases[name], free=payload.get("free"),
                mode=payload["mode"], semiring=semiring,
            )
            fields = {}
            if answer.relation is not None:
                fields["answers"] = canonical_answers(answer.relation.tuples)
            if answer.count is not None:
                fields["count"] = answer.count
            if answer.nonempty is not None:
                fields["nonempty"] = answer.nonempty
            if semiring is not None:
                fields["semiring"] = semiring.name
                # Through JSON, as the wire carries it (tuples -> lists).
                fields["aggregate"] = json.loads(
                    json.dumps(semiring.to_payload(answer.aggregate), default=repr)
                )
            expected[key] = fields
    return expected


def _check_solution(instance, response: dict) -> str:
    if response.get("satisfiable"):
        assignment = {var: value for var, value in response["assignment"]}
        if set(assignment) != set(instance.variables):
            return "assignment does not cover every variable"
        for constraint in instance.constraints:
            if not constraint.satisfied_by(assignment):
                return f"assignment violates {constraint!r}"
        return ""
    if reference_solve(instance) is not None:
        return "reported unsatisfiable, but a solution exists"
    return ""


class Checker:
    """Checks samples in arrival order; first responses become references."""

    def __init__(self, workload, expected: dict) -> None:
        self.workload = workload
        self.expected = expected
        self.first: dict = {}
        self.failures: list[str] = []
        self.failed_phases: set[str] = set()
        self.attempted = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def _fail(self, sample, why: str) -> None:
        self.failures.append(f"{sample.phase} {sample.request.label}: {why}")
        self.failed_phases.add(sample.phase)

    def check(self, samples) -> list[dict | None]:
        """Check every sample; returns the decoded bodies (None on failure)."""
        self.attempted += len(samples)
        return [self._check_one(sample) for sample in samples]

    def _check_one(self, sample) -> dict | None:
        if sample.error:
            self._fail(sample, f"transport error {sample.error}")
            return None
        if sample.status != 200:
            self._fail(sample, f"HTTP {sample.status}: {sample.body[:200]!r}")
            return None
        try:
            payload = json.loads(sample.body)
        except ValueError:
            self._fail(sample, "response is not JSON")
            return None
        request = sample.request
        if request.kind == "metrics":
            if "telemetry" not in payload:
                self._fail(sample, "metrics response has no telemetry")
            return payload
        key = key_of(request)
        seen = (
            payload["fingerprint"] if request.kind == "register"
            else strip_volatile(payload)
        )
        if key not in self.first:
            self.first[key] = seen
            why = self._against_reference(request, payload)
            if why:
                self._fail(sample, why)
        elif seen != self.first[key]:
            self._fail(sample, "differs from the first response to this request")
        return payload

    def _against_reference(self, request, payload: dict) -> str:
        if request.kind == "solve":
            return _check_solution(self.workload.csps[request.label], payload)
        if request.kind == "query":
            for field, value in self.expected[key_of(request)].items():
                if payload.get(field) != value:
                    return f"{field} differs from direct evaluation"
        return ""


def self_checks(workload, run: dict) -> list[str]:
    """Ways a run can stop exercising what its workload claims.

    ``run`` holds the timed-phase samples (``timed``), their decoded
    ``bodies``, the ``/metrics`` scrape taken after the timed phase
    (``scraped``) and the phase's CPU shares (``env``). Index builds
    are counted only by the traced run (``layers``).
    """
    problems = []
    pairs = list(zip(run["timed"], run["bodies"]))
    queries = [b for s, b in pairs if b is not None and s.request.kind == "query"]
    if any(b["coalesced"] for b in queries):
        problems.append("a request was coalesced (coalesce.follower_share > 0)")
    if not workload.writer_database:
        misses = sum(1 for b in queries if not b["plan_cache"]["hit"])
        if misses:
            problems.append(f"{misses} plan-cache misses in the timed phase")
    if workload.writer_database:
        writer = [(s, b) for s, b in pairs if s.conn == 0]
        for (sample, _), (_, after) in zip(writer, writer[1:]):
            if sample.request.kind == "register" and (
                after is None or after["plan_cache"]["hit"]
            ):
                problems.append("a write was not followed by a plan-cache miss")
                break
    if "--workers" in workload.server_args and run["scraped"] is not None:
        counters = run["scraped"]["telemetry"]["counters"]
        fallbacks = counters.get("executor.inline_fallbacks", 0) + counters.get(
            "executor.errors", 0
        )
        if fallbacks or not counters.get("executor.dispatched", 0):
            problems.append(f"sharded evaluation fell back inline {fallbacks} times")
    if run["env"]["env.client_cpu_share"] > 0.5:
        problems.append("the client used more than half a core")
    return problems
