"""The service wire format: newline-delimited JSON requests and responses.

One request per line, one response line per request, in order.  A request
is a JSON object with an ``op`` field; everything else depends on the op:

``repair``
    ``{"op": "repair", "problem": "derivatives", "source": "...",
    "id": "attempt-7", "deadline": 5.0}`` — repair one attempt.  ``id`` is
    echoed back verbatim; ``deadline`` (finite, non-negative seconds,
    optional) bounds this request and overrides the service default.
    ``problem`` may be omitted when the service hosts exactly one problem.
``ping``
    Liveness probe; answers immediately without touching any engine.
``stats``
    Service counters plus per-problem revision / cache statistics.
``reload``
    Re-read a problem's cluster store from disk and swap it in.  In-flight
    repairs keep the engine (and revision) they were admitted with.
``shutdown``
    Ask the server to stop accepting connections and exit cleanly.

Every response is a JSON object with ``"ok": true`` or ``"ok": false``.
Failures are *structured*, never disconnections: a malformed line yields
``{"ok": false, "error": {"code": "bad-json", ...}}`` and the connection
stays open (the one exception is an over-long line, which cannot be
re-synchronised and closes the connection after the error response).

Error codes: ``bad-json`` (line is not valid JSON), ``bad-request``
(valid JSON but not a valid request), ``unknown-op``, ``unknown-problem``,
``overloaded`` (admission queue full), ``stale-store`` (the store changed
on disk under a serving engine), ``worker-crashed`` (a fleet worker died
while holding the request, after its one retry on the respawn),
``shard-unavailable`` (the circuit breaker marked the problem's worker
shard down), ``draining`` (the server is shutting down and no longer
admits work), ``internal`` (unexpected server-side failure).

Every error object carries ``retriable``: ``true`` means the failure is
transient — the same request may succeed if re-sent after a backoff
(:data:`RETRIABLE_CODES`); ``false`` means re-sending verbatim cannot
help.  Responses from servers predating the field omit it; clients must
treat a missing ``retriable`` as ``false`` (see
:meth:`repro.service.client.ServiceClient.request_with_retry`).

All protocol values are machine-independent except ``elapsed`` on repair
responses, which is wall-clock and informational only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Collection

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "ERROR_CODES",
    "RETRIABLE_CODES",
    "ProtocolError",
    "Request",
    "parse_request",
    "parse_request_line",
    "error_payload",
    "is_retriable",
    "resolve_problem",
    "response_payload",
    "timeout_payload",
]

#: Bump when the wire format changes incompatibly.  Responses to ``ping``
#: and ``stats`` carry it so clients can detect a mismatched server.
PROTOCOL_VERSION = 1

#: Upper bound on one request line (and the asyncio stream read limit).
#: Student submissions are a few KiB; 4 MiB leaves two orders of magnitude
#: of headroom while bounding a single client's buffer footprint.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: The operations a server understands.
OPS = ("repair", "ping", "stats", "reload", "shutdown")

#: Every structured error code a server may answer with.
ERROR_CODES = (
    "bad-json",
    "bad-request",
    "unknown-op",
    "unknown-problem",
    "overloaded",
    "stale-store",
    "worker-crashed",
    "shard-unavailable",
    "draining",
    "internal",
)

#: Codes whose failures are transient: the identical request may succeed if
#: re-sent after a backoff.  Everything else is permanent for that payload.
RETRIABLE_CODES = frozenset(
    {"overloaded", "stale-store", "worker-crashed", "shard-unavailable", "draining"}
)


def is_retriable(response: dict) -> bool:
    """Whether a decoded response is a retriable structured error.

    Tolerates old servers: a payload without the ``retriable`` field falls
    back to the :data:`RETRIABLE_CODES` classification of its code, and a
    non-error (or unparseable) payload is never retriable.
    """
    if not isinstance(response, dict) or response.get("ok") is not False:
        return False
    error = response.get("error")
    if not isinstance(error, dict):
        return False
    retriable = error.get("retriable")
    if isinstance(retriable, bool):
        return retriable
    return error.get("code") in RETRIABLE_CODES


class ProtocolError(ValueError):
    """A request that cannot be served, with its wire-format error code."""

    def __init__(self, code: str, message: str, request_id: object = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id


@dataclass(frozen=True)
class Request:
    """A parsed, validated request line.

    Attributes:
        op: One of :data:`OPS`.
        problem: Target problem name (``repair``/``reload``; optional when
            the service hosts a single problem).
        source: Attempt source text (``repair`` only).
        request_id: Client-chosen identifier echoed back verbatim.
        deadline: Per-request wall-clock bound in seconds, overriding the
            service default; ``None`` inherits the default.
    """

    op: str
    problem: str | None = None
    source: str | None = None
    request_id: Any = None
    deadline: float | None = None


def parse_request(payload: object) -> Request:
    """Validate a decoded JSON payload into a :class:`Request`.

    Raises:
        ProtocolError: ``bad-request`` for structural problems, carrying
            the payload's ``id`` (when present) so the error response can
            still be correlated; ``unknown-op`` for an unrecognised ``op``.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    request_id = payload.get("id")
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "missing string 'op' field", request_id)
    if op not in OPS:
        raise ProtocolError(
            "unknown-op", f"unknown op {op!r} (expected one of {', '.join(OPS)})",
            request_id,
        )
    problem = payload.get("problem")
    if problem is not None and not isinstance(problem, str):
        raise ProtocolError("bad-request", "'problem' must be a string", request_id)
    source = payload.get("source")
    if op == "repair":
        if not isinstance(source, str):
            raise ProtocolError(
                "bad-request", "repair requests need a string 'source' field",
                request_id,
            )
    deadline = payload.get("deadline")
    if deadline is not None:
        numeric = isinstance(deadline, (int, float)) and not isinstance(deadline, bool)
        if not numeric or not 0 <= deadline < math.inf:  # NaN fails too
            raise ProtocolError(
                "bad-request",
                "'deadline' must be a finite, non-negative number of seconds",
                request_id,
            )
        deadline = float(deadline)
    return Request(
        op=op, problem=problem, source=source, request_id=request_id, deadline=deadline
    )


def parse_request_line(line: str) -> Request:
    """Parse one wire line into a :class:`Request`.

    Raises:
        ProtocolError: ``bad-json`` when the line is not valid JSON, plus
            everything :func:`parse_request` raises.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"invalid JSON: {exc}") from exc
    return parse_request(payload)


def response_payload(request: Request, **fields) -> dict:
    """A successful response body: ``ok``, the request's op and id, ``fields``."""
    response: dict = {"ok": True, "op": request.op}
    if request.request_id is not None:
        response["id"] = request.request_id
    response.update(fields)
    return response


def timeout_payload(request: Request, problem: str, revision: int, deadline: float) -> dict:
    """The answer to a repair whose deadline passed before its record came."""
    detail = f"deadline of {deadline}s exceeded"
    return response_payload(
        request, problem=problem, revision=revision, status="timeout", detail=detail
    )


def resolve_problem(problem: str | None, hosted: Collection[str]) -> str:
    """The hosted problem a request targets; ``None`` picks a lone one."""
    if problem is None and len(hosted) == 1:
        return next(iter(hosted))
    if problem is None:
        raise ProtocolError(
            "bad-request",
            f"request names no problem and the service hosts {len(hosted)} — pass 'problem'",
        )
    if problem not in hosted:
        raise ProtocolError(
            "unknown-problem",
            f"problem {problem!r} is not served here "
            f"(hosting: {', '.join(sorted(hosted)) or 'none'})",
        )
    return problem


def error_payload(
    code: str,
    message: str,
    request_id: object = None,
    *,
    retriable: bool | None = None,
) -> dict:
    """A structured error response body.

    ``retriable`` defaults to the :data:`RETRIABLE_CODES` classification of
    ``code``; pass it explicitly only to override (e.g. an ``internal``
    failure known to be a transient resource problem).
    """
    if retriable is None:
        retriable = code in RETRIABLE_CODES
    response: dict = {
        "ok": False,
        "error": {"code": code, "message": message, "retriable": retriable},
    }
    if request_id is not None:
        response["id"] = request_id
    return response
