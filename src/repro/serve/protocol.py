"""The daemon's wire protocol: newline-delimited JSON requests and responses.

One connection carries a sequence of *requests*, one JSON object per line::

    {"op": "validate", "id": 7, "schema": "bug", "data": {"path": "g.ttl"}}

and receives one (or, for streamed batches, several) *response* lines back::

    {"ok": true, "id": 7, "result": {"verdict": "valid", ...}}
    {"ok": false, "id": 7, "error": {"code": "bad-request", "message": "..."}}

``id`` is an opaque client token echoed verbatim (it may be omitted).
Streamed responses additionally carry an ``event`` field (``"result"`` per
job, then one final ``"done"``).  The full request/response schema, with
examples, lives in ``docs/protocol.md``; this module holds the encoding
helpers, the op and error-code registries, and request validation shared by
the server (:mod:`repro.serve.daemon`) and the client
(:mod:`repro.serve.client`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import ProtocolError

#: Protocol revision, reported by ``ping`` and ``status``.
PROTOCOL_VERSION = 1

#: Every operation the daemon understands.
OPS = (
    "ping",
    "load_schema",
    "validate",
    "contains",
    "batch",
    "update_graph",
    "revalidate",
    "checkpoint",
    "status",
    "metrics",
    "flush_cache",
    "shutdown",
)

# -- error codes ------------------------------------------------------------ #
#: The request line was not valid JSON (or not a JSON object).
E_BAD_JSON = "bad-json"
#: The request was JSON but structurally wrong (missing/ill-typed fields).
E_BAD_REQUEST = "bad-request"
#: The ``op`` field names no known operation.
E_UNKNOWN_OP = "unknown-op"
#: A schema or data document failed to parse (``ReproError`` from the library).
E_PARSE = "parse-error"
#: A ``schema`` reference names a schema that was never loaded.
E_UNKNOWN_SCHEMA = "unknown-schema"
#: A ``name`` references a graph store that was never registered.
E_UNKNOWN_GRAPH = "unknown-graph"
#: The daemon hit an unexpected exception; the connection stays usable.
E_INTERNAL = "internal-error"
#: The request ran past its deadline (``deadline_ms`` or the daemon's
#: ``--request-timeout``); the work was cancelled, or finished late on the
#: loop, and may have landed for mutating ops — retry with
#: ``expect_version`` to stay at-most-once.
E_DEADLINE = "deadline-exceeded"
#: The daemon refused the request under load (connection or in-flight cap,
#: or a drain in progress); safe to retry after a backoff for *any* op —
#: rejection happens before execution.
E_OVERLOADED = "overloaded"
#: An ``update_graph`` delta carried an ``expect_version`` that no longer
#: matches the store: the delta (or a replay of it) is not applicable.
E_CONFLICT = "version-conflict"

ERROR_CODES = (
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_UNKNOWN_OP,
    E_PARSE,
    E_UNKNOWN_SCHEMA,
    E_UNKNOWN_GRAPH,
    E_INTERNAL,
    E_DEADLINE,
    E_OVERLOADED,
    E_CONFLICT,
)


def encode(message: Dict[str, Any]) -> bytes:
    """Serialise one protocol message to a single NDJSON line (UTF-8 bytes)."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n").encode(
        "utf-8"
    )


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse one request line into a dict, validating the envelope.

    Raises :class:`repro.errors.ProtocolError` with code ``bad-json`` for
    non-JSON input, ``bad-request`` for a non-object payload or a missing
    ``op``, and ``unknown-op`` for an unrecognised operation.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}", E_BAD_JSON) from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}",
            E_BAD_REQUEST,
        )
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing a string 'op' field", E_BAD_REQUEST)
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}", E_UNKNOWN_OP
        )
    return message


def ok_response(
    request_id: Any,
    result: Dict[str, Any],
    event: Optional[str] = None,
    trace: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a success response (optionally tagged as a stream ``event``).

    ``trace`` is the request's trace id, echoed so clients can correlate
    responses (and the daemon's slow-operation logs) with their requests.
    """
    message: Dict[str, Any] = {"ok": True, "result": result}
    if request_id is not None:
        message["id"] = request_id
    if event is not None:
        message["event"] = event
    if trace is not None:
        message["trace"] = trace
    return message


def error_response(
    request_id: Any, code: str, message: str, trace: Optional[str] = None
) -> Dict[str, Any]:
    """Build a structured error response with a registered ``code``."""
    assert code in ERROR_CODES, f"unregistered error code {code!r}"
    response: Dict[str, Any] = {"ok": False, "error": {"code": code, "message": message}}
    if request_id is not None:
        response["id"] = request_id
    if trace is not None:
        response["trace"] = trace
    return response


def require(message: Dict[str, Any], field: str, kind: Optional[type] = None) -> Any:
    """Fetch a required request field, raising ``bad-request`` when absent.

    ``kind`` additionally pins the JSON type (``str``, ``dict``, ``list``...).
    """
    if field not in message:
        raise ProtocolError(
            f"op {message.get('op')!r} requires a {field!r} field", E_BAD_REQUEST
        )
    value = message[field]
    if kind is not None and not isinstance(value, kind):
        raise ProtocolError(
            f"field {field!r} must be {kind.__name__}, got {type(value).__name__}",
            E_BAD_REQUEST,
        )
    return value


def split_address(address: str) -> Tuple[Optional[str], Optional[Tuple[str, int]]]:
    """Interpret a ``--connect``/``--socket`` style address string.

    ``host:port`` (where the final segment is all digits) selects TCP and
    returns ``(None, (host, port))``; anything else is a Unix socket path and
    returns ``(path, None)``.  ``tcp:host:port`` and ``unix:path`` prefixes
    force the interpretation.
    """
    if address.startswith("unix:"):
        return address[len("unix:"):], None
    if address.startswith("tcp:"):
        address = address[len("tcp:"):]
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ProtocolError(f"bad TCP address {address!r}; expected host:port")
        return None, (host, int(port))
    host, separator, port = address.rpartition(":")
    if separator and host and "/" not in address and port.isdigit():
        return None, (host, int(port))
    return address, None
