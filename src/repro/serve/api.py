"""Request/response API over the detection service (detection-as-a-service).

Two layers, deliberately separable:

* :class:`DetectionAPI` — the *typed* core: request dataclasses in,
  response dataclasses out, no transport anywhere.  It wraps one
  :class:`~repro.serve.service.DetectionService` (usually store-backed
  via :meth:`~repro.serve.service.DetectionService.from_store`) and is
  what unit tests and embedders drive directly.
* :func:`serve_api` / :class:`ApiServer` — a thin JSON-over-HTTP
  transport on stdlib :mod:`http.server` (``ThreadingHTTPServer``, no
  new runtime dependencies), mounted by the ``ricd server`` CLI.

Routes (all JSON)::

    POST /v1/clicks              {"records": [[user, item, clicks], ...],
                                  "pump": true|false}
    POST /v1/pump                drain one micro-batch (deterministic driving)
    POST /v1/checkpoint          exact sync + store snapshot point
    GET  /v1/verdict/user/<id>   user verdict against the live result
    GET  /v1/verdict/item/<id>   item verdict against the live result
    GET  /v1/verdict/group/<n>   group composition by rank index
    GET  /v1/result              live result + provenance (+ store version)
    GET  /v1/result/<version>    persisted result at a store version
    GET  /v1/status              service / store / graph vitals

Verdicts are served from the *current* (possibly stale — flagged)
detection state and stamped with the store version they were persisted
under, so a client can pin what it saw: restarting the server on the
same store yields the same verdict at the same version, the contract the
end-to-end test pins without sleeping (simulated clock + explicit pump).

Node ids are matched by string form — the store stringifies ids exactly
like the click-table format, so live and resumed processes answer
identically.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import ReproError, StoreError
from ..store.serialization import result_to_json
from .queue import ClickEvent

__all__ = [
    "ApiError",
    "SubmitClicksRequest",
    "SubmitClicksResponse",
    "VerdictRequest",
    "VerdictResponse",
    "GroupVerdictResponse",
    "ResultRequest",
    "ResultResponse",
    "StatusResponse",
    "CheckpointResponse",
    "DetectionAPI",
    "ApiServer",
    "serve_api",
]


class ApiError(ReproError):
    """A request the API cannot serve; carries the HTTP status to map to."""

    def __init__(self, message: str, status: int = 400):
        self.status = status
        super().__init__(message)


# ----------------------------------------------------------------------
# Request / response dataclasses (the typed surface)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitClicksRequest:
    """Click records to ingest, optionally pumped through synchronously.

    ``pump=True`` drains the queue before returning — the deterministic
    mode tests and simulated-clock drivers use; production keeps
    ``pump=False`` and lets the service's pump thread pick the events up.
    """

    records: tuple = ()
    pump: bool = False

    @staticmethod
    def from_json(payload: dict) -> "SubmitClicksRequest":
        try:
            records = tuple(
                (str(user), str(item), int(clicks))
                for user, item, clicks in payload["records"]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ApiError(f"bad records payload: {error}") from None
        for _, _, clicks in records:
            if clicks <= 0:
                raise ApiError("click counts must be positive")
        return SubmitClicksRequest(records=records, pump=bool(payload.get("pump", False)))


@dataclass(frozen=True)
class SubmitClicksResponse:
    """What happened to a click submission."""

    accepted: int
    applied: int
    queue_depth: int
    store_version: "int | None"


@dataclass(frozen=True)
class VerdictRequest:
    """A user/item verdict query against the live detection state."""

    side: str  # "user" | "item"
    node: str

    def __post_init__(self) -> None:
        if self.side not in ("user", "item"):
            raise ApiError(f"side must be 'user' or 'item', got {self.side!r}")


@dataclass(frozen=True)
class VerdictResponse:
    """One node's verdict plus the provenance needed to trust it."""

    node: str
    side: str
    suspicious: bool
    score: "float | None"
    groups: "tuple[int, ...]"
    store_version: "int | None"
    degraded: bool
    stale: bool
    level: str


@dataclass(frozen=True)
class GroupVerdictResponse:
    """One suspicious group's composition, by rank index (largest first)."""

    index: int
    users: "tuple[str, ...]"
    items: "tuple[str, ...]"
    hot_items: "tuple[str, ...]"
    store_version: "int | None"
    degraded: bool
    stale: bool


@dataclass(frozen=True)
class ResultRequest:
    """Fetch a result: live (``version=None``) or persisted by version."""

    version: "int | None" = None


@dataclass(frozen=True)
class ResultResponse:
    """A full detection result with its degraded-run provenance."""

    store_version: "int | None"
    live: bool
    result: dict
    degraded: bool
    stale: bool
    provenance: "tuple[str, ...]" = ()


@dataclass(frozen=True)
class StatusResponse:
    """Service vitals: ladder level, queue, graph scale, store head."""

    level: str
    queue_depth: int
    applied: int
    rechecks: int
    degraded: bool
    store_version: "int | None"
    store_versions: "tuple[int, ...]"
    num_users: int
    num_items: int
    num_edges: int
    provenance: "tuple[str, ...]" = ()


@dataclass(frozen=True)
class CheckpointResponse:
    """Outcome of an exact synchronization point."""

    store_version: "int | None"
    suspicious_users: int
    suspicious_items: int
    groups: int


# ----------------------------------------------------------------------
# The typed API core
# ----------------------------------------------------------------------
class DetectionAPI:
    """Typed request/response facade over one :class:`DetectionService`.

    Thread-safe to the same degree the service is: every method funnels
    into service calls that take the service lock, so the HTTP layer's
    thread-per-request model needs no extra coordination.
    """

    def __init__(self, service):
        self.service = service

    # -- writes ---------------------------------------------------------
    def submit_clicks(self, request: SubmitClicksRequest) -> SubmitClicksResponse:
        """Enqueue records; with ``pump`` also drain them into the graph."""
        service = self.service
        stamp = service.clock.now()
        service.submit_events(
            [ClickEvent(user, item, clicks, stamp) for user, item, clicks in request.records]
        )
        applied_before = service.snapshot().applied
        if request.pump:
            service.pump_until_idle()
        snapshot = service.snapshot()
        return SubmitClicksResponse(
            accepted=len(request.records),
            applied=snapshot.applied - applied_before,
            queue_depth=snapshot.queue.depth,
            store_version=snapshot.store_version,
        )

    def pump(self) -> SubmitClicksResponse:
        """Drain one micro-batch (deterministic external driving)."""
        before = self.service.snapshot().applied
        self.service.pump()
        snapshot = self.service.snapshot()
        return SubmitClicksResponse(
            accepted=0,
            applied=snapshot.applied - before,
            queue_depth=snapshot.queue.depth,
            store_version=snapshot.store_version,
        )

    def checkpoint(self) -> CheckpointResponse:
        """Exact full sync; store-backed services commit a snapshot here."""
        snapshot = self.service.checkpoint_snapshot()
        result = snapshot.result
        return CheckpointResponse(
            store_version=snapshot.store_version,
            suspicious_users=len(result.suspicious_users),
            suspicious_items=len(result.suspicious_items),
            groups=len(result.groups),
        )

    # -- reads ----------------------------------------------------------
    def verdict(self, request: VerdictRequest) -> VerdictResponse:
        """The live verdict for one node, matched by string id."""
        snapshot = self.service.snapshot()
        result = snapshot.result
        suspicious_set = (
            result.suspicious_users if request.side == "user" else result.suspicious_items
        )
        scores = result.user_scores if request.side == "user" else result.item_scores
        suspicious = any(str(node) == request.node for node in suspicious_set)
        score = None
        for node, value in scores.items():
            if str(node) == request.node:
                score = float(value)
                break
        groups = tuple(
            index
            for index, group in enumerate(result.groups)
            if any(
                str(node) == request.node
                for node in (group.users if request.side == "user" else group.items)
            )
        )
        return VerdictResponse(
            node=request.node,
            side=request.side,
            suspicious=suspicious,
            score=score,
            groups=groups,
            store_version=snapshot.store_version,
            degraded=snapshot.degraded,
            stale=result.stale,
            level=snapshot.level,
        )

    def group(self, index: int) -> GroupVerdictResponse:
        """Composition of the group at rank ``index`` (largest first)."""
        snapshot = self.service.snapshot()
        groups = snapshot.result.groups
        if not 0 <= index < len(groups):
            raise ApiError(f"no group at index {index} (have {len(groups)})", status=404)
        group = groups[index]
        return GroupVerdictResponse(
            index=index,
            users=tuple(sorted(str(node) for node in group.users)),
            items=tuple(sorted(str(node) for node in group.items)),
            hot_items=tuple(sorted(str(node) for node in group.hot_items)),
            store_version=snapshot.store_version,
            degraded=snapshot.degraded,
            stale=snapshot.result.stale,
        )

    def result(self, request: ResultRequest) -> ResultResponse:
        """The live result, or a persisted one fetched by store version."""
        if request.version is None:
            snapshot = self.service.snapshot()
            return ResultResponse(
                store_version=snapshot.store_version,
                live=True,
                result=result_to_json(snapshot.result),
                degraded=snapshot.degraded,
                stale=snapshot.result.stale,
                provenance=snapshot.provenance,
            )
        store = self.service.store
        if store is None:
            raise ApiError("service has no store; versioned results unavailable", 404)
        try:
            stored = store.load_result(request.version)
        except StoreError as error:
            raise ApiError(str(error), status=404) from None
        if stored is None:
            raise ApiError(f"version {request.version} has no persisted result", 404)
        return ResultResponse(
            store_version=request.version,
            live=False,
            result=result_to_json(stored),
            degraded=stored.degraded,
            stale=stored.stale,
            provenance=stored.degradations,
        )

    def status(self) -> StatusResponse:
        """Service, graph and store vitals, read in one locked call."""
        snapshot, versions, (num_users, num_items, num_edges) = self.service.vitals()
        return StatusResponse(
            level=snapshot.level,
            queue_depth=snapshot.queue.depth,
            applied=snapshot.applied,
            rechecks=snapshot.rechecks,
            degraded=snapshot.degraded,
            store_version=snapshot.store_version,
            store_versions=versions,
            num_users=num_users,
            num_items=num_items,
            num_edges=num_edges,
            provenance=snapshot.provenance,
        )


# ----------------------------------------------------------------------
# JSON-over-HTTP transport (stdlib only)
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the typed API; responses are dataclasses."""

    server_version = "ricd-api/1"
    protocol_version = "HTTP/1.1"

    # The test suite drives hundreds of requests; BaseHTTPRequestHandler's
    # default stderr access log would drown pytest output.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def api(self) -> DetectionAPI:
        return self.server.api  # type: ignore[attr-defined]

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        try:
            response = self._route(method)
        except ApiError as error:
            self._send(error.status, {"error": str(error)})
        except ReproError as error:
            self._send(500, {"error": str(error)})
        else:
            self._send(200, asdict(response))

    def _route(self, method: str):
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if len(parts) < 2 or parts[0] != "v1":
            raise ApiError(f"unknown route {self.path!r}", status=404)
        route = parts[1]
        if method == "POST":
            if route == "clicks" and len(parts) == 2:
                return self.api.submit_clicks(SubmitClicksRequest.from_json(self._body()))
            if route == "pump" and len(parts) == 2:
                return self.api.pump()
            if route == "checkpoint" and len(parts) == 2:
                return self.api.checkpoint()
        elif method == "GET":
            if route == "verdict" and len(parts) == 4:
                if parts[2] == "group":
                    return self.api.group(self._int(parts[3]))
                return self.api.verdict(VerdictRequest(side=parts[2], node=parts[3]))
            if route == "result" and len(parts) == 2:
                return self.api.result(ResultRequest())
            if route == "result" and len(parts) == 3:
                return self.api.result(ResultRequest(version=self._int(parts[2])))
            if route == "status" and len(parts) == 2:
                return self.api.status()
        raise ApiError(f"unknown route {method} {self.path!r}", status=404)

    @staticmethod
    def _int(token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ApiError(f"expected an integer, got {token!r}") from None

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as error:
            raise ApiError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ApiError("request body must be a JSON object")
        return payload

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        self._dispatch("POST")


class ApiServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the API instance.

    ``daemon_threads`` keeps request threads from blocking interpreter
    exit; the service's own lock serialises detection-state access.
    """

    daemon_threads = True

    def __init__(self, address, api: DetectionAPI):
        super().__init__(address, _Handler)
        self.api = api


def serve_api(
    service_or_api, host: str = "127.0.0.1", port: int = 0
) -> "tuple[ApiServer, threading.Thread]":
    """Mount the API over HTTP; returns the bound server and its thread.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — the no-sleep test pattern.  The pump
    thread is *not* started here: callers choose between
    ``service.start()`` (production) and explicit ``POST /v1/pump``
    driving (deterministic tests/replays).
    """
    api = (
        service_or_api
        if isinstance(service_or_api, DetectionAPI)
        else DetectionAPI(service_or_api)
    )
    server = ApiServer((host, port), api)
    thread = threading.Thread(target=server.serve_forever, name="ricd-api", daemon=True)
    thread.start()
    return server, thread
