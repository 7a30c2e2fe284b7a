"""Structured event codes: every service response names its outcome.

One catalog serves three purposes: HTTP handlers map exceptions to
responses through it, clients branch on the stable ``code`` field
instead of parsing messages, and ``GET /v1/codes`` publishes the whole
table so the contract is discoverable at runtime.  Codes are *stable
API*: new ones may be added, existing ones never change meaning.

The convention mirrors the campaign event log's structured-event style:
``OK``/``ACCEPTED`` for successes, ``E_*`` for failures, each bound to
exactly one HTTP status.  Datapath failures carry the decode stage
(:data:`repro.coding.batch.FAIL_TEC` et al.) in the response detail.
"""

from __future__ import annotations

import dataclasses

from repro.coding.batch import FAIL_STAGES

__all__ = ["CODES", "EventCode", "ServiceError", "code_for_fail_stage"]


@dataclasses.dataclass(frozen=True)
class EventCode:
    """One entry of the catalog: a stable name bound to an HTTP status."""

    name: str
    http_status: int
    description: str


_CATALOG = (
    EventCode("OK", 200, "request completed"),
    EventCode("CREATED", 201, "resource created"),
    EventCode("ACCEPTED", 202, "job accepted; poll its URL for progress"),
    EventCode("E_BAD_REQUEST", 400, "malformed body, parameter, or payload encoding"),
    EventCode("E_NOT_FOUND", 404, "no route at this path"),
    EventCode("E_DEVICE_NOT_FOUND", 404, "unknown device id"),
    EventCode("E_JOB_NOT_FOUND", 404, "unknown job id"),
    EventCode("E_METHOD", 405, "route exists but not for this HTTP method"),
    EventCode("E_BLOCK_RANGE", 400, "block index outside the device geometry"),
    EventCode(
        "E_DEVICE_TOO_LARGE",
        400,
        "device state would exceed the server's per-device byte limit",
    ),
    EventCode("E_BLOCK_NOT_WRITTEN", 409, "read of a block that was never written"),
    EventCode("E_TIME_REGRESSION", 409, "virtual timestamp behind the device clock"),
    EventCode(
        "E_UNCORRECTABLE",
        422,
        "block decode failed; detail carries the Figure-9 stage "
        "(TEC / INVALID_PATTERN / HEC)",
    ),
    EventCode(
        "E_SPARE_EXHAUSTED",
        507,
        "write needed more marked pairs than the block's spare budget; "
        "the block must be rewritten after remapping",
    ),
    EventCode("E_QUEUE_FULL", 503, "batching queue at capacity; retry with backoff"),
    EventCode("E_SHUTTING_DOWN", 503, "server is draining; no new work accepted"),
    EventCode("E_JOB_KIND", 400, "unknown job kind or invalid job parameters"),
    EventCode("E_PAYLOAD_TOO_LARGE", 413, "request body exceeds the server limit"),
    EventCode("E_INTERNAL", 500, "unexpected server error"),
)

#: The catalog by name (insertion order is the documentation order).
CODES: dict[str, EventCode] = {c.name: c for c in _CATALOG}

def code_for_fail_stage(fail_stage: int) -> tuple[str, str]:
    """Map a batch-decode ``fail_stage`` to ``(code name, stage name)``.

    Stage names come from :data:`repro.coding.batch.FAIL_STAGES`.
    """
    stage = int(fail_stage)
    name = FAIL_STAGES[stage][0] if stage in FAIL_STAGES else f"STAGE_{stage}"
    return "E_UNCORRECTABLE", name


class ServiceError(Exception):
    """An error with a catalog code; handlers render it as JSON.

    ``detail`` is an optional JSON-safe payload merged into the error
    response (e.g. the failing decode stage, or the queue depth).
    """

    def __init__(self, code: str, message: str, detail: dict | None = None):
        if code not in CODES:
            raise ValueError(f"unknown event code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.detail = detail or {}

    @property
    def http_status(self) -> int:
        return CODES[self.code].http_status

    def payload(self) -> dict:
        out = {"code": self.code, "message": self.message}
        if self.detail:
            out["detail"] = self.detail
        return out
