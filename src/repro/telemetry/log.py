"""Structured JSON-lines logging for the serving stack.

One event per line, machine-parseable, with the fields every event
shares (``ts``, ``level``, ``logger``, ``event``) followed by the
call's keyword arguments.  Built on the stdlib :mod:`logging` module —
``repro.*`` loggers propagate into any logging configuration the host
application already has — with a :class:`JsonFormatter` the CLI
installs on stderr via :func:`configure` (``repro serve --log-level``).

Usage:

    log = get_logger("repro.service.server")
    log.info("connection_open", peer=str(peer), connections=3)
    log.warning("frame_rejected", error=str(exc), code="bad-frame")

A ``trace_id`` field is attached automatically when a trace is active
in the calling context, so server log lines join with client-side
observations of the same scan.
"""

from __future__ import annotations

import io
import json
import logging
from typing import Any

from repro.telemetry.tracing import current_trace

__all__ = ["JsonFormatter", "StructuredLogger", "configure", "get_logger"]

LEVELS = ("debug", "info", "warning", "error", "critical")


class JsonFormatter(logging.Formatter):
    """Formats a record as one JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        payload.update(getattr(record, "fields", {}))
        if record.exc_info and record.exc_info[1] is not None:
            payload["exception"] = repr(record.exc_info[1])
        return json.dumps(payload, default=str, separators=(",", ":"))


class StructuredLogger:
    """Thin wrapper turning kwargs into structured log fields."""

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    @property
    def name(self) -> str:
        return self._logger.name

    def _log(self, level: int, event: str, fields: dict) -> None:
        if not self._logger.isEnabledFor(level):
            return
        trace = current_trace()
        if trace is not None and "trace_id" not in fields:
            fields = {**fields, "trace_id": trace.trace_id}
        self._logger.log(level, event, extra={"fields": fields})

    def debug(self, event: str, **fields) -> None:
        self._log(logging.DEBUG, event, fields)

    def info(self, event: str, **fields) -> None:
        self._log(logging.INFO, event, fields)

    def warning(self, event: str, **fields) -> None:
        self._log(logging.WARNING, event, fields)

    def error(self, event: str, **fields) -> None:
        self._log(logging.ERROR, event, fields)


def get_logger(name: str) -> StructuredLogger:
    """A structured logger (stdlib-backed, so host config applies)."""
    return StructuredLogger(logging.getLogger(name))


def check_level(level: str) -> int:
    """Map a CLI level name to the stdlib constant (ConfigError on junk)."""
    from repro.errors import ConfigError

    numeric = logging.getLevelName(str(level).upper())
    if not isinstance(numeric, int):
        raise ConfigError(
            f"unknown log level {level!r}; known: {', '.join(LEVELS)}"
        )
    return numeric


def configure(
    level: str = "info", *, stream: io.TextIOBase | None = None
) -> logging.Handler:
    """Install the JSON-lines handler on the ``repro`` logger tree.

    Replaces any handler a previous :func:`configure` installed (so
    tests and repeated ``serve`` invocations don't stack handlers) and
    returns the installed handler.  ``stream`` defaults to stderr.
    """
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_telemetry", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonFormatter())
    handler._repro_telemetry = True
    root.addHandler(handler)
    root.setLevel(check_level(level))
    return handler
