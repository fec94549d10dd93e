"""Small structured logger for diagnostic (non-report) output.

Benchmark *results* (§4.8 reporting) go to stdout / result files and are byte-pinned;
everything else — progress notes, retry warnings, drain timeouts — used
to be ad-hoc ``print(..., file=sys.stderr)`` calls scattered through the
REPL, the network bench and the executor. They now go through here, so
diagnostic output is uniform (``repro[name] LEVEL: message key=value``),
filterable, and silenceable in CI.

Level selection, most specific wins:

1. ``configure(level=...)`` — what the CLI's ``--log-level`` flag calls;
2. the ``REPRO_LOG`` environment variable (``debug``/``info``/
   ``warning``/``error``/``silent``);
3. the default, ``warning`` — quiet unless something is wrong.

``get_logger(name)`` returns a tiny wrapper whose methods accept
``**fields`` rendered as stable ``key=value`` pairs (sorted), keeping
messages grep-friendly without a formatting dependency.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Optional

from repro.common.errors import ConfigurationError

#: Accepted level names (``silent`` suppresses everything).
LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "silent": logging.CRITICAL + 10,
}

_ROOT_NAME = "repro"
_configured = False


def _default_level() -> str:
    return os.environ.get("REPRO_LOG", "warning").strip().lower() or "warning"


def parse_level(name: str) -> int:
    key = name.strip().lower()
    if key not in LEVELS:
        raise ConfigurationError(
            f"unknown log level {name!r} (choose from {', '.join(sorted(LEVELS))})"
        )
    return LEVELS[key]


class _Formatter(logging.Formatter):
    """Renders ``repro[net.repl]`` instead of ``repro[repro.net.repl]``."""

    def format(self, record: logging.LogRecord) -> str:
        name = record.name
        prefix = _ROOT_NAME + "."
        record.shortname = name[len(prefix):] if name.startswith(prefix) else name
        return super().format(record)


def configure(level: Optional[str] = None, stream=None) -> None:
    """(Re)configure the shared stderr handler and threshold.

    Idempotent; later calls adjust the level/stream of the existing
    handler rather than stacking new ones.
    """
    global _configured
    root = logging.getLogger(_ROOT_NAME)
    root.propagate = False
    if not _configured or not root.handlers:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(
            _Formatter("repro[%(shortname)s] %(levelname)s: %(message)s")
        )
        root.handlers = [handler]
        _configured = True
    elif stream is not None:
        root.handlers[0].setStream(stream)
    root.setLevel(parse_level(level) if level else parse_level(_default_level()))


class Logger:
    """Thin wrapper adding ``key=value`` structured fields to stdlib logging."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger):
        self._logger = logger

    @staticmethod
    def _render(message: str, fields: dict) -> str:
        if not fields:
            return message
        pairs = " ".join(f"{key}={fields[key]!r}" for key in sorted(fields))
        return f"{message} {pairs}"

    def debug(self, message: str, **fields) -> None:
        self._logger.debug(self._render(message, fields))

    def info(self, message: str, **fields) -> None:
        self._logger.info(self._render(message, fields))

    def warning(self, message: str, **fields) -> None:
        self._logger.warning(self._render(message, fields))

    def error(self, message: str, **fields) -> None:
        self._logger.error(self._render(message, fields))

    def isEnabledFor(self, level: int) -> bool:
        return self._logger.isEnabledFor(level)


def get_logger(name: str) -> Logger:
    """A namespaced logger; configures the shared handler on first use.

    ``name`` is relative to the ``repro`` root: ``get_logger("net.repl")``
    logs as ``repro[net.repl]``.
    """
    if not _configured:
        configure()
    short = name[len(_ROOT_NAME) + 1:] if name.startswith(_ROOT_NAME + ".") else name
    return Logger(logging.getLogger(f"{_ROOT_NAME}.{short}"))
