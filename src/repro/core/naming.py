"""Naming: URNs, object identity, version stamps.

Rover names every object with a Uniform Resource Name (RFC 1737 style,
as cited by the paper): ``urn:rover:<authority>/<path>``.  The
authority identifies the object's *home server*; the path identifies
the object within it.  The toolkit also accepts plain ``http://host/p``
URLs for the web proxy application and canonicalises them to URNs with
the origin server as authority.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

_URN_RE = re.compile(r"^urn:rover:(?P<authority>[A-Za-z0-9._-]+)/(?P<path>\S+)$")
_URL_RE = re.compile(r"^http://(?P<authority>[A-Za-z0-9._-]+)(?P<path>/\S*)$")


class NamingError(ValueError):
    """Malformed URN or URL."""


@dataclass(frozen=True, order=True)
class URN:
    """A Rover object name: home-server authority plus object path."""

    authority: str
    path: str

    def __str__(self) -> str:
        return f"urn:rover:{self.authority}/{self.path}"

    @staticmethod
    @lru_cache(maxsize=4096)
    def parse(text: str) -> "URN":
        """Parse a ``urn:rover:`` name or an ``http://`` URL.

        Memoized (bounded): one QRPC parses its URN at queue time, at
        submit, at reply and again on the server, and a URN is immutable.
        """
        match = _URN_RE.match(text)
        if match:
            return URN(match.group("authority"), match.group("path"))
        match = _URL_RE.match(text)
        if match:
            path = match.group("path").lstrip("/") or "index"
            return URN(match.group("authority"), path)
        raise NamingError(f"not a rover URN or http URL: {text!r}")

    def child(self, component: str) -> "URN":
        """A name nested under this one (e.g. a message in a folder)."""
        return URN(self.authority, f"{self.path}/{component}")


def make_request_id(host_name: str, counter: int, incarnation: int = 0) -> str:
    """Globally unique, deterministic QRPC request id.

    ``incarnation`` distinguishes successive lives of the same client
    process: a recovered client restarts its counter at the replayed
    log's tail, so without the qualifier a new request could collide
    with (and be deduplicated against) a dead incarnation's request.
    """
    if incarnation:
        return f"{host_name}+{incarnation}/{counter}"
    return f"{host_name}/{counter}"
