"""The Rover Web Browser Proxy — click-ahead and prefetching.

From the paper: the proxy lets users "click ahead of the arrived data
by requesting multiple new documents before earlier requests have been
satisfied"; cached documents are served immediately; if a page is not
cached and no network is available, "an entry is created in a displayed
list of outstanding and satisfied requests" and the page is fetched
automatically when a connection appears.  If the expected delay is
above a user-specified threshold, documents directly reachable from the
requested one are prefetched.

* :class:`WebServerApp` publishes a synthetic site as RDOs (page body +
  inline images + out-links).
* :class:`ClickAheadProxy` is the client-side proxy: ``navigate`` never
  blocks; it returns a :class:`PageView` that tracks when the page was
  requested and when it became displayable.
* :class:`BlockingBrowser` is the baseline: a conventional browser
  whose every fetch is a blocking RPC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.access_manager import AccessManager
from repro.core.naming import URN
from repro.core.promise import Promise
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.core.server import RoverServer
from repro.core.session import Session
from repro.net.scheduler import Priority
from repro.net.transport import RpcError, Transport
from repro.perf.compact import Compactor, DuplicateImportCoalesce
from repro.workloads.generators import SiteGraph

PAGE_TYPE = "web-page"

_PAGE_CODE = '''
def links(state):
    return state["links"]

def title(state):
    return state["url"]

def size(state):
    return len(state["body"]) + sum(state["inline_sizes"])
'''

_PAGE_INTERFACE = RDOInterface(
    [MethodSpec("links"), MethodSpec("title"), MethodSpec("size")]
)


def page_urn(authority: str, url: str) -> URN:
    return URN(authority, f"web{url}")


def register_webproxy_compaction(compactor: Compactor) -> Compactor:
    """Web proxy compaction: duplicate queued fetches of one page (the
    user clicking twice while disconnected) need only one wire import."""
    compactor.add_pair_rule(DuplicateImportCoalesce())
    return compactor


IMAGE_TYPE = "web-image"


def image_urn(authority: str, page_url: str, index: int) -> URN:
    return URN(authority, f"web{page_url}/img{index}")


class WebServerApp:
    """Server-side site: one RDO per page plus one per inline image.

    ``separate_images=True`` publishes each inline image as its own
    object (what a real site serves); the proxy then distinguishes
    *displayed* (HTML arrived) from *complete* (all inline images in),
    exactly the two latencies a 1995 browser showed the user.
    """

    def __init__(
        self,
        server: RoverServer,
        site: SiteGraph,
        separate_images: bool = True,
    ) -> None:
        self.server = server
        self.authority = server.authority
        self.site = site
        self.separate_images = separate_images
        for page in site.pages.values():
            body = "x" * page.html_size
            inline = [] if separate_images else list(page.inline_sizes)
            image_urns = []
            if separate_images:
                for index, size in enumerate(page.inline_sizes):
                    img = image_urn(self.authority, page.url, index)
                    self.server.put_object(
                        RDO(img, IMAGE_TYPE, {"bits": "i" * size})
                    )
                    image_urns.append(str(img))
            self.server.put_object(
                RDO(
                    page_urn(self.authority, page.url),
                    PAGE_TYPE,
                    {
                        "url": page.url,
                        "body": body,
                        "inline_sizes": inline,
                        "images": image_urns,
                        "links": list(page.links),
                    },
                    code=_PAGE_CODE,
                    interface=_PAGE_INTERFACE,
                )
            )


@dataclass
class PageView:
    """One navigation: requested, displayed (HTML), completed (images)."""

    url: str
    requested_at: float
    displayed_at: Optional[float] = None
    completed_at: Optional[float] = None
    from_cache: bool = False
    failed: Optional[str] = None
    promise: Optional[Promise] = None
    images_pending: int = 0

    @property
    def latency(self) -> Optional[float]:
        if self.displayed_at is None:
            return None
        return self.displayed_at - self.requested_at

    @property
    def full_latency(self) -> Optional[float]:
        """Click to fully rendered (all inline images in)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.requested_at

    @property
    def displayed(self) -> bool:
        return self.displayed_at is not None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None


class ClickAheadProxy:
    """Client-side proxy: non-blocking navigation + prefetch."""

    def __init__(
        self,
        access: AccessManager,
        authority: str,
        prefetch_links: bool = True,
        prefetch_delay_threshold_s: float = 1.0,
        session: Optional[Session] = None,
    ) -> None:
        self.access = access
        self.authority = authority
        self.prefetch_links = prefetch_links
        #: Prefetch only when the estimated fetch delay exceeds this
        #: (the paper's "user-specified threshold").
        self.prefetch_delay_threshold_s = prefetch_delay_threshold_s
        self.session = session or access.create_session("web")
        self.views: list[PageView] = []
        self.outstanding: dict[str, PageView] = {}
        self.prefetches_issued = 0
        self._prefetched: set[str] = set()

    # -- navigation ------------------------------------------------------------

    def navigate(self, url: str) -> PageView:
        """Request a page; returns immediately with a live PageView."""
        urn = page_urn(self.authority, url)
        view = PageView(url=url, requested_at=self.access.sim.now)
        self.views.append(view)
        cached = self.access.cache.peek(str(urn)) is not None
        view.from_cache = cached
        promise = self.access.import_(urn, self.session, Priority.FOREGROUND)
        view.promise = promise
        self.outstanding[url] = view

        def arrived(rdo) -> None:
            view.displayed_at = self.access.sim.now
            self.outstanding.pop(url, None)
            self._fetch_inline_images(view, rdo)
            if self.prefetch_links:
                self._maybe_prefetch(rdo)

        def failed(reason: str) -> None:
            view.failed = reason
            self.outstanding.pop(url, None)

        promise.then(arrived)
        promise.on_failure(failed)
        return view

    def _fetch_inline_images(self, view: PageView, page_rdo) -> None:
        """Fetch the page's inline images; completion marks the view.

        A browser renders the HTML first (``displayed``) and fills
        images in as they arrive (``complete``) — the two user-visible
        milestones the 1995 proxy dealt in.
        """
        images = page_rdo.data.get("images", [])
        if not images:
            view.completed_at = view.displayed_at
            return
        view.images_pending = len(images)

        def one_done(*__) -> None:
            view.images_pending -= 1
            if view.images_pending == 0:
                view.completed_at = self.access.sim.now

        for img in images:
            image_promise = self.access.import_(img, self.session, Priority.DEFAULT)
            image_promise.add_callback(one_done)

    def _estimated_delay(self) -> float:
        """Crude fetch-delay estimate from current link state and queue."""
        best = self.access.host.best_link_to(self.access.servers[self.authority])
        if best is None:
            return float("inf")
        # ~16 KB typical page over the current link, plus queue pressure.
        transfer = best.spec.transfer_time(16 * 1024)
        backlog = self.access.scheduler.queue_length()
        return transfer * (1 + backlog)

    def _maybe_prefetch(self, page_rdo) -> None:
        if self._estimated_delay() < self.prefetch_delay_threshold_s:
            return
        for link_url in page_rdo.data.get("links", []):
            urn = page_urn(self.authority, link_url)
            if str(urn) in self._prefetched or self.access.cache.peek(str(urn)):
                continue
            self._prefetched.add(str(urn))
            self.access.import_(urn, self.session, Priority.BACKGROUND)
            self.prefetches_issued += 1

    # -- reporting ---------------------------------------------------------------

    def displayed_views(self) -> list[PageView]:
        return [view for view in self.views if view.displayed]

    def mean_latency(self) -> float:
        latencies = [view.latency for view in self.views if view.latency is not None]
        return sum(latencies) / len(latencies) if latencies else float("nan")

    def session_time(self) -> float:
        """First request to last display."""
        displayed = self.displayed_views()
        if not displayed:
            return float("nan")
        return max(view.displayed_at for view in displayed) - self.views[0].requested_at


class BlockingBrowser:
    """Conventional browser: every fetch is a blocking RPC, no queue.

    While disconnected a fetch raises (or stalls until timeout) — the
    behaviour the Rover proxy exists to fix.
    """

    def __init__(self, transport: Transport, server_host, authority: str) -> None:
        self.transport = transport
        self.server_host = server_host
        self.authority = authority
        self.views: list[PageView] = []

    def navigate(self, url: str, timeout: float = 300.0) -> PageView:
        """Fetch a page (and its inline images), blocking throughout."""
        view = PageView(url=url, requested_at=self.transport.sim.now)
        self.views.append(view)
        urn = page_urn(self.authority, url)
        try:
            reply = self.transport.call_blocking(
                self.server_host, "rover.import", {"urn": str(urn)}, timeout=timeout
            )
        except RpcError as exc:
            view.failed = str(exc)
            return view
        if reply.get("status") != "ok":
            view.failed = reply.get("status", "error")
            return view
        view.displayed_at = self.transport.sim.now
        # A conventional browser then fetches each inline image, still
        # blocking the user (serial connections, 1995-style).
        for img in reply["rdo"]["data"].get("images", []):
            try:
                self.transport.call_blocking(
                    self.server_host, "rover.import", {"urn": img}, timeout=timeout
                )
            except RpcError:
                pass  # missing image: the browser shows a broken icon
        view.completed_at = self.transport.sim.now
        return view

    def session_time(self) -> float:
        displayed = [view for view in self.views if view.displayed]
        if not displayed:
            return float("nan")
        return max(view.displayed_at for view in displayed) - self.views[0].requested_at
