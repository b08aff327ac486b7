"""HTTP front-end of the Rover Web Browser Proxy.

The paper's proxy "will interoperate with most of the popular Web
browsers": an unmodified browser points its HTTP proxy setting at the
Rover proxy running on the same mobile host.  Cached pages are served
immediately; uncached pages while disconnected produce an entry in a
displayed list of outstanding requests, and the browser is served the
page whenever it arrives.

We reproduce that interface: :class:`ProxyFrontend` runs an HTTP server
on the mobile host; a :class:`ScriptedBrowser` (standing in for Mosaic
or Netscape driven by a user) talks plain HTTP to it over a fast local
link.  Responses are *long-poll* style — the front-end replies when the
Rover import resolves, which is exactly how the real proxy behaved from
the browser's point of view.  A ``GET /rover-status`` endpoint renders
the outstanding/satisfied request list the paper describes.
"""

from __future__ import annotations

from repro.apps.webproxy import ClickAheadProxy
from repro.net.http import HttpClient, HttpResponse, HttpServer
from repro.net.link import LinkSpec
from repro.net.simnet import Address, Host, Network
from repro.sim import Simulator

PROXY_PORT = 80

#: The browser and proxy share the mobile host's loopback: fast, always up.
LOOPBACK = LinkSpec("loopback", bandwidth_bps=100_000_000.0, latency_s=0.0001,
                    header_bytes=0, mtu=65_536)


class ProxyFrontend:
    """HTTP face of the click-ahead proxy, for unmodified browsers."""

    def __init__(self, sim: Simulator, host: Host, proxy: ClickAheadProxy) -> None:
        self.sim = sim
        self.host = host
        self.proxy = proxy
        self.http = HttpServer(sim, host)
        self.http.route("/", self._serve_page)
        self.http.route("/rover-status", self._serve_status)
        self.requests = 0

    def _serve_page(self, request, source: Address):
        self.requests += 1
        view = self.proxy.navigate(request.path)
        if view.displayed:
            # Cache hit: the page body is available right now.
            return self._render(view)
        # Long-poll: hold the browser's request open until the page
        # arrives (or its import fails), then transmit the response.

        def finish(*__) -> None:
            self.http._reply(source, self._render(view), request.headers.get("X-Seq"))

        view.promise.add_callback(finish)
        return None  # reply happens in finish()

    def _render(self, view) -> HttpResponse:
        if view.failed:
            return HttpResponse(503, body=f"rover: {view.failed}".encode())
        entry = self.proxy.access.cache.peek(
            str(_page_urn(self.proxy, view.url))
        )
        if entry is None:
            return HttpResponse(404, body=b"not cached")
        body = entry.rdo.data["body"].encode("latin-1", errors="replace")
        return HttpResponse(200, headers={"Content-Type": "text/html"}, body=body)

    def _serve_status(self, request, source: Address) -> HttpResponse:
        """The paper's displayed list of outstanding/satisfied requests."""
        lines = ["outstanding:"]
        lines.extend(f"  {url}" for url in sorted(self.proxy.outstanding))
        lines.append("satisfied:")
        lines.extend(
            f"  {view.url} ({view.latency:.2f}s)"
            for view in self.proxy.displayed_views()
        )
        return HttpResponse(200, body="\n".join(lines).encode())


def _page_urn(proxy: ClickAheadProxy, url: str):
    from repro.apps.webproxy import page_urn

    return page_urn(proxy.authority, url)


class ScriptedBrowser:
    """An unmodified-browser stand-in speaking HTTP to the front-end."""

    def __init__(self, sim: Simulator, network: Network, mobile_host: Host,
                 name: str = "browser") -> None:
        self.sim = sim
        self.host = network.host(name)
        network.connect(self.host, mobile_host, LOOPBACK, name=f"{name}-loopback")
        self.client = HttpClient(sim, self.host)
        self.mobile_host = mobile_host
        self.pages_rendered: list[tuple[str, float, int]] = []

    def get(self, url: str, on_done=None, timeout: float = 3_600.0) -> None:
        issued = self.sim.now

        def rendered(response: HttpResponse) -> None:
            self.pages_rendered.append((url, self.sim.now - issued, response.status))
            if on_done is not None:
                on_done(response)

        def failed(reason: str) -> None:
            self.pages_rendered.append((url, self.sim.now - issued, 599))
            if on_done is not None:
                on_done(None)

        self.client.get(self.mobile_host, url, rendered, failed, timeout=timeout)

    def get_blocking(self, url: str, timeout: float = 3_600.0) -> HttpResponse:
        outcome: dict = {}
        self.get(url, on_done=lambda r: outcome.update(r=r), timeout=timeout)
        self.sim.run_until(lambda: "r" in outcome, timeout=timeout + 1)
        return outcome.get("r")
