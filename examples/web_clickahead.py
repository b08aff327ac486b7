#!/usr/bin/env python3
"""Click-ahead web browsing over a 14.4 modem.

The Rover Web Browser Proxy lets the user "click ahead of the arrived
data": page requests queue immediately and transfers overlap reading
time, while linked documents prefetch in the background.  This example
browses the same 6-page path three ways — blocking browser, click-ahead
proxy, click-ahead + prefetch — and prints the per-page waits, then
demonstrates the outstanding-requests list while disconnected.

Run:  python examples/web_clickahead.py
"""

from repro.apps.webproxy import BlockingBrowser, ClickAheadProxy, WebServerApp
from repro.net.link import CSLIP_14_4, IntervalTrace
from repro.testbed import build_testbed
from repro.workloads import browse_path, generate_site

THINK_S = 30.0


def browse_blocking(site, path):
    bed = build_testbed(link_spec=CSLIP_14_4)
    WebServerApp(bed.server, site)
    browser = BlockingBrowser(bed.client_transport, bed.server_host, bed.authority)
    for url in path:
        browser.navigate(url)
        bed.sim.run(until=bed.sim.now + THINK_S)
    return browser.views, bed.sim.now


def browse_rover(site, path, prefetch):
    bed = build_testbed(link_spec=CSLIP_14_4)
    WebServerApp(bed.server, site)
    proxy = ClickAheadProxy(
        bed.access, bed.authority,
        prefetch_links=prefetch, prefetch_delay_threshold_s=0.5,
    )
    views = []
    for url in path:
        views.append(proxy.navigate(url))
        bed.sim.run(until=bed.sim.now + THINK_S)
    bed.sim.run_until(lambda: all(v.displayed for v in views), timeout=1e6)
    return views, bed.sim.now, proxy


def main() -> None:
    site = generate_site(seed=99, n_pages=20)
    path = browse_path(site, 6)
    total_kb = sum(site.pages[u].total_bytes for u in path) / 1024
    print(f"browsing {len(path)} pages ({total_kb:.0f} KB) over 14.4k, "
          f"{THINK_S:.0f}s reading time per page\n")

    blocking_views, blocking_end = browse_blocking(site, path)
    ca_views, ca_end, __ = browse_rover(site, path, prefetch=False)
    pf_views, pf_end, proxy = browse_rover(site, path, prefetch=True)

    print(f"{'page':16s} {'blocking':>10s} {'click-ahead':>12s} {'+prefetch':>10s}")
    for b, c, p in zip(blocking_views, ca_views, pf_views):
        print(f"{b.url:16s} {b.latency:>9.1f}s {c.latency:>11.1f}s {p.latency:>9.1f}s"
              + ("   (cache)" if p.from_cache else ""))
    print(f"{'session total':16s} {blocking_end:>9.1f}s {ca_end:>11.1f}s {pf_end:>9.1f}s")
    print(f"\nprefetches issued: {proxy.prefetches_issued}")

    # --- disconnected: the outstanding-requests list ----------------------
    bed = build_testbed(
        link_spec=CSLIP_14_4, policy=IntervalTrace([(120.0, 1e9)])
    )
    WebServerApp(bed.server, site)
    offline_proxy = ClickAheadProxy(bed.access, bed.authority, prefetch_links=False)
    print("\ndisconnected start: clicking three pages anyway...")
    views = [offline_proxy.navigate(u) for u in path[:3]]
    bed.sim.run(until=60.0)
    print(f"[t={bed.sim.now:5.1f}s] outstanding requests: "
          f"{sorted(offline_proxy.outstanding)}")
    bed.sim.run_until(lambda: all(v.displayed for v in views), timeout=1e6)
    print(f"[t={bed.sim.now:5.1f}s] link came up at t=120; all pages arrived:")
    for view in views:
        print(f"    {view.url}: displayed at t={view.displayed_at:.1f}s")


if __name__ == "__main__":
    main()
