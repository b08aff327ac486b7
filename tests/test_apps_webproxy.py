"""Web proxy tests: click-ahead, prefetch, disconnection behaviour."""

import pytest

from repro.apps.webproxy import (
    BlockingBrowser,
    ClickAheadProxy,
    WebServerApp,
    page_urn,
)
from repro.net.link import CSLIP_14_4, ETHERNET_10M, IntervalTrace
from repro.testbed import build_testbed
from repro.workloads import generate_site


def make_web_world(link_spec=CSLIP_14_4, policy=None, n_pages=12, **proxy_kwargs):
    site = generate_site(seed=7, n_pages=n_pages)
    bed = build_testbed(link_spec=link_spec, policy=policy)
    WebServerApp(bed.server, site)
    proxy = ClickAheadProxy(bed.access, bed.authority, **proxy_kwargs)
    return bed, site, proxy


def test_navigate_returns_immediately():
    bed, site, proxy = make_web_world()
    view = proxy.navigate(site.root)
    assert not view.displayed  # non-blocking
    assert view.url == site.root
    bed.sim.run_until(lambda: view.displayed, timeout=600)
    assert view.latency > 0


def test_a_page_the_server_does_not_have_fails_its_view():
    bed, site, proxy = make_web_world()
    view = proxy.navigate("/no-such-page.html")
    bed.sim.run_until(lambda: view.failed is not None, timeout=600)
    assert view.failed == "not-found" and not view.displayed
    assert proxy.outstanding == {}


def test_click_ahead_queues_multiple_requests():
    bed, site, proxy = make_web_world(prefetch_links=False)
    root_links = site.pages[site.root].links
    views = [proxy.navigate(url) for url in [site.root] + root_links[:2]]
    assert len(proxy.outstanding) == 3
    bed.sim.run_until(lambda: all(v.displayed for v in views), timeout=3600)
    # Pages display in request order (FIFO within same priority).
    display_times = [v.displayed_at for v in views]
    assert display_times == sorted(display_times)
    assert proxy.outstanding == {}


def test_cached_page_displays_instantly():
    bed, site, proxy = make_web_world(prefetch_links=False)
    first = proxy.navigate(site.root)
    bed.sim.run_until(lambda: first.displayed, timeout=600)
    again = proxy.navigate(site.root)
    bed.sim.run_until(lambda: again.displayed, timeout=10)
    assert again.from_cache
    assert again.latency == pytest.approx(0.0, abs=1e-6)


def test_prefetch_triggered_on_slow_link():
    bed, site, proxy = make_web_world(prefetch_delay_threshold_s=0.5)
    view = proxy.navigate(site.root)
    bed.sim.run_until(lambda: view.displayed, timeout=600)
    assert proxy.prefetches_issued == len(site.pages[site.root].links)
    bed.access.drain(timeout=3600)
    for url in site.pages[site.root].links:
        assert str(page_urn(bed.authority, url)) in bed.access.cache


def test_prefetch_suppressed_on_fast_link():
    bed, site, proxy = make_web_world(
        link_spec=ETHERNET_10M, prefetch_delay_threshold_s=0.5
    )
    view = proxy.navigate(site.root)
    bed.sim.run_until(lambda: view.displayed, timeout=600)
    assert proxy.prefetches_issued == 0


def test_request_while_disconnected_queues_and_completes():
    bed, site, proxy = make_web_world(
        policy=IntervalTrace([(100.0, 1e9)]), prefetch_links=False
    )
    view = proxy.navigate(site.root)
    bed.sim.run(until=50)
    assert not view.displayed
    assert view.url in proxy.outstanding  # the "outstanding requests" list
    bed.sim.run(until=300)
    assert view.displayed
    assert view.displayed_at > 100.0


def test_prefetched_pages_survive_disconnection():
    bed, site, proxy = make_web_world(
        policy=IntervalTrace([(0.0, 600.0), (10_000.0, 1e9)]),
        prefetch_delay_threshold_s=0.0,
    )
    view = proxy.navigate(site.root)
    bed.sim.run_until(lambda: view.displayed, timeout=600)
    bed.access.drain(timeout=590 - bed.sim.now)
    bed.sim.run(until=700)  # disconnected now
    for url in site.pages[site.root].links:
        cached_view = proxy.navigate(url)
        bed.sim.run_until(lambda: cached_view.displayed, timeout=5)
        assert cached_view.displayed
        assert cached_view.from_cache


def test_blocking_browser_serializes():
    site = generate_site(seed=7, n_pages=6)
    bed = build_testbed(link_spec=CSLIP_14_4)
    WebServerApp(bed.server, site)
    browser = BlockingBrowser(bed.client_transport, bed.server_host, bed.authority)
    urls = [site.root] + site.pages[site.root].links[:2]
    for url in urls:
        view = browser.navigate(url)
        assert view.displayed
    times = [v.latency for v in browser.views]
    assert all(t > 0 for t in times)
    assert browser.session_time() >= sum(times) * 0.99


def test_blocking_browser_fails_disconnected():
    site = generate_site(seed=7, n_pages=4)
    bed = build_testbed(
        link_spec=CSLIP_14_4, policy=IntervalTrace([(1000.0, 2000.0)])
    )
    WebServerApp(bed.server, site)
    browser = BlockingBrowser(bed.client_transport, bed.server_host, bed.authority)
    view = browser.navigate(site.root, timeout=30.0)
    assert view.failed


def test_mean_latency_and_session_time_reporting():
    bed, site, proxy = make_web_world(prefetch_links=False)
    views = [proxy.navigate(site.root)]
    bed.sim.run_until(lambda: views[0].displayed, timeout=600)
    assert proxy.mean_latency() > 0
    assert proxy.session_time() >= 0


def test_inline_images_fetched_after_display():
    """The page displays on HTML arrival and completes when every
    inline image is in — two distinct user-visible milestones."""
    bed, site, proxy = make_web_world(prefetch_links=False)
    # Pick a page that actually has inline images.
    url = next(
        (p.url for p in site.pages.values() if p.inline_sizes), site.root
    )
    view = proxy.navigate(url)
    bed.sim.run_until(lambda: view.displayed, timeout=3_600)
    if site.pages[url].inline_sizes:
        assert not view.complete  # images still on the wire
        bed.sim.run_until(lambda: view.complete, timeout=3_600)
        assert view.full_latency > view.latency
    else:
        assert view.complete


def test_pages_without_images_complete_at_display():
    site = generate_site(seed=7, n_pages=6, max_inline=0)
    bed = build_testbed(link_spec=CSLIP_14_4)
    WebServerApp(bed.server, site)
    proxy = ClickAheadProxy(bed.access, bed.authority, prefetch_links=False)
    view = proxy.navigate(site.root)
    bed.sim.run_until(lambda: view.complete, timeout=3_600)
    assert view.completed_at == view.displayed_at


def test_blocking_browser_blocks_through_images():
    site = generate_site(seed=7, n_pages=6)
    url = next((p.url for p in site.pages.values() if p.inline_sizes), site.root)
    bed = build_testbed(link_spec=CSLIP_14_4)
    WebServerApp(bed.server, site)
    browser = BlockingBrowser(bed.client_transport, bed.server_host, bed.authority)
    view = browser.navigate(url)
    assert view.complete
    if site.pages[url].inline_sizes:
        assert view.full_latency > view.latency


def test_folded_images_mode_still_supported():
    """separate_images=False folds image bytes into the page body."""
    site = generate_site(seed=7, n_pages=4)
    bed = build_testbed(link_spec=CSLIP_14_4)
    WebServerApp(bed.server, site, separate_images=False)
    proxy = ClickAheadProxy(bed.access, bed.authority, prefetch_links=False)
    view = proxy.navigate(site.root)
    bed.sim.run_until(lambda: view.complete, timeout=3_600)
    assert view.completed_at == view.displayed_at  # nothing to fill in
