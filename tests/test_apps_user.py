"""Scripted-user process tests."""

import pytest

from repro.apps.mail import MailServerApp, RoverMailReader
from repro.apps.user import browse_session, impatient_browse_session, mail_session
from repro.apps.webproxy import ClickAheadProxy, WebServerApp
from repro.net.link import CSLIP_14_4, IntervalTrace
from repro.testbed import build_testbed
from repro.workloads import generate_mail_corpus, generate_site


def make_web_bed(policy=None):
    site = generate_site(seed=23, n_pages=15)
    bed = build_testbed(link_spec=CSLIP_14_4, policy=policy)
    WebServerApp(bed.server, site)
    proxy = ClickAheadProxy(bed.access, bed.authority, prefetch_links=False)
    return bed, site, proxy


def test_browse_session_follows_links():
    bed, site, proxy = make_web_bed()
    process = bed.sim.spawn(browse_session(proxy, site.root, n_clicks=4, think_time_s=5.0))
    bed.sim.run_until(lambda: process.is_done, timeout=1e5)
    views = process.result
    assert len(views) == 4
    assert all(view.displayed for view in views)
    # Each page is distinct and reachable from the previous one.
    urls = [view.url for view in views]
    assert len(set(urls)) == 4
    for previous, current in zip(urls, urls[1:]):
        assert current in site.pages[previous].links


def test_browse_session_self_paces():
    """The self-pacing reader never has two pages outstanding."""
    bed, site, proxy = make_web_bed()
    peak = {"value": 0}

    def watch():
        peak["value"] = max(peak["value"], len(proxy.outstanding))
        bed.sim.schedule(0.5, watch)

    bed.sim.schedule(0.0, watch)
    process = bed.sim.spawn(browse_session(proxy, site.root, n_clicks=3, think_time_s=2.0))
    bed.sim.run_until(lambda: process.is_done, timeout=1e5)
    assert peak["value"] <= 1


def test_impatient_session_queues_ahead():
    bed, site, proxy = make_web_bed()
    path = [site.root] + site.pages[site.root].links[:3]
    # A compressed page displays ~0.5 s after the click on this link
    # (seconds, before frames were compressed): to click ahead of the
    # data the user has to click faster than that.
    process = bed.sim.spawn(
        impatient_browse_session(proxy, path, think_time_s=0.2)
    )
    peak = {"value": 0}

    def watch():
        peak["value"] = max(peak["value"], len(proxy.outstanding))
        bed.sim.schedule(0.1, watch)

    bed.sim.schedule(0.0, watch)
    bed.sim.run_until(lambda: process.is_done, timeout=1e5)
    views = process.result
    assert len(views) == 4
    assert all(view.displayed for view in views)
    assert peak["value"] >= 2  # genuinely clicked ahead of the data


def test_impatient_session_survives_disconnection():
    bed, site, proxy = make_web_bed(policy=IntervalTrace([(200.0, 1e9)]))
    path = [site.root] + site.pages[site.root].links[:2]
    process = bed.sim.spawn(impatient_browse_session(proxy, path, think_time_s=1.0))
    bed.sim.run(until=100.0)
    assert not process.is_done  # everything queued, link down
    bed.sim.run_until(lambda: process.is_done, timeout=1e5)
    assert all(view.displayed for view in process.result)


def test_mail_session_reads_everything():
    corpus = generate_mail_corpus(seed=23, n_folders=1, messages_per_folder=5)
    bed = build_testbed(link_spec=CSLIP_14_4)
    MailServerApp(bed.server, corpus)
    reader = RoverMailReader(bed.access, bed.authority)
    process = bed.sim.spawn(mail_session(reader, "inbox", think_time_s=3.0))
    bed.sim.run_until(lambda: process.is_done, timeout=1e5)
    assert len(process.result) == 5
    bed.access.drain(timeout=1e5)
    for msg_id in process.result:
        server_msg = bed.server.get_object(str(reader.message_urn("inbox", msg_id)))
        assert server_msg.data["flags"]["read"] is True
