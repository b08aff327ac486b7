"""Timeline rendering tests (plus table-formatter coverage)."""

import pytest

from repro.bench.tables import format_seconds, format_table
from repro.bench.timeline import Timeline
from repro.net.link import CSLIP_14_4, IntervalTrace
from repro.testbed import build_testbed
from tests.conftest import make_note


class TestTables:
    def test_format_seconds_scales(self):
        assert format_seconds(5e-7) == "0.5us"
        assert format_seconds(0.0123) == "12.3ms"
        assert format_seconds(3.21) == "3.21s"
        assert format_seconds(float("nan")) == "-"
        assert format_seconds(float("inf")) == "inf"

    def test_format_table_alignment(self):
        text = format_table("Title", ["a", "bbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "====="
        widths = {len(line) for line in lines[2:]}
        # Header rule and rows padded to equal width.
        assert len(lines[3]) >= max(len(line) for line in lines[4:])


def make_scenario(**options):
    bed = build_testbed(
        link_spec=CSLIP_14_4,
        policy=IntervalTrace([(0.0, 100.0), (400.0, 1e9)]),
        **options,
    )
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    bed.sim.run(until=200.0)  # disconnected
    bed.access.invoke(note.urn, "set_text", "offline")
    bed.sim.run(until=600.0)  # reconnected; export committed
    return bed, note


class TestTimeline:
    def test_link_lane_shows_outage(self):
        bed, note = make_scenario()
        timeline = Timeline(bed.access, 0.0, 600.0, width=60)
        lane = timeline.link_lane(bed.link)
        assert len(lane) == 60
        # Up for the first ~1/6, down through ~2/3, up at the end.
        assert lane[0] == "#"
        assert lane[30] == "."
        assert lane[-1] == "#"

    def test_queue_lane_rises_while_disconnected(self):
        bed, note = make_scenario()
        timeline = Timeline(bed.access, 0.0, 600.0, width=60)
        lane = timeline.queue_lane()
        # Pending export while disconnected (columns ~20-39): depth 1.
        assert "1" in lane[22:38]
        # Drained at the end.
        assert lane[-1] == "."

    def test_event_lane_glyphs(self):
        bed, note = make_scenario()
        timeline = Timeline(bed.access, 0.0, 600.0, width=60)
        lane = timeline.event_lane()
        assert "I" in lane  # import completed
        assert "T" in lane  # tentative created while offline
        assert "C" in lane  # commit after reconnect
        assert lane.index("I") < lane.index("T") < lane.index("C")

    def test_render_produces_all_lanes(self):
        bed, note = make_scenario()
        text = Timeline(bed.access, 0.0, 600.0, width=60).render()
        lines = text.splitlines()
        assert lines[0].startswith("t(s)")
        assert any(line.startswith("link") for line in lines)
        assert any(line.startswith("queue") for line in lines)
        assert any(line.startswith("events") for line in lines)
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # lanes aligned

    def test_render_adds_a_lane_per_traced_stage(self):
        bed, note = make_scenario(trace=True)
        timeline = Timeline(bed.access, 0.0, 600.0, width=60)
        stages = ("qrpc", "log.append", "queue.wait", "link.transmit", "server.execute")
        lanes = dict(timeline.span_lanes(bed.obs.spans))
        assert set(stages) <= set(lanes)
        assert all(len(lanes[stage]) == 60 and "#" in lanes[stage] for stage in stages)
        # The offline export waits out the outage (columns 20-39) in the
        # queue, and nothing crosses the wire meanwhile.
        assert lanes["queue.wait"][22:38] == "#" * 16
        assert "#" not in lanes["link.transmit"][22:38]
        lines = timeline.render(spans=bed.obs.spans).splitlines()
        labels = [line.split()[0] for line in lines[1:]]
        assert labels[:3] == ["link", "queue", "events"] and set(stages) <= set(labels[3:])
        for stage in stages:
            assert lines[1 + labels.index(stage)].endswith(lanes[stage])
        assert len({len(line) for line in lines[1:]}) == 1  # lanes aligned

    def test_invalid_range_rejected(self):
        bed, note = make_scenario()
        with pytest.raises(ValueError):
            Timeline(bed.access, 10.0, 10.0)

    def test_conflict_glyph_outranks_commit(self):
        from repro.testbed import build_multi_client_testbed
        from repro.net.link import ETHERNET_10M

        bed = build_multi_client_testbed(2, link_spec=ETHERNET_10M)
        note = make_note()
        bed.server.put_object(note)
        a, b = bed.clients
        a.access.import_(note.urn).wait(bed.sim)
        b.access.import_(note.urn).wait(bed.sim)
        a.access.invoke(str(note.urn), "set_text", "A")
        b.access.invoke(str(note.urn), "set_text", "B")
        bed.sim.run(until=60.0)
        lanes = [
            Timeline(client.access, 0.0, 60.0, width=30).event_lane()
            for client in bed.clients
        ]
        assert any("X" in lane for lane in lanes)  # the loser shows X
        assert any("C" in lane for lane in lanes)  # the winner shows C
