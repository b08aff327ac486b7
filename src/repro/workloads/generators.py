"""Deterministic workload generators for the three Rover applications.

Mail sizes follow a lognormal distribution centred around 2 KB (typical
mid-90s text mail with an occasional large attachment-like outlier);
web pages are bigger (5-60 KB HTML plus inline images); calendars are
streams of add/move/cancel operations over a week of slots.
Everything is seeded via :func:`repro.sim.make_rng` — same seed, same
workload, every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim import make_rng

_FIRST_NAMES = [
    "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
    "ivan", "judy", "mallory", "niaj", "olivia", "peggy", "rupert", "sybil",
]
_TOPICS = [
    "meeting", "budget", "draft", "review", "deadline", "lunch", "paper",
    "demo", "release", "travel", "seminar", "proposal",
]


# --------------------------------------------------------------------------
# Mail
# --------------------------------------------------------------------------


@dataclass
class MailMessage:
    """One synthetic message."""

    msg_id: str
    sender: str
    subject: str
    body: str

    @property
    def size_bytes(self) -> int:
        return len(self.body) + len(self.subject) + len(self.sender)

    def summary(self) -> dict:
        """The folder-index entry (what a folder listing transfers)."""
        return {
            "id": self.msg_id,
            "from": self.sender,
            "subject": self.subject,
            "size": self.size_bytes,
        }

    def to_data(self) -> dict:
        return {
            "id": self.msg_id,
            "from": self.sender,
            "subject": self.subject,
            "body": self.body,
            "flags": {"read": False, "deleted": False},
        }


@dataclass
class MailCorpus:
    """Folders of messages."""

    folders: dict[str, list[MailMessage]] = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        return sum(len(messages) for messages in self.folders.values())

    @property
    def total_bytes(self) -> int:
        return sum(
            message.size_bytes
            for messages in self.folders.values()
            for message in messages
        )


def generate_mail_corpus(
    seed: int,
    n_folders: int = 3,
    messages_per_folder: int = 20,
    mean_body_bytes: int = 2048,
    max_body_bytes: int = 64 * 1024,
) -> MailCorpus:
    """Generate a deterministic mail corpus.

    Body sizes are lognormal (median ``mean_body_bytes``, sigma 1); a
    long tail caps at ``max_body_bytes``.
    """
    import math

    rng = make_rng(seed, "mail")
    corpus = MailCorpus()
    folder_names = ["inbox", "sent", "archive", "lists", "drafts"][:n_folders]
    for extra in range(n_folders - len(folder_names)):
        folder_names.append(f"folder{extra}")
    for folder in folder_names:
        messages = []
        for index in range(messages_per_folder):
            sender = rng.choice(_FIRST_NAMES) + "@example.edu"
            topic = rng.choice(_TOPICS)
            subject = f"Re: {topic} ({folder}/{index})"
            size = int(rng.lognormvariate(math.log(mean_body_bytes), 1.0))
            size = max(64, min(size, max_body_bytes))
            body = _text_of_size(rng, size)
            messages.append(
                MailMessage(
                    msg_id=f"{folder}-{index:04d}",
                    sender=sender,
                    subject=subject,
                    body=body,
                )
            )
        corpus.folders[folder] = messages
    return corpus


def _text_of_size(rng, size: int) -> str:
    """Pseudo-text of exactly ``size`` characters (cheap, deterministic)."""
    words = []
    remaining = size
    while remaining > 0:
        word = rng.choice(_TOPICS)
        take = min(len(word) + 1, remaining)
        words.append(word[: take - 1] if take <= len(word) else word)
        remaining -= take
    return " ".join(words)[:size].ljust(size, ".")


# --------------------------------------------------------------------------
# Calendar
# --------------------------------------------------------------------------


@dataclass
class CalendarOp:
    """One calendar mutation a replica performs."""

    op: str  # "add" | "move" | "cancel"
    event_id: str
    title: str = ""
    room: str = ""
    slot: int = 0
    alt_slots: list[int] = field(default_factory=list)
    new_slot: int = 0


def generate_calendar_ops(
    seed: int,
    replica: str,
    n_ops: int = 20,
    n_rooms: int = 3,
    n_slots: int = 40,
    hot_fraction: float = 0.3,
) -> list[CalendarOp]:
    """Operations one replica performs while disconnected.

    ``hot_fraction`` of adds target a small "popular" slot range so
    that two replicas generated with different ``replica`` labels (but
    overlapping hot ranges) collide at merge time — the conflict
    workload of experiment E6.
    """
    rng = make_rng(seed, f"calendar:{replica}")
    hot_slots = max(1, int(n_slots * 0.15))
    ops: list[CalendarOp] = []
    my_events: list[str] = []
    for index in range(n_ops):
        kind = rng.random()
        if kind < 0.7 or not my_events:
            event_id = f"{replica}-ev{index}"
            if rng.random() < hot_fraction:
                slot = rng.randrange(hot_slots)
            else:
                slot = rng.randrange(hot_slots, n_slots)
            alts = sorted(rng.sample(range(n_slots), k=3))
            ops.append(
                CalendarOp(
                    op="add",
                    event_id=event_id,
                    title=f"{rng.choice(_TOPICS)} w/ {rng.choice(_FIRST_NAMES)}",
                    room=f"room{rng.randrange(n_rooms)}",
                    slot=slot,
                    alt_slots=alts,
                )
            )
            my_events.append(event_id)
        elif kind < 0.85:
            ops.append(
                CalendarOp(
                    op="move",
                    event_id=rng.choice(my_events),
                    new_slot=rng.randrange(n_slots),
                )
            )
        else:
            victim = rng.choice(my_events)
            my_events.remove(victim)
            ops.append(CalendarOp(op="cancel", event_id=victim))
    return ops


# --------------------------------------------------------------------------
# Web
# --------------------------------------------------------------------------


@dataclass
class WebPage:
    """A synthetic page: HTML body plus inline images and out-links."""

    url: str
    html_size: int
    inline_sizes: list[int]
    links: list[str]

    @property
    def total_bytes(self) -> int:
        return self.html_size + sum(self.inline_sizes)


@dataclass
class SiteGraph:
    """A synthetic web site."""

    pages: dict[str, WebPage]
    root: str

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def total_bytes(self) -> int:
        return sum(page.total_bytes for page in self.pages.values())


def generate_site(
    seed: int,
    n_pages: int = 30,
    max_inline: int = 3,
) -> SiteGraph:
    """Generate a browsable site graph (connected from the root).

    Pages link mostly "forward" (a shallow tree with cross links, four
    out-links each), which is what makes click-ahead and prefetching
    meaningful.  HTML sizes are lognormal around 8 KiB, up to
    ``max_inline`` inline images around 12 KiB each.
    """
    import math

    rng = make_rng(seed, "web")
    urls = [f"/page{index}.html" for index in range(n_pages)]
    pages: dict[str, WebPage] = {}
    for index, url in enumerate(urls):
        html = int(rng.lognormvariate(math.log(8 * 1024), 0.6))
        html = max(512, min(html, 256 * 1024))
        inline = [
            max(
                256,
                min(int(rng.lognormvariate(math.log(12 * 1024), 0.8)), 128 * 1024),
            )
            for __ in range(rng.randrange(max_inline + 1))
        ]
        # Forward links keep the graph connected; occasional back links.
        candidates = urls[index + 1 : index + 2 + 4 * 2]
        rng.shuffle(candidates)
        links = candidates[:4]
        if index > 0 and rng.random() < 0.3:
            links.append(urls[rng.randrange(index)])
        pages[url] = WebPage(url, html, inline, links)
    return SiteGraph(pages=pages, root=urls[0])


def browse_path(site: SiteGraph, n_clicks: int) -> list[str]:
    """A deterministic browse path following first links from the root."""
    path = [site.root]
    current = site.root
    visited = {current}
    while len(path) < n_clicks:
        links = [u for u in site.pages[current].links if u not in visited]
        if not links:
            remaining = [u for u in site.pages if u not in visited]
            if not remaining:
                break
            links = remaining
        current = links[0]
        visited.add(current)
        path.append(current)
    return path


# --------------------------------------------------------------------------
# Connectivity
# --------------------------------------------------------------------------


def generate_connectivity_trace(
    seed: int,
    horizon_s: float,
    mean_up_s: float = 120.0,
    mean_down_s: float = 300.0,
    start_up: bool = True,
) -> list[tuple[float, float]]:
    """Random up-intervals (exponential dwell times) over a horizon.

    Feed the result to :class:`repro.net.link.IntervalTrace`.
    """
    rng = make_rng(seed, "connectivity")
    intervals: list[tuple[float, float]] = []
    t = 0.0
    up = start_up
    while t < horizon_s:
        dwell = rng.expovariate(1.0 / (mean_up_s if up else mean_down_s))
        dwell = max(1.0, dwell)
        if up:
            intervals.append((t, min(t + dwell, horizon_s)))
        t += dwell
        up = not up
    return intervals
