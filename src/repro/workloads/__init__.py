"""Seeded synthetic workload generators.

Substitutes for the paper's live inputs (the authors' mailboxes,
calendars, and the 1995 web): deterministic generators parameterised
to the same size regimes, so every experiment is reproducible
bit-for-bit from its seed.
"""

from repro.workloads.generators import (
    CalendarOp,
    MailCorpus,
    MailMessage,
    SiteGraph,
    WebPage,
    browse_path,
    generate_calendar_ops,
    generate_connectivity_trace,
    generate_mail_corpus,
    generate_site,
)
from repro.workloads.population import (
    ClientProfile,
    CohortSpec,
    generate_population,
)

__all__ = [
    "CalendarOp",
    "ClientProfile",
    "CohortSpec",
    "MailCorpus",
    "MailMessage",
    "SiteGraph",
    "WebPage",
    "browse_path",
    "generate_calendar_ops",
    "generate_connectivity_trace",
    "generate_mail_corpus",
    "generate_population",
    "generate_site",
]
