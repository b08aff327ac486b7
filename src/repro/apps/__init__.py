"""The paper's three applications, rebuilt on the toolkit.

* :mod:`repro.apps.mail` — Rover Exmh: a mail reader whose folder
  scans, message reads, flag updates, and sends all ride QRPC and the
  cache (plus a conventional blocking reader as the baseline);
* :mod:`repro.apps.calendar` — Rover Ical: a shared calendar with
  tentative local updates and a Bayou-style type-specific resolver;
* :mod:`repro.apps.webproxy` — the Rover Web Browser Proxy: click-ahead
  (queue requests for pages before earlier ones arrive) and
  delay-triggered prefetching of linked documents, plus a blocking
  browser baseline.
"""

from repro.apps.calendar import CalendarMerge, CalendarReplica, install_calendar
from repro.apps.mail import (
    BlockingMailReader,
    MailServerApp,
    RoverMailReader,
)
from repro.apps.statusbar import StatusBar
from repro.apps.webproxy import (
    BlockingBrowser,
    ClickAheadProxy,
    WebServerApp,
)

__all__ = [
    "BlockingBrowser",
    "BlockingMailReader",
    "CalendarMerge",
    "CalendarReplica",
    "ClickAheadProxy",
    "MailServerApp",
    "RoverMailReader",
    "StatusBar",
    "WebServerApp",
    "install_calendar",
]
