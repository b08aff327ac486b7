"""repro.ha — replicated home servers with lease-based failover.

A :class:`ReplicationGroup` turns one Rover authority into a primary
plus K backup :class:`~repro.core.server.RoverServer` instances.  The
primary synchronously log-ships what each write stored (not the
request: the backups install it and run no handler) and acknowledges
the client only once a majority of the group holds the record; lease-based failure detection promotes a
backup deterministically when the primary goes silent; monotonic
epoch numbers fence a deposed primary's replies and ship-backs; and a
crashed ex-primary rejoins as a backup through version-vector
anti-entropy over the server's snapshot state.

Clients address the group through a :class:`ReplicaSet` (stored in
``AccessManager.servers`` in place of a bare host): QRPC requests
fail over to the promoted backup with seeded jittered exponential
backoff, and request-id replay keeps every acknowledged operation
exactly-once across the takeover.
"""

from repro.ha.group import (
    CLIENT_SERVICES,
    ReplicaAgent,
    ReplicaSet,
    ReplicationGroup,
)
from repro.ha.testbed import HATestbed, build_ha_testbed

__all__ = [
    "CLIENT_SERVICES",
    "ReplicaAgent",
    "ReplicaSet",
    "ReplicationGroup",
    "HATestbed",
    "build_ha_testbed",
]
