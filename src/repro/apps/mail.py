"""Rover Exmh — the mail reader.

Mail maps onto Rover objects exactly as the paper describes: folders
and messages are RDOs with the folder *index* separate from message
bodies, so scanning a folder is cheap and bodies are imported (or
prefetched) individually.  Flag changes (mark read/deleted) are local
mutating invocations that queue exports; sending a message appends to
an append-only outbox that merges trivially at the server
(:class:`~repro.core.conflict.AppendMerge` semantics).

Two readers are provided:

* :class:`RoverMailReader` — everything through the access manager:
  cache hits are immediate, misses are queued, disconnection never
  blocks the user.
* :class:`BlockingMailReader` — the conventional baseline: one
  blocking RPC per operation, dead while disconnected.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.access_manager import AccessManager
from repro.core.conflict import AppendMerge, Resolution, ResolverRegistry
from repro.core.naming import URN
from repro.core.promise import Promise
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.core.server import RoverServer
from repro.core.session import Session
from repro.net.scheduler import Priority
from repro.net.transport import RpcError, Transport
from repro.workloads.generators import MailCorpus

FOLDER_TYPE = "mail-folder"
MESSAGE_TYPE = "mail-message"

_FOLDER_CODE = '''
def list_index(state):
    return state["index"]

def count(state):
    return len(state["index"])

def append_entry(state, entry):
    state["index"] = state["index"] + [entry]
    return len(state["index"])

def append_entries(state, entries):
    state["index"] = state["index"] + list(entries)
    return len(state["index"])

def unread_ids(state, read_ids):
    result = []
    for entry in state["index"]:
        if entry["id"] not in read_ids:
            result.append(entry["id"])
    return result
'''

_FOLDER_INTERFACE = RDOInterface(
    [
        MethodSpec("list_index", doc="summaries of all messages"),
        MethodSpec("count", doc="number of messages"),
        MethodSpec("append_entry", mutates=True, doc="add an index entry"),
        MethodSpec("append_entries", mutates=True, doc="add a batch of index entries"),
        MethodSpec("unread_ids", doc="ids not in the given read set"),
    ]
)

_MESSAGE_CODE = '''
def headers(state):
    return {"id": state["id"], "from": state["from"], "subject": state["subject"]}

def body(state):
    return state["body"]

def mark_read(state):
    flags = dict(state["flags"])
    flags["read"] = True
    state["flags"] = flags
    return True

def mark_deleted(state):
    flags = dict(state["flags"])
    flags["deleted"] = True
    state["flags"] = flags
    return True
'''

_MESSAGE_INTERFACE = RDOInterface(
    [
        MethodSpec("headers"),
        MethodSpec("body"),
        MethodSpec("mark_read", mutates=True),
        MethodSpec("mark_deleted", mutates=True),
    ]
)


class FolderMerge:
    """Type-specific resolver for folders: merge index lists append-only."""

    name = "mail-folder-merge"

    def __init__(self) -> None:
        self._lists = AppendMerge()

    def resolve(self, base: Any, server: Any, client: Any) -> Resolution:
        if base is None:
            return Resolution.unresolved("no base version available")
        sub = self._lists.resolve(
            base.get("index", []), server.get("index", []), client.get("index", [])
        )
        if not sub.resolved:
            return sub
        merged = dict(server)
        merged["index"] = sub.merged_value
        return Resolution.merged(merged, sub.detail)


class MessageMerge:
    """Flags merge field-wise; read|read' = read (monotonic booleans)."""

    name = "mail-message-merge"

    def resolve(self, base: Any, server: Any, client: Any) -> Resolution:
        if base is None:
            return Resolution.unresolved("no base version available")
        merged = dict(server)
        flags = dict(server.get("flags", {}))
        for flag, value in client.get("flags", {}).items():
            flags[flag] = bool(flags.get(flag, False)) or bool(value)
        merged["flags"] = flags
        return Resolution.merged(merged, "flag union")


def install_mail_resolvers(registry: ResolverRegistry) -> None:
    registry.register(FOLDER_TYPE, FolderMerge())
    registry.register(MESSAGE_TYPE, MessageMerge())


class MailServerApp:
    """Server-side mail state: folders plus messages as RDOs."""

    def __init__(self, server: RoverServer, corpus: Optional[MailCorpus] = None) -> None:
        self.server = server
        self.authority = server.authority
        install_mail_resolvers(server.resolvers)
        if corpus is not None:
            self.load_corpus(corpus)

    def folder_urn(self, folder: str) -> URN:
        return URN(self.authority, f"mail/{folder}")

    def message_urn(self, folder: str, msg_id: str) -> URN:
        return URN(self.authority, f"mail/{folder}/{msg_id}")

    def load_corpus(self, corpus: MailCorpus) -> None:
        for folder, messages in corpus.folders.items():
            index = [message.summary() for message in messages]
            self.server.put_object(
                RDO(
                    self.folder_urn(folder),
                    FOLDER_TYPE,
                    {"name": folder, "index": index},
                    code=_FOLDER_CODE,
                    interface=_FOLDER_INTERFACE,
                )
            )
            for message in messages:
                self.server.put_object(
                    RDO(
                        self.message_urn(folder, message.msg_id),
                        MESSAGE_TYPE,
                        message.to_data(),
                        code=_MESSAGE_CODE,
                        interface=_MESSAGE_INTERFACE,
                    )
                )

    def create_folder(self, folder: str) -> URN:
        urn = self.folder_urn(folder)
        self.server.put_object(
            RDO(
                urn,
                FOLDER_TYPE,
                {"name": folder, "index": []},
                code=_FOLDER_CODE,
                interface=_FOLDER_INTERFACE,
            )
        )
        return urn


class RoverMailReader:
    """The Rover mail client: non-blocking, cache-first, queue-behind."""

    def __init__(
        self,
        access: AccessManager,
        authority: str,
        session: Optional[Session] = None,
    ) -> None:
        self.access = access
        self.authority = authority
        self.session = session or access.create_session("mail")
        self.reads = 0
        self.cache_hit_reads = 0

    def folder_urn(self, folder: str) -> URN:
        return URN(self.authority, f"mail/{folder}")

    def message_urn(self, folder: str, msg_id: str) -> URN:
        return URN(self.authority, f"mail/{folder}/{msg_id}")

    # -- scanning ------------------------------------------------------------

    def open_folder(self, folder: str, priority: Priority = Priority.FOREGROUND) -> Promise:
        """Import the folder index (promise of the folder RDO)."""
        return self.access.import_(self.folder_urn(folder), self.session, priority)

    def folder_index(self, folder: str) -> list[dict]:
        """Index of an already-imported folder (local invocation)."""
        result, __ = self.access.invoke(
            self.folder_urn(folder), "list_index", session=self.session
        )
        return result

    # -- reading ---------------------------------------------------------------

    def read_message(self, folder: str, msg_id: str) -> Promise:
        """Promise of the message RDO; marks it read once available."""
        self.reads += 1
        urn = self.message_urn(folder, msg_id)
        if self.access.cache.peek(str(urn)) is not None:
            self.cache_hit_reads += 1
        promise = self.access.import_(urn, self.session, Priority.FOREGROUND)

        def mark(rdo: Any) -> None:
            if not rdo.data["flags"].get("read"):
                self.access.invoke(urn, "mark_read", session=self.session)

        promise.then(mark)
        return promise

    # -- prefetching -------------------------------------------------------------

    def prefetch_folder(self, folder: str) -> Promise:
        """Warm the cache: import the index, then every message body.

        The returned promise resolves (with the count of queued bodies)
        once the index arrives and the body imports are queued.
        """
        done = Promise(label=f"prefetch {folder}")
        index_promise = self.open_folder(folder, priority=Priority.BACKGROUND)

        def queue_bodies(folder_rdo: Any) -> None:
            urns = [
                self.message_urn(folder, entry["id"])
                for entry in folder_rdo.data["index"]
            ]
            self.access.prefetch(urns, session=self.session)
            done.resolve(len(urns))

        index_promise.then(queue_bodies)
        index_promise.on_failure(done.reject)
        return done

    # -- sending -----------------------------------------------------------------

    def send_message(self, outbox: str, message: dict) -> Promise:
        """Append to the (already-imported) outbox folder; queues export."""
        urn = self.folder_urn(outbox)
        self.access.invoke(
            urn,
            "append_entry",
            {
                "id": message.get("id", ""),
                "from": message.get("from", ""),
                "subject": message.get("subject", ""),
                "size": len(message.get("body", "")),
            },
            session=self.session,
        )
        sent = Promise(label=f"send via {outbox}")
        sent.resolve(True)  # locally durable immediately; commit is async
        return sent

    # -- filtering via function shipping ------------------------------------------

    def filter_folder_on_server(self, folder: str, keyword: str) -> Promise:
        """Ship an RDO that scans message bodies server-side.

        One queued exchange replaces importing every body over the
        link — the paper's canonical RDO-migration example.
        """
        code = f'''
def main(folder_urn, keyword):
    data = lookup(folder_urn)
    if data is None:
        return []
    matches = []
    for entry in data["index"]:
        message = lookup(folder_urn + "/" + entry["id"])
        if message is not None and keyword in message["body"]:
            matches.append(entry["id"])
    return matches
'''
        return self.access.ship(
            self.authority,
            code,
            method="main",
            args=[str(self.folder_urn(folder)), keyword],
            session=self.session,
        )


class BlockingMailReader:
    """Conventional baseline: blocking RPC per operation, no cache."""

    def __init__(self, transport: Transport, server_host: Any, authority: str) -> None:
        self.transport = transport
        self.server_host = server_host
        self.authority = authority

    def _call(self, service: str, body: dict) -> dict:
        """One blocking call; the baseline fails on a refusal as on silence."""
        reply = self.transport.call_blocking(self.server_host, service, body)
        if reply.get("status") != "ok":
            raise RpcError(f"{service} failed: {reply.get('error', reply.get('status'))}")
        return reply

    def folder_index(self, folder: str) -> list[dict]:
        urn = str(URN(self.authority, f"mail/{folder}"))
        return self._call("rover.import", {"urn": urn})["rdo"]["data"]["index"]

    def read_message(self, folder: str, msg_id: str) -> dict:
        urn = str(URN(self.authority, f"mail/{folder}/{msg_id}"))
        wire = self._call("rover.import", {"urn": urn})["rdo"]
        # Conventional reader updates flags with another blocking call.
        self._call("rover.invoke", {"urn": urn, "method": "mark_read", "args": []})
        return wire["data"]
