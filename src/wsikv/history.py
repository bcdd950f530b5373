"""Parse, replay, and judge interleaved transaction histories.

Histories use the classic compact notation: ``r1[x]`` and ``w1[x]`` are a
read and a write by transaction 1 on item x, ``w1[x=v]`` gives the write an
explicit value, and ``c1`` / ``a1`` commit or abort transaction 1. Event
order is the real-time order of operations.

Two judgments are provided. ``replay_policy`` drives a fresh engine (store,
timestamp source, status oracle) and reports each transaction's commit
decision under a chosen isolation policy. ``is_serializable`` is an
independent brute-force oracle: it searches permutations of the committed
transactions for a serial execution that yields the same per-transaction
reads and the same final item state. Reads are compared by writer identity
(which transaction's write, or the initial state, was observed), which
decides unvalued histories and implies value equality for any assignment.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .oracle import CommitDecision, IsolationPolicy
from .txn import Database

INITIAL_WRITER = 0  # virtual transaction that installs every item's starting version
SEARCH_LIMIT = 8  # most committed transactions is_serializable permutes

_OP = re.compile(r"([rw])(\d+)\[([^\[\]=\s]+)(?:=([^\[\]=\s]+))?\]\Z")
_TERMINAL = re.compile(r"([ca])(\d+)\Z")


class HistoryParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"col {column}: {message}")
        self.column = column


class TooManyTransactionsError(RuntimeError):
    """Permutation search refused; too many committed transactions."""


class NotAdmissibleError(RuntimeError):
    """serial construction requires a write-snapshot-admissible history."""


@dataclass(frozen=True)
class HistoryEvent:
    kind: str  # "r" | "w" | "c" | "a"
    txn: int
    item: str | None = None
    value: str | None = None
    value_explicit: bool = False

    def token(self) -> str:
        if self.kind in ("c", "a"):
            return f"{self.kind}{self.txn}"
        if self.kind == "w" and self.value_explicit:
            return f"w{self.txn}[{self.item}={self.value}]"
        return f"{self.kind}{self.txn}[{self.item}]"


@dataclass
class History:
    events: list[HistoryEvent] = field(default_factory=list)

    def committed_txns(self) -> list[int]:
        return sorted(ev.txn for ev in self.events if ev.kind == "c")

    def items(self) -> list[str]:
        out = []
        for ev in self.events:
            if ev.item is not None and ev.item not in out:
                out.append(ev.item)
        return sorted(out)

    def format(self) -> str:
        return " ".join(ev.token() for ev in self.events)


@dataclass(frozen=True)
class SerializabilityVerdict:
    serializable: bool
    witness_order: tuple[int, ...] | None = None


def parse(text: str) -> History:
    """Parse whitespace-separated history tokens.

    Unvalued writes are auto-valued with a per-transaction unique symbol.
    A commit or abort for a transaction with no operations is legal; a
    second terminal event or an operation after one is an error.
    """
    events: list[HistoryEvent] = []
    terminal: dict[int, str] = {}
    write_counts: dict[int, int] = {}
    for match in re.finditer(r"\S+", text):
        token = match.group()
        column = match.start() + 1
        op = _OP.match(token)
        if op:
            kind, txn_s, item, value = op.groups()
            txn = int(txn_s)
            if txn == 0:
                raise HistoryParseError("transaction id 0 is reserved", column)
            if txn in terminal:
                raise HistoryParseError(
                    f"operation after {terminal[txn]}{txn}", column
                )
            if kind == "r":
                if value is not None:
                    raise HistoryParseError("a read cannot carry a value", column)
                events.append(HistoryEvent("r", txn, item))
            else:
                explicit = value is not None
                if not explicit:
                    n = write_counts.get(txn, 0) + 1
                    write_counts[txn] = n
                    value = f"v{txn}w{n}"
                events.append(HistoryEvent("w", txn, item, value, explicit))
            continue
        term = _TERMINAL.match(token)
        if term:
            kind, txn_s = term.groups()
            txn = int(txn_s)
            if txn == 0:
                raise HistoryParseError("transaction id 0 is reserved", column)
            if txn in terminal:
                raise HistoryParseError(
                    f"duplicate commit/abort for transaction {txn}", column
                )
            terminal[txn] = kind
            events.append(HistoryEvent(kind, txn))
            continue
        raise HistoryParseError(f"malformed token {token!r}", column)
    return History(events)


def replay_policy(h: History, policy: IsolationPolicy) -> dict[int, CommitDecision]:
    """Drive a fresh engine with the history's events in order.

    Transactions begin at their first event's position. Every item first gets
    an initial version, committed by one seeding transaction per item before
    any history transaction starts. Returns the decision per terminated
    transaction; commit events get the oracle's decision, abort events an
    aborted one with cause "client".
    """
    db = Database(policy=policy)
    for item in h.items():
        db.seed_committed(item.encode(), b"init:" + item.encode())
    handles = {}
    decisions: dict[int, CommitDecision] = {}
    for ev in h.events:
        handle = handles.get(ev.txn)
        if handle is None:
            handle = handles[ev.txn] = db.begin()
        if ev.kind == "r":
            handle.read(ev.item.encode())
        elif ev.kind == "w":
            handle.write(ev.item.encode(), ev.value.encode())
        elif ev.kind == "c":
            decisions[ev.txn] = handle.commit()
        else:
            handle.abort()
            decisions[ev.txn] = CommitDecision(False, cause="client")
    return decisions


def rejected(h: History, policy: IsolationPolicy) -> list[int]:
    """Transactions that commit in h but that the policy's replay aborts."""
    decisions = replay_policy(h, policy)
    return [t for t in h.committed_txns() if not decisions[t].committed]


# -- independent execution model ----------------------------------------------
#
# A small multi-version model, deliberately separate from the engine, used by
# the serializability oracle: starts are assigned at first events and commits
# at commit events from one shared clock; a read observes the version with
# the largest commit timestamp below the reader's start, or the reader's own
# pending write. Commit events always succeed here (the history records what
# happened; the model replays it), and aborted writes never become visible.


@dataclass
class ObservedExecution:
    reads: dict[int, list[tuple[str, int]]]  # per txn: (item, writer id) in op order
    finals: dict[str, int]  # item -> writer id of the last committed version

    def same_view(self, other: "ObservedExecution", txns, items) -> bool:
        """Whether `txns` read the same writers and `items` end with the same writer."""
        return all(self.reads.get(t, []) == other.reads.get(t, []) for t in txns) and all(
            self.finals.get(i, INITIAL_WRITER) == other.finals.get(i, INITIAL_WRITER) for i in items
        )


def observe(events: list[HistoryEvent]) -> ObservedExecution:
    clock = 0
    start: dict[int, int] = {}
    committed: dict[str, list[tuple[int, int]]] = {}  # item -> [(commit_ts, writer)]
    pending: dict[int, set[str]] = {}
    reads: dict[int, list[tuple[str, int]]] = {}
    for ev in events:
        if ev.txn not in start:
            clock += 1
            start[ev.txn] = clock
        if ev.kind == "r":
            if ev.item in pending.get(ev.txn, ()):
                writer = ev.txn
            else:
                writer = INITIAL_WRITER
                for ct, w in committed.get(ev.item, ()):
                    if ct < start[ev.txn]:
                        writer = w  # ascending commit order: last hit is newest
                    else:
                        break
            reads.setdefault(ev.txn, []).append((ev.item, writer))
        elif ev.kind == "w":
            pending.setdefault(ev.txn, set()).add(ev.item)
        elif ev.kind == "c":
            clock += 1
            for item in sorted(pending.pop(ev.txn, ())):
                committed.setdefault(item, []).append((clock, ev.txn))
        else:
            pending.pop(ev.txn, None)
    finals = {item: versions[-1][1] for item, versions in committed.items()}
    return ObservedExecution(reads, finals)


def _txn_blocks(h: History) -> dict[int, list[HistoryEvent]]:
    """Per committed transaction: its operations in order plus its commit."""
    blocks: dict[int, list[HistoryEvent]] = {}
    for ev in h.events:
        if ev.kind in ("r", "w", "c"):
            blocks.setdefault(ev.txn, []).append(ev)
    return {t: evs for t, evs in blocks.items() if evs[-1].kind == "c"}


def is_serializable(h: History) -> SerializabilityVerdict:
    """Brute-force search for an equivalent serial order of the committed
    transactions; aborted transactions are excluded from both sides.

    Permutations are tried in lexicographic transaction-id order and the
    first witness is returned, so verdicts are deterministic.
    """
    committed = h.committed_txns()
    if len(committed) > SEARCH_LIMIT:
        raise TooManyTransactionsError(
            f"{len(committed)} committed transactions exceed the search limit {SEARCH_LIMIT}"
        )
    original = observe(h.events)
    items = h.items()
    blocks = _txn_blocks(h)
    for perm in itertools.permutations(committed):
        serial = observe([ev for t in perm for ev in blocks[t]])
        if original.same_view(serial, committed, items):
            return SerializabilityVerdict(True, perm)
    return SerializabilityVerdict(False, None)


def view_equivalent(a: History, b: History) -> bool:
    """Same committed transactions, same per-transaction reads, same finals."""
    committed = a.committed_txns()
    return committed == b.committed_txns() and observe(a.events).same_view(
        observe(b.events), committed, set(a.items()) | set(b.items())
    )


def construct_serial(h: History) -> History:
    """Serial history equivalent to a write-snapshot-admissible history.

    Keeps the commit order of write transactions and the operation order
    inside each transaction; relocates a read-only transaction's operations
    to just after its start and a write transaction's to just before its
    commit. Aborted and unterminated transactions are excluded.
    """
    refused = rejected(h, IsolationPolicy.WSI)
    if refused:
        raise NotAdmissibleError(
            "history is not admissible under write-snapshot isolation "
            f"(rejected: {refused})"
        )
    committed = h.committed_txns()
    first_pos: dict[int, int] = {}
    commit_pos: dict[int, int] = {}
    writes: set[int] = set()
    for i, ev in enumerate(h.events):
        first_pos.setdefault(ev.txn, i)
        if ev.kind == "c":
            commit_pos[ev.txn] = i
        elif ev.kind == "w":
            writes.add(ev.txn)
    anchor = {
        t: commit_pos[t] if t in writes else first_pos[t] for t in committed
    }
    blocks = _txn_blocks(h)
    order = sorted(committed, key=anchor.__getitem__)
    return History([ev for t in order for ev in blocks[t]])


def verdict_line(h: History) -> str:
    """One-line report: admissibility under each policy plus serializability."""

    def leg(name: str, policy: IsolationPolicy) -> str:
        refused = rejected(h, policy)
        if not refused:
            return f"{name}:admissible"
        return f"{name}:" + "+".join(f"txn{t}" for t in refused) + "-aborted"

    verdict = is_serializable(h)
    if verdict.serializable:
        witness = ",".join(str(t) for t in verdict.witness_order)
        ser = f"SER:yes witness=({witness})"
    else:
        ser = "SER:no"
    return f"{leg('SI', IsolationPolicy.SI)} {leg('WSI', IsolationPolicy.WSI)} {ser}"
