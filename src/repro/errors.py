"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of the library with a single ``except`` clause
while still being able to discriminate finer-grained failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly.

    Examples: scheduling an event in the past, or running a simulator that
    has already been stopped.
    """


class NetworkError(ReproError):
    """A network model was asked to do something impossible.

    Examples: sending from an unbound address, or to an unknown node.
    """


class CodecError(NetworkError):
    """Bytes that are not the wire grammar, or a value it cannot carry.

    ``reason`` is one word: on receive, a member of
    :data:`repro.net.codec.DECODE_REASONS` (the only thing a datagram
    can make :meth:`~repro.net.codec.WireCodec.decode_datagram` raise);
    at the sender, ``"unencodable"``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class StackError(ReproError):
    """A protocol stack was composed or driven incorrectly.

    Examples: pushing a header twice from the same layer, or delivering a
    message through a layer that never saw its header.
    """


class ProtocolError(StackError):
    """A protocol layer received a message that violates its invariants.

    This indicates a bug in a peer layer (or deliberate fault injection),
    e.g. a sequencer delivering out of order or a duplicate sequence number.
    """


class SwitchError(ReproError):
    """The switching protocol reached an inconsistent state.

    Examples: a SWITCH vector naming an unknown member, or a request to
    switch to a protocol slot that was never configured.
    """


class ScenarioError(ReproError):
    """A scenario spec is malformed or cannot run on the chosen runtime.

    Examples: a catalog entry missing required fields, an unknown oracle
    signal, or asking the asyncio runtime to inject simulated faults.
    """


class TraceError(ReproError):
    """A trace is malformed (e.g. duplicate Send events for one message)."""


class VerificationError(ReproError):
    """A meta-property verification run was configured incorrectly."""


class TelemetryError(ReproError):
    """A telemetry plane, SLO target, or exposition endpoint is misconfigured."""


class RecordError(ReproError):
    """JSON that is not the record it claims to be (raised by
    :func:`repro.records.load`, naming where the fault is)."""


class ShardError(ReproError):
    """A process-sharded fleet run failed at the supervisor layer.

    Examples: a worker reporting a group outside its slice, or a slice
    left uncovered after every worker reported.
    """


class ShardCrashed(ShardError):
    """A shard worker died (or hung) before reporting its results.

    Carries enough structure for the caller to react per shard instead
    of staring at a hung sweep: the shard id, the process exit code
    (``None`` when the worker was still alive, e.g. a timeout), and a
    human-readable detail line.
    """

    def __init__(self, shard: int, exitcode, detail: str) -> None:
        self.shard = shard
        self.exitcode = exitcode
        self.detail = detail
        super().__init__(
            f"fleet shard {shard} failed "
            f"(exitcode={exitcode!r}): {detail}"
        )
