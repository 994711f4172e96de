"""Integrity: messages cannot be forged (Table 1).

Every trusted process holds the shared :class:`GroupKey` and tags its
messages with a MAC over (message id, sender, body).  Receivers verify
the tag and silently drop anything that fails — so the layer above only
ever delivers messages genuinely sent by trusted key holders.

A process constructed *without* the key models an untrusted member: it
can still send (its messages carry no valid tag and are dropped by
trusted receivers) and still receives (verification requires the key, so
a key-less receiver drops everything tagged — which is conservative and
keeps the property's contrapositive clean in tests that use
``deliver_unverified=True`` to observe forgeries).
"""

from __future__ import annotations

from typing import Optional

from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message
from .crypto import GroupKey, compute_mac, verify_mac

__all__ = ["IntegrityLayer"]

_HEADER = "mac"
_HEADER_SIZE = 32


class IntegrityLayer(Layer):
    """MAC-based message authentication.

    Args:
        key: the group key; None models an untrusted process.
        deliver_unverified: if True, pass unverifiable messages up instead
            of dropping them (used by tests to *exhibit* forgeries and by
            untrusted receivers that still want traffic).
    """

    name = "mac"

    def __init__(
        self, key: Optional[GroupKey], deliver_unverified: bool = False
    ) -> None:
        super().__init__()
        self.key = key
        self.deliver_unverified = deliver_unverified
        self.stats = Counter()

    def send(self, msg: Message) -> None:
        if self.key is not None:
            tag = compute_mac(self.key, msg.mid, msg.sender, msg.body)
        else:
            tag = None  # untrusted sender cannot produce a valid tag
        self.stats.incr("tagged" if tag else "untagged")
        self.send_down(msg.with_header(_HEADER, tag, _HEADER_SIZE))

    def receive(self, msg: Message) -> None:
        if not msg.has_header(_HEADER):
            self.deliver_up(msg)
            return
        tag = msg.header(_HEADER)
        plain = msg.without_header(_HEADER, _HEADER_SIZE)
        if self.key is not None and verify_mac(
            self.key, tag, plain.mid, plain.sender, plain.body
        ):
            self.stats.incr("verified")
            self.deliver_up(plain)
        elif self.deliver_unverified:
            self.stats.incr("delivered_unverified")
            self.deliver_up(plain)
        else:
            self.stats.incr("rejected")
