"""Confidentiality: untrusted processes cannot read trusted traffic
(Table 1).

Trusted senders encrypt bodies under the shared :class:`GroupKey`;
receivers holding the key decrypt and deliver the plaintext; receivers
without the key cannot decrypt and drop the message — so an untrusted
process never *delivers* (sees) a message from a trusted process, which
is exactly the trace property.

Key-less senders transmit in the clear, and cleartext is delivered by
everyone: the property restricts trusted→untrusted flow only.
"""

from __future__ import annotations

from typing import Optional

from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message
from .crypto import Ciphertext, GroupKey

__all__ = ["ConfidentialityLayer"]

_HEADER = "conf"
_HEADER_SIZE = 4
#: Cipher framing overhead added to the body, in bytes.
_CIPHER_OVERHEAD = 16


class ConfidentialityLayer(Layer):
    """Body encryption under a shared group key.

    Args:
        key: the group key; None models an untrusted process.
    """

    name = "conf"

    def __init__(self, key: Optional[GroupKey]) -> None:
        super().__init__()
        self.key = key
        self.stats = Counter()

    def send(self, msg: Message) -> None:
        if self.key is None:
            self.stats.incr("sent_clear")
            self.send_down(msg.with_header(_HEADER, "clear", _HEADER_SIZE))
            return
        self.stats.incr("sent_sealed")
        sealed = msg.with_body(
            Ciphertext(self.key, msg.body), msg.body_size + _CIPHER_OVERHEAD
        )
        self.send_down(sealed.with_header(_HEADER, "sealed", _HEADER_SIZE))

    def receive(self, msg: Message) -> None:
        mode = msg.header(_HEADER)
        if mode is None:
            self.deliver_up(msg)
            return
        plain = msg.without_header(_HEADER, _HEADER_SIZE)
        if mode == "clear":
            self.stats.incr("received_clear")
            self.deliver_up(plain)
            return
        body = plain.body
        if isinstance(body, Ciphertext) and body.can_decrypt(self.key):
            self.stats.incr("unsealed")
            self.deliver_up(
                plain.with_body(
                    body.decrypt(self.key),
                    max(0, plain.body_size - _CIPHER_OVERHEAD),
                )
            )
        else:
            # No key (untrusted process): the plaintext stays invisible.
            self.stats.incr("undecryptable")
