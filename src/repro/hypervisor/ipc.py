"""Hypervisor-mediated inter-partition communication (IPC).

The architecture figure of the paper (Fig. 1) shows IPC crossing the
isolation barrier through the hypervisor.  We model the classic
time-partitioned design: messages sent by one partition are buffered by
the hypervisor and handed to the receiving partition when its TDMA slot
next begins, so communication cannot create covert timing channels
between partitions.  Optionally a channel raises a (virtual) IRQ line
on delivery, letting the receiver process messages through the same
top/bottom-handler machinery as hardware interrupts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.hypervisor.partition import Partition


@dataclass
class Message:
    """One IPC message in flight or delivered."""

    payload: Any
    sent_at: int
    channel: str
    delivered_at: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at


class IpcChannelFull(RuntimeError):
    """Raised when sending on a channel whose buffer is full."""


class IpcChannel:
    """A unidirectional, bounded, hypervisor-buffered message channel."""

    def __init__(self, name: str, sender: str, receiver: str,
                 capacity: int = 16, notify_line: Optional[int] = None):
        if capacity <= 0:
            raise ValueError(f"channel capacity must be positive, got {capacity}")
        self.name = name
        self.sender = sender
        self.receiver = receiver
        self.capacity = capacity
        self.notify_line = notify_line
        self.in_transit: list[Message] = []
        self.delivered: list[Message] = []

    def send(self, payload: Any, now: int) -> Message:
        """Buffer a message for delivery at the receiver's next slot."""
        if len(self.in_transit) >= self.capacity:
            raise IpcChannelFull(
                f"channel {self.name!r} full ({self.capacity} messages in transit)"
            )
        message = Message(payload=payload, sent_at=now, channel=self.name)
        self.in_transit.append(message)
        return message

    def deliver_all(self, now: int) -> list[Message]:
        """Move all in-transit messages to the delivered list."""
        batch = self.in_transit
        self.in_transit = []
        for message in batch:
            message.delivered_at = now
            self.delivered.append(message)
        return batch


class IpcRouter:
    """Routes channel deliveries into partition mailboxes at slot entry."""

    def __init__(self):
        self._channels: dict[str, IpcChannel] = {}
        self._hypervisor = None

    def bind(self, hypervisor) -> None:
        """Called by :meth:`Hypervisor.attach_ipc_router`."""
        self._hypervisor = hypervisor

    def create_channel(self, name: str, sender: str, receiver: str,
                       capacity: int = 16,
                       notify_line: Optional[int] = None) -> IpcChannel:
        if name in self._channels:
            raise ValueError(f"duplicate channel name {name!r}")
        channel = IpcChannel(name, sender, receiver, capacity, notify_line)
        self._channels[name] = channel
        return channel

    def on_slot_entered(self, partition: Partition, now: int) -> None:
        """Deliver pending messages addressed to the entering partition."""
        for channel in self._channels.values():
            if channel.receiver != partition.name or not channel.in_transit:
                continue
            batch = channel.deliver_all(now)
            partition.mailbox.extend(batch)
            if (channel.notify_line is not None
                    and self._hypervisor is not None):
                self._hypervisor.intc.raise_line(channel.notify_line)
