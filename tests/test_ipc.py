"""Tests for hypervisor-mediated IPC."""

import pytest

from conftest import us
from repro.hypervisor.config import HypervisorConfig, SlotConfig
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.ipc import IpcChannel, IpcChannelFull, IpcRouter
from repro.hypervisor.partition import Partition


def make_system():
    slots = [SlotConfig("P1", us(1000)), SlotConfig("P2", us(1000))]
    hv = Hypervisor(slots, HypervisorConfig(trace_enabled=False))
    p1 = hv.add_partition(Partition("P1"))
    p2 = hv.add_partition(Partition("P2"))
    router = IpcRouter()
    hv.attach_ipc_router(router)
    return hv, router, p1, p2


class TestChannel:
    def test_send_buffers(self):
        channel = IpcChannel("c", "P1", "P2", capacity=2)
        channel.send("hello", now=10)
        assert len(channel.in_transit) == 1

    def test_capacity(self):
        channel = IpcChannel("c", "P1", "P2", capacity=1)
        channel.send("a", now=0)
        with pytest.raises(IpcChannelFull):
            channel.send("b", now=1)

    def test_deliver_all(self):
        channel = IpcChannel("c", "P1", "P2")
        channel.send("a", now=0)
        channel.send("b", now=5)
        batch = channel.deliver_all(now=100)
        assert [m.payload for m in batch] == ["a", "b"]
        assert all(m.latency == 100 - m.sent_at for m in batch)
        assert not channel.in_transit

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            IpcChannel("c", "P1", "P2", capacity=0)


class TestRouter:
    def test_delivery_at_slot_entry(self):
        """Messages sent during P1's slot reach P2's mailbox exactly
        when P2's slot begins (time-partitioned communication)."""
        hv, router, p1, p2 = make_system()
        channel = router.create_channel("c", "P1", "P2")
        hv.start()
        hv.engine.schedule(us(100),
                           lambda: channel.send("msg", hv.engine.now))
        hv.run_until(us(1200))
        assert len(p2.mailbox) == 1
        message = p2.mailbox[0]
        # Delivered when P2's slot began (boundary + context switch).
        assert message.delivered_at == us(1000) + 10_000
        assert message.latency == message.delivered_at - us(100)

    def test_no_delivery_to_wrong_partition(self):
        hv, router, p1, p2 = make_system()
        channel = router.create_channel("c", "P1", "P2")
        hv.start()
        hv.engine.schedule(us(100),
                           lambda: channel.send("msg", hv.engine.now))
        hv.run_until(us(900))
        assert p2.mailbox == []
        assert p1.mailbox == []

    def test_notify_line_raises_virtual_irq(self):
        hv, router, p1, p2 = make_system()
        channel = router.create_channel("c", "P1", "P2", notify_line=7)
        hv.start()
        hv.engine.schedule(us(100),
                           lambda: channel.send("msg", hv.engine.now))
        hv.run_until(us(1500))
        assert hv.intc.raise_count(7) == 1

    def test_duplicate_channel_rejected(self):
        _, router, _, _ = make_system()
        router.create_channel("c", "P1", "P2")
        with pytest.raises(ValueError):
            router.create_channel("c", "P2", "P1")
