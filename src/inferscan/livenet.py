"""Optional raw-socket transport backend.

Requires root, an explicit authorization acknowledgement, and (for
spoofed-source probes) a link without egress filtering.  The tests run
this backend over fake raw sockets (``TestLiveTransport`` in
``tests/test_transport.py``), never on a real network; the simulator
backend is the reference.
"""

from __future__ import annotations

import socket
import threading
import time

from .transport import (
    Clock,
    TcpSegment,
    Transport,
    TransportError,
    segment_from_wire,
    segment_to_wire,
)


class AuthorizationError(TransportError):
    pass


class RealClock(Clock):
    def now_ns(self) -> int:
        return time.monotonic_ns()

    def sleep_ns(self, duration_ns: int) -> None:
        time.sleep(duration_ns / 1e9)


class LiveTransport(Transport):
    """Sends crafted segments via IP_HDRINCL; sniffs replies on a raw socket.

    ``egress_unfiltered`` asserts that the local network does not drop
    spoofed return addresses; without it, spoofed crafting is refused.

    The sniffer thread queues each arrival through ``_enqueue`` under
    ``_lock``, so the capture queue's horizon bounds a transport that
    never captures too.  A send sleeps until its slot.
    """

    def __init__(self, local_addr: str, authorized: bool = False,
                 egress_unfiltered: bool = False, **kwargs):
        if not authorized:
            raise AuthorizationError(
                "live probing requires explicit authorization")
        self.supports_spoofing = egress_unfiltered
        self._clock = RealClock()
        super().__init__(local_addr=local_addr, **kwargs)
        self._send_sock = socket.socket(socket.AF_INET, socket.SOCK_RAW,
                                        socket.IPPROTO_RAW)
        self._send_sock.setsockopt(socket.IPPROTO_IP, socket.IP_HDRINCL, 1)
        self._recv_sock = socket.socket(socket.AF_INET, socket.SOCK_RAW,
                                        socket.IPPROTO_TCP)
        self._recv_sock.settimeout(0.2)
        self._running = True
        self._sniffer = threading.Thread(target=self._sniff_loop, daemon=True)
        self._sniffer.start()

    @property
    def clock(self) -> Clock:
        return self._clock

    def _sniff_loop(self) -> None:
        while self._running:
            try:
                data, _ = self._recv_sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            now = self._clock.now_ns()
            try:
                seg = segment_from_wire(data, timestamp=now)
            except Exception:
                continue
            if seg.dst_addr == self.local_addr:
                with self._lock:
                    self._enqueue(now, seg)

    def _dispatch(self, seg: TcpSegment, at_ns: int) -> None:
        self._clock.sleep_until(at_ns)
        self._send_sock.sendto(segment_to_wire(seg), (seg.dst_addr, 0))

    def close(self) -> None:
        self._running = False
        super().close()
        self._send_sock.close()
        self._recv_sock.close()
