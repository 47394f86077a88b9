"""Network model: one server NIC shared by every donor.

The paper's deployment: "all machines connecting via a 100 Mbit/s
network to a single server (Pentium III 500 MHz)".  The server's link
is the shared bottleneck — every control message and every data
transfer serializes through it.  Donor-side links are assumed
uncontended (each donor talks only to the server).

Transfers are modelled as: per-message latency (propagation + RMI
dispatch) that does **not** occupy the link, plus ``bytes/bandwidth``
seconds of exclusive link time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.sim.engine import Effect, SimResource, Simulator, Timeout, transfer
from repro.obs.meters import BYTES_BUCKETS
from typing import Iterator

#: 100 Mbit/s in usable bytes/second (the paper's LAN).
DEFAULT_BANDWIDTH = 100e6 / 8
#: One control message costs roughly a TCP round trip + dispatch.
DEFAULT_LATENCY = 2e-3
#: Serialized size of a work request / small response envelope.
CONTROL_MESSAGE_BYTES = 512


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Link parameters.

    ``server_overhead`` models the per-message CPU cost on the single
    server (the paper's was a Pentium III 500 MHz): RMI dispatch,
    scheduling, result merging.  It occupies the serialized server
    resource, so floods of tiny work units saturate the server — the
    phenomenon that motivates adaptive granularity.  Defaults to zero
    (a pure network model); experiments that study unit-size overheads
    switch it on explicitly.
    """

    bandwidth: float = DEFAULT_BANDWIDTH
    latency: float = DEFAULT_LATENCY
    control_bytes: int = CONTROL_MESSAGE_BYTES
    server_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency cannot be negative")
        if self.server_overhead < 0:
            raise ValueError("server_overhead cannot be negative")

    @classmethod
    def high_latency(
        cls,
        bandwidth: float = 2e6,
        latency: float = 0.25,
        **kwargs,
    ) -> "NetworkConfig":
        """A WAN-ish link: donors far from the server.

        Every control exchange costs two round trips of a quarter
        second and payloads crawl through ~16 Mbit/s — the regime where
        a serial fetch→compute→submit donor idles most of its time on
        the wire and the pipelined runtime pays off hardest.
        """
        return cls(bandwidth=bandwidth, latency=latency, **kwargs)


class NetworkModel:
    """The server link as a simulation resource.

    With *meters* attached, link traffic streams into ``net.bytes`` /
    ``net.transfers`` counters and a transfer-size histogram — the
    simulated twin of the live transport's ``rmi.bytes.*`` meters.
    """

    def __init__(
        self, sim: Simulator, config: NetworkConfig | None = None, meters=None
    ):
        self.config = config or NetworkConfig()
        self.link = SimResource(sim, capacity=1, name="server-link")
        self.bytes_transferred = 0
        self.transfers = 0
        self.meters = meters
        # Bound once: transmit runs on every simulated message.
        if meters is not None:
            self._m_transfers = meters.counter("net.transfers")
            self._m_bytes = meters.counter("net.bytes")
            self._h_transfer_bytes = meters.histogram(
                "net.transfer.bytes", BYTES_BUCKETS
            )
            self._m_blob_fetches = meters.counter("net.blob.fetches")
            self._m_blob_fetch_bytes = meters.counter("net.blob.fetch.bytes")

    def transfer_seconds(self, nbytes: int) -> float:
        return nbytes / self.config.bandwidth

    def transmit(self, nbytes: int) -> Iterator[Effect]:
        """Process fragment: move *nbytes* through the server link.

        Latency is paid off-link (it is propagation, not occupancy);
        the serialization time holds the link exclusively.
        """
        if nbytes < 0:
            raise ValueError("cannot transmit negative bytes")
        yield Timeout(self.config.latency)
        occupancy = self.config.server_overhead + (
            self.transfer_seconds(nbytes) if nbytes else 0.0
        )
        if occupancy > 0:
            yield from transfer(self.link, occupancy)
            self.bytes_transferred += nbytes
        self.transfers += 1
        if self.meters is not None:
            self._m_transfers.inc()
            self._m_bytes.inc(nbytes)
            self._h_transfer_bytes.observe(nbytes)

    def transmit_blob(self, nbytes: int) -> Iterator[Effect]:
        """Process fragment: a shared-blob download (donor cache miss).

        Same link physics as :meth:`transmit`, metered separately under
        ``net.blob.*`` so the dedup saving is directly observable.
        """
        if self.meters is not None:
            self._m_blob_fetches.inc()
            self._m_blob_fetch_bytes.inc(nbytes)
        yield from self.transmit(nbytes)

    def control_roundtrip(self) -> Iterator[Effect]:
        """Process fragment: one request/response control exchange."""
        yield from self.transmit(self.config.control_bytes)
        yield from self.transmit(self.config.control_bytes)
