"""Per-packet latency decomposition.

The paper argues about *where* latency comes from (PCIe crossings vs.
NF processing), so the simulator attributes every microsecond of each
packet's life to one of four components:

* ``wire`` — ingress/egress serialisation on the Ethernet port,
* ``processing`` — time being served inside NFs,
* ``queueing`` — time waiting in NF ingress queues (and migration buffers),
* ``pcie`` — NIC<->CPU transfers.

Each component is a float field on the
:class:`~repro.traffic.packet.Packet` itself, which the data path adds
to in place on every hop; :func:`component_means` aggregates them over
a set of packets for the harness reports.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..traffic.packet import Packet

COMPONENTS = ("wire", "processing", "queueing", "pcie")


def component_means(packets: Iterable[Packet]) -> Dict[str, float]:
    """Mean seconds per component over ``packets`` (zeros when empty).

    One pass, summing each component left to right in iteration order,
    so the means are a deterministic function of the packet order.
    """
    wire = processing = queueing = pcie = 0.0
    count = 0
    for packet in packets:
        wire += packet.wire
        processing += packet.processing
        queueing += packet.queueing
        pcie += packet.pcie
        count += 1
    if count == 0:
        return dict.fromkeys(COMPONENTS, 0.0)
    return {"wire": wire / count, "processing": processing / count,
            "queueing": queueing / count, "pcie": pcie / count}
