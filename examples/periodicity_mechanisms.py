#!/usr/bin/env python3
"""Where the 30/60-second periodicity comes from (§4.2, Figure 8).

Runs three mechanism simulations side by side and shows each one's
inter-arrival signature at the route server:

1. a CSU-misclocked leased line (periodic carrier loss → ~60 s WADups);
2. a misconfigured mutual IGP/BGP redistribution (30 s IGP timer →
   30 s-quantized oscillation);
3. the Floyd–Jacobson self-synchronization of unjittered 30-second
   update timers (coherence → 1.0 without jitter, low with).

Run:  python examples/periodicity_mechanisms.py
"""

from repro.analysis.interarrival import (
    bin_label,
    histogram_proportions,
    interarrival_times,
    timer_bin_mass,
)
from repro.collector.record import MemoryLog
from repro.core.columns import RecordColumns
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.igp import IgpBgpRedistribution, IgpTable
from repro.sim.link import CsuLink
from repro.sim.router import Router, connect
from repro.sim.routeserver import RouteServer
from repro.sim.sync import SynchronizationStudy


def print_histogram(title, gaps):
    proportions = histogram_proportions(gaps)
    print(f"{title}  ({len(gaps)} gaps)")
    for i, p in enumerate(proportions):
        if p > 0.01:
            bar = "#" * int(p * 50)
            print(f"  {bin_label(i):>4s} {p:5.1%} {bar}")
    print(f"  30s+1m mass: {timer_bin_mass(proportions):.0%}")
    print()


def csu_mechanism():
    engine = Engine()
    sink = MemoryLog()
    provider = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
    customer = Router(engine, asn=300, router_id=3, mrai_interval=5.0)
    csu = CsuLink(engine, up_duration=55.0, down_duration=5.0, noise=0.01)
    customer.add_peer(provider.router_id, provider.asn, csu)
    provider.add_peer(customer.router_id, customer.asn, csu)
    customer.start_session(provider.router_id)
    customer.originate(Prefix.parse("203.0.113.0/24"))
    server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
    connect(provider, server)
    engine.run_until(4 * 3600.0)
    return interarrival_times(
        RecordColumns.from_records(sink.sorted_by_time())
    )


def igp_mechanism():
    engine = Engine()
    sink = MemoryLog()
    router = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
    igp = IgpTable()
    igp.add_native(Prefix.parse("198.51.100.0/24"))
    IgpBgpRedistribution(engine, router, igp, igp_period=30.0).start()
    server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
    connect(router, server)
    engine.run_until(4 * 3600.0)
    return interarrival_times(
        RecordColumns.from_records(sink.sorted_by_time())
    )


def main() -> None:
    print("Mechanism 1: CSU clock drift on a leased line (60 s cycle)")
    print_histogram("  inter-arrival histogram:", csu_mechanism())

    print("Mechanism 2: lossy mutual IGP/BGP redistribution (30 s timer)")
    print_histogram("  inter-arrival histogram:", igp_mechanism())

    print("Mechanism 3: Floyd-Jacobson self-synchronization")
    for jitter in (0.0, 0.25):
        study = SynchronizationStudy(jitter=jitter, seed=7)
        study.advance(24 * 3600.0)
        label = "unjittered" if jitter == 0.0 else f"jitter={jitter}"
        print(
            f"  {label:12s} phase coherence after 24h: "
            f"{study.final_coherence():.2f}"
        )
    print()
    print(
        "Unjittered timers lock into simultaneous transmission "
        "(coherence ~1); the RFC's recommended jitter prevents it - "
        "the paper's conjectured origin of synchronized update bursts."
    )


if __name__ == "__main__":
    main()
