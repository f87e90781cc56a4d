#!/usr/bin/env python3
"""Quickstart: classify a BGP update stream with the paper's taxonomy.

This walks the library's central loop in miniature:

1. build a tiny simulated exchange (two providers + a logging route
   server),
2. make one provider's customer route flap,
3. classify the logged updates with the columnar classifier,
4. print the taxonomy breakdown — the same counting behind every
   figure in the paper.

Run:  python examples/quickstart.py
"""

from repro.collector.record import MemoryLog
from repro.core.columns import (
    RecordColumns,
    classify_columns,
    decode_categories,
)
from repro.core.instability import CategoryCounts
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.router import Router, connect
from repro.sim.routeserver import RouteServer


def main() -> None:
    engine = Engine()
    sink = MemoryLog()

    # A stateful provider, a *stateless* provider (the paper's problem
    # vendor), and the measuring route server.
    good = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
    legacy = Router(
        engine, asn=200, router_id=2, mrai_interval=30.0,
        stateless_bgp=True, mrai_jitter=0.0,
    )
    server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
    connect(good, legacy)
    connect(legacy, server)
    connect(good, server)
    engine.run_until(60.0)  # let sessions establish

    # A customer of the good provider flaps its circuit five times.
    customer_prefix = Prefix.parse("192.42.113.0/24")
    good.originate(customer_prefix)
    engine.run_until(120.0)
    sink.clear()  # measure steady state, as the paper did
    for i in range(5):
        engine.schedule(i * 90.0, good.flap_origin, customer_prefix, 10.0)
    engine.run_until(700.0)

    # Classify everything the route server observed.
    records = sink.sorted_by_time()
    codes, policy = classify_columns(RecordColumns.from_records(records))
    counts = CategoryCounts.from_codes(codes, policy)
    print("Updates observed at the route server:")
    for record, category in zip(records, decode_categories(codes)):
        print(
            f"  t={record.time:7.2f}s  AS{record.peer_asn}  "
            f"{record.kind.name:8s} {record.prefix}  "
            f"-> {category.name}"
        )
    print()
    print("Taxonomy breakdown:")
    for name, value in counts.as_dict().items():
        if value:
            print(f"  {name:15s} {value}")
    print()
    print(f"instability events:   {counts.instability}")
    print(f"pathological events:  {counts.pathological}")
    print(f"pathological share:   {counts.pathological_fraction:.0%}")
    print()
    print(
        "The stateless provider (AS200) forwards the flaps and also "
        "withdraws routes it never announced - the paper's WWDup "
        "pathology, visible above."
    )


if __name__ == "__main__":
    main()
