#!/usr/bin/env python3
"""Storm forensics: detect a route-flap storm from session logs.

Ignites a flap storm in the event simulator (slow-CPU routers, short
hold timers, a burst of customer flaps), collects the session-state
transitions the way a Routing Arbiter collector would, archives them
as RFC 6396 BGP4MP_ET STATE_CHANGE records, and runs the storm detector
over the re-read archive — the full forensic loop.

Run:  python examples/storm_forensics.py
"""

import io

from repro.analysis.storms import detect_storms, flap_rate_series
from repro.collector.mrt import read_state_changes, write_state_changes
from repro.collector.record import SessionEvent
from repro.sim.engine import Engine
from repro.sim.flapstorm import FlapStormScenario
from repro.sim.router import CpuModel


def main() -> None:
    print("Igniting a storm (5 slow routers, 600 flaps over 20s)...")
    scenario = FlapStormScenario(
        Engine(),
        n_routers=5,
        prefixes_per_router=40,
        cpu=CpuModel(per_update=0.1, per_sent_update=0.05,
                     per_dump_route=0.05),
        hold_time=30.0,
        seed=1,
    )
    result = scenario.storm(flaps=600, over_seconds=20.0)
    print(f"  session losses: {result.session_drops}")
    print(f"  updates sent:   {result.total_updates_sent:,}")
    print()

    # Build the session-event log (per-router FSM histories are what a
    # collector peering with each router would have seen).
    events = []
    for router in scenario.routers:
        for peer_id, session in router.sessions.items():
            for transition in session.fsm.history:
                if (
                    transition.before.name == "ESTABLISHED"
                    and transition.after.name != "ESTABLISHED"
                ):
                    events.append(
                        SessionEvent(
                            transition.time, router.router_id,
                            router.asn, "ESTABLISHED", "IDLE",
                        )
                    )

    # Archive and re-read (RFC 6396 BGP4MP_ET STATE_CHANGE).
    buffer = io.BytesIO()
    count = write_state_changes(buffer, events)
    buffer.seek(0)
    replayed = list(read_state_changes(buffer))
    print(f"Archived and re-read {count} state changes "
          f"({len(buffer.getvalue())} bytes).")
    print()

    # Detect.
    storms = detect_storms(replayed, quiet_gap=120.0)
    print(f"Detected {len(storms)} storm episode(s):")
    for i, storm in enumerate(storms, 1):
        print(
            f"  storm {i}: {storm.losses} session losses across "
            f"{storm.spread} routers over {storm.duration:.0f}s "
            f"(t={storm.start:.0f}..{storm.end:.0f})"
        )
    series = flap_rate_series(replayed, bin_width=60.0)
    peak = max(series) if series else 0
    print(f"  peak loss rate: {peak} sessions/minute")
    print()
    print(
        "The paper (section 3): failing routers are marked down by "
        "peers, withdrawals and re-peering dumps spread the load, and "
        "'several route flap storms in the past year have caused "
        "extended outages for several million network customers.'"
    )


if __name__ == "__main__":
    main()
