"""Internet-shaped topologies: AS graphs, exchange points and
multi-homing growth."""
