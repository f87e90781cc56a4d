"""Internet-shaped topologies: AS graphs, exchange points, multi-homing
growth, and assembled core-Internet scenarios."""
