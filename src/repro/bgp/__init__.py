"""BGP protocol substrate: attributes, messages, wire codec, FSM, RIBs,
policy, and route-flap damping."""
