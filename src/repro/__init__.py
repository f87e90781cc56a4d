"""repro: a reproduction of "Internet Routing Instability"
(Labovitz, Malan, Jahanian; SIGCOMM 1997).

The package provides, from the bottom up:

- :mod:`repro.net` — IP prefixes and address allocation;
- :mod:`repro.bgp` — the BGP-4 protocol substrate (messages, wire
  codec, FSM, RIBs, policy, route-flap damping);
- :mod:`repro.sim` — a discrete-event simulator with the paper's §4.2
  pathology mechanisms (stateless BGP, unjittered timers, CSU links,
  IGP redistribution loops, flap storms, self-synchronization);
- :mod:`repro.topology` — Internet-shaped AS graphs and the five
  measured exchange points;
- :mod:`repro.collector` — the Routing Arbiter-style measurement
  apparatus (update records, RFC 6396 MRT archives);
- :mod:`repro.workloads` — the calibrated statistical generator for
  month-scale campaigns;
- :mod:`repro.analysis` — the paper's analyses (classification,
  density, FFT/MEM/SSA spectra, inter-arrival histograms, ...);
- :mod:`repro.core` — the update taxonomy and the columnar classifier
  (the paper's primary analytical contribution);
- :mod:`repro.experiments` — one runner per paper table and figure.

Quick start::

    from repro.core.columns import classify_columns
    from repro.core.instability import CategoryCounts
    from repro.workloads.generator import TraceGenerator

    generator = TraceGenerator(seed=1)
    columns = generator.day_columns(0, pair_fraction=0.01)
    counts = CategoryCounts.from_codes(*classify_columns(columns))
    print(counts.as_dict(), counts.pathological_fraction)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
