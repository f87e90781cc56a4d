"""Internet-shaped topologies: AS graphs, exchange points, multi-homing
growth, and assembled core-Internet scenarios."""

from .asgraph import AsGraph, AsNode, Tier, build_internet_graph
from .exchange import EXCHANGE_POINTS, ExchangeInfo, ExchangePoint, exchange_by_name
from .multihoming import MultihomingGrowthModel, MultihomingSeries
from .internet import CoreInternetScenario
from .multiexchange import BackboneProvider, MultiExchangeScenario

__all__ = [
    "AsGraph",
    "AsNode",
    "Tier",
    "build_internet_graph",
    "EXCHANGE_POINTS",
    "ExchangeInfo",
    "ExchangePoint",
    "exchange_by_name",
    "MultihomingGrowthModel",
    "MultihomingSeries",
    "CoreInternetScenario",
    "BackboneProvider",
    "MultiExchangeScenario",
]
