"""Microbenchmarks of the hot data structures and codecs.

Unlike the per-figure benchmarks (which run once and verify shape
checks), these use pytest-benchmark's statistical repetition to track
the throughput of the primitives every experiment leans on: radix
longest-prefix match, the classifier, the RFC 4271 codec, the damping
penalty update, and the BGP decision process.

Run with::

    pytest benchmarks/bench_micro.py --benchmark-only
"""

import io
import random

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.damping import RouteFlapDamper
from repro.bgp.messages import UpdateMessage
from repro.bgp.rib import Route, best_route
from repro.bgp.wire import decode_message, encode_message
from repro.collector.record import UpdateKind, UpdateRecord
from repro.core.columns import ColumnClassifier, RecordColumns
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree


def _prefix_pool(n, seed=1):
    rng = random.Random(seed)
    pool = []
    for _ in range(n):
        length = rng.choice((8, 12, 16, 20, 24))
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        pool.append(Prefix(rng.randrange(0, 1 << 32) & mask, length))
    return pool


def test_radix_longest_prefix_match(benchmark):
    tree = RadixTree()
    for prefix in _prefix_pool(10000, seed=2):
        tree[prefix] = prefix.network
    queries = _prefix_pool(1000, seed=3)

    def run():
        hits = 0
        for query in queries:
            if tree.lookup_best(query) is not None:
                hits += 1
        return hits

    benchmark(run)


def test_radix_insert_delete(benchmark):
    pool = _prefix_pool(2000, seed=4)

    def run():
        tree = RadixTree()
        for prefix in pool:
            tree[prefix] = 1
        for prefix in pool:
            tree.delete(prefix)
        return len(tree)

    assert benchmark(run) == 0


def test_classifier_throughput(benchmark):
    pool = _prefix_pool(500, seed=5)
    rng = random.Random(6)
    attrs = PathAttributes(as_path=AsPath((701, 3561)), next_hop=1)
    records = []
    for i in range(10000):
        prefix = rng.choice(pool)
        if rng.random() < 0.5:
            records.append(
                UpdateRecord(float(i), 1, 701, prefix,
                             UpdateKind.ANNOUNCE, attrs)
            )
        else:
            records.append(
                UpdateRecord(float(i), 1, 701, prefix, UpdateKind.WITHDRAW)
            )

    columns = RecordColumns.from_records(records)

    def run():
        classifier = ColumnClassifier()
        classifier.classify(columns)
        return classifier.tracked_routes()

    benchmark(run)


def test_wire_codec_roundtrip(benchmark):
    message = UpdateMessage(
        announced=tuple(_prefix_pool(20, seed=7)[:20]),
        attributes=PathAttributes(
            as_path=AsPath((701, 1239, 3561)), next_hop=0x0A000001,
            med=10, communities=frozenset({1, 2, 3}),
        ),
    )

    def run():
        data = encode_message(message)
        decoded, _ = decode_message(data)
        return len(data)

    benchmark(run)


def test_damping_penalty_updates(benchmark):
    pool = _prefix_pool(200, seed=8)
    rng = random.Random(9)
    events = [
        (rng.choice(pool), rng.uniform(0, 86400.0)) for _ in range(5000)
    ]
    events.sort(key=lambda e: e[1])

    def run():
        damper = RouteFlapDamper()
        for prefix, when in events:
            damper.on_withdrawal(prefix, 1, when)
        return damper.total_flaps

    benchmark(run)


def test_decision_process(benchmark):
    rng = random.Random(10)
    prefix = Prefix.parse("10.0.0.0/8")
    candidates = [
        Route(
            prefix,
            PathAttributes(
                as_path=AsPath(
                    tuple(
                        rng.randrange(1, 65000)
                        for _ in range(rng.randrange(1, 6))
                    )
                ),
                next_hop=i,
                med=rng.choice((None, 10, 20)),
            ),
            i + 1,
        )
        for i in range(30)
    ]

    def run():
        return best_route(candidates)

    benchmark(run)
