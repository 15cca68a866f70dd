"""RPL601-clean fixture: transport code reaching domain logic via the engine."""

from repro.engine import EmbeddingEngine, ReservationLedger, ShardTick, restore_shards
from repro.network.cloud import CloudNetwork


def build(network: CloudNetwork) -> tuple[object, object, object, object]:
    return EmbeddingEngine, ReservationLedger, ShardTick, restore_shards
