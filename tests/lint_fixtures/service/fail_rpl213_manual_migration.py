"""Retired-RPL213 fixture: hand-rolled ledger migrations outside the engine.

RPL212 now catches these — every ledger reserve/release outside the effect
path is one hit (four hits).
"""


def move_embedding(server, request_id, replacement):
    old = server.engine.ledger.release(request_id)
    try:
        server.engine.ledger.reserve(request_id, replacement)
    except Exception:
        return old


async def defrag_one(shard, request_id, reservation):
    shard.ledger.release(request_id)
    shard.ledger.reserve(request_id, reservation)
