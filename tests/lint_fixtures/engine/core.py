"""RPL212 pass fixture: the engine core is the sanctioned effect path."""


def commit(engine, decision, reservation):
    engine.ledger.reserve(decision.request_id, reservation)
    if engine.wal is not None:
        engine.wal.append_record("commit", {"request_id": decision.request_id})


def release(engine, request_id):
    engine.ledger.release(request_id)
