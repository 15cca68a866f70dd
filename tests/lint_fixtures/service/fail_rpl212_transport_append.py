"""RPL212 fixture: transport code bypassing the engine's effect path (three hits).

Two direct WAL appends and a bare ledger release.
"""


def handle_submit(server, decision):
    server.wal.append_record("commit", {"request_id": decision.request_id})


def handle_release(writer, request_id):
    writer.append_record("release", {"request_id": request_id})


def depart(engine_ledger, request_id):
    return engine_ledger.release(request_id)
