"""Retired-RPL213 pass fixture: migrations, departures and admissions go
through the engine's effect path, so RPL212 has nothing to flag."""


def move_embedding(engine, request_id, result):
    return engine.migrate(request_id, result)


def depart(engine, request_id):
    engine.release(request_id)


def admit(engine, request, result):
    return engine.commit(request, result)
