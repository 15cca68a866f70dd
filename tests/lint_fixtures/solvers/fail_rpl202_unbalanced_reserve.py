"""RPL212 (absorbed RPL202): per-element reserves outside the state and the
ledger leak a partial claim when a later element does not fit."""


def commit_candidate(state, path, rate):
    for u, v in path.edges():
        state.reserve_link(u, v, rate)
    return state
