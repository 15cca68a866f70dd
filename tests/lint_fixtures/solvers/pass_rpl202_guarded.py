"""Clean solver code: capacity is claimed as one all-or-nothing Reservation."""

from repro.network.reservations import Reservation


def try_candidate(state, path, rate, cost):
    reservation = Reservation(
        vnf={}, links={edge: rate for edge in path.edges()}, cost=cost
    )
    reservation.claim(state)
    return reservation


def move_reservation(state, old, new):
    old.unclaim(state)
    new.claim(state)
