"""RPL212: in-place view mutators called outside network/state.py — on the
base network they corrupt every later residual view build."""


def shrink_after_commit(engine, reservation):
    for (u, v), amount in reservation.links.items():
        link = engine.network.graph.link(u, v)
        engine.network.graph.resize_link(u, v, link.capacity - amount)
    for (node, vnf_type), amount in reservation.vnf.items():
        inst = engine.network.deployments.instance(node, vnf_type)
        engine.network.deployments.resize_instance(node, vnf_type, inst.capacity - amount)
