from __future__ import annotations

import pytest

from inferscan.endpoints import EndpointSpec
from inferscan.simnet import FilterRule, Hop, Simulator

CLIENT_ADDR = "36.10.0.5"
SERVER_ADDR = "203.0.113.5"
MM_ADDR = "198.51.100.9"
VPS_ADDR = "100.64.0.2"

CLIENT_EP = EndpointSpec(CLIENT_ADDR, 0, "client", lat=30.5, lon=114.3)
SERVER_EP = EndpointSpec(SERVER_ADDR, 9001, "tor-relay", lat=59.3, lon=18.1,
                         uptime_days=12.0)


def build_idle_sim(policy: str, seed: int = 9, noise: float = 0.0,
                   loss: float = 0.0, max_rt: int = 5,
                   client_kwargs: dict | None = None,
                   trace=None) -> Simulator:
    """Client/server pair on a two-hop filtered path plus a clean MM link.

    policy: "s2c" drops server SYN/ACKs toward the client, "c2s" drops the
    client's packets toward the server, "none" filters nothing.
    """
    sim = Simulator(seed=seed, trace=trace)
    kwargs = {"ipid_start": 500, "background_rate": noise}
    kwargs.update(client_kwargs or {})
    sim.add_client(CLIENT_ADDR, **kwargs)
    backoff = (1, 2, 4, 8, 16, 32)[:max(5, max_rt)]
    sim.add_server(SERVER_ADDR, open_ports=[9001], max_retransmissions=max_rt,
                   backoff_s=backoff)
    hops = [Hop("10.9.0.1"), Hop("10.9.0.2", region="CN"),
            Hop("10.9.0.3", region="CN")]
    sim.add_path(CLIENT_ADDR, SERVER_ADDR, hops=hops, delay_ns=20_000_000,
                 filtered=True, loss_rate=loss)
    sim.add_path(MM_ADDR, CLIENT_ADDR, delay_ns=15_000_000, loss_rate=loss)
    if policy == "s2c":
        sim.policy.rules.append(FilterRule(
            "blk", "server->client", addr=SERVER_ADDR, port=9001,
            placement_hop=2))
    elif policy == "c2s":
        sim.policy.rules.append(FilterRule(
            "blk", "client->server", addr=SERVER_ADDR, port=9001,
            placement_hop=2))
    elif policy != "none":
        raise ValueError(policy)
    return sim


def build_backlog_sim(drop_syn: bool, drop_rst: bool, seed: int = 5,
                      loss: float = 0.0, trace=None,
                      vps_loss: float | None = None) -> Simulator:
    """Relay behind a firewall on the VPS link.

    ``loss`` applies to both links; ``vps_loss``, when given, replaces it on
    the VPS link alone.
    """
    sim = Simulator(seed=seed, trace=trace)
    sim.add_server(SERVER_ADDR, open_ports=[9001])
    hops = [Hop("10.9.0.1"), Hop("10.9.0.2", region="CN")]
    sim.add_path(VPS_ADDR, SERVER_ADDR, hops=hops, delay_ns=20_000_000,
                 filtered=True, loss_rate=loss if vps_loss is None else vps_loss)
    sim.add_path(MM_ADDR, SERVER_ADDR, delay_ns=15_000_000, loss_rate=loss)
    if drop_syn:
        sim.policy.rules.append(FilterRule(
            "drop-syn", "client->server", addr=SERVER_ADDR, port=9001,
            placement_hop=2, flags=frozenset(["SYN"])))
    if drop_rst:
        sim.policy.rules.append(FilterRule(
            "drop-rst", "client->server", addr=SERVER_ADDR, port=9001,
            placement_hop=2, flags=frozenset(["RST"])))
    return sim


@pytest.fixture
def idle_sim_none():
    return build_idle_sim("none")
