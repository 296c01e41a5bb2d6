"""Scenario files: declarative host/path/policy descriptions for the simulator.

INI syntax (configparser).  Example::

    [sim]
    seed = 42
    duration_s = 600
    default_delay_ms = 10

    [client c1]
    addr = 10.0.0.2
    ipid_mode = global
    background_rate = 0.0
    rst_policy = yes

    [server relay1]
    addr = 203.0.113.5
    ports = 9001, 9030
    backlog_capacity = 256
    max_retransmissions = 5
    backoff_s = 1, 2, 4, 8, 16

    [path c1 relay1]
    hops = 10.1.0.1, 10.9.0.1@CN, 10.9.0.2@CN
    delay_ms = 30
    loss_rate = 0.0
    filtered = yes

    [rule drop-tor]
    direction = server->client
    addr = 203.0.113.5
    port = 9001
    action = drop
    placement_hop = 2
    hours = *

    [defaults]
    client_background_rate = 0.5
    path_hops = 10.9.0.1, 10.9.0.2@CN
    path_filtered = yes

Hops are listed from the first-named path endpoint toward the second; a
rule's placement_hop refers to that listed index in either travel
direction.  ``hours`` is ``*`` (always), a 24-character 0/1 mask, or hours
and ascending hour ranges from 0 to 23 like ``0-1,11-23``.

``[defaults]`` sets up CSV endpoints the file does not declare, with
``client_ipid_mode``, ``client_background_rate``,
``server_backlog_capacity`` and ``server_max_retransmissions``.  Its
``path_hops``, ``path_delay_ms`` (default ``default_delay_ms``),
``path_loss_rate`` and ``path_filtered`` give one path that applies lazily
to every client<->server pair without a ``[path]``, hops listed from the
client.  Every section rejects a key it does not know (``SECTION_KEYS``).
Every address, hop and rule addresses included, must be a canonical dotted
quad, every port must lie in 0-65535, and every delay and background rate,
hop delays included, must be a finite number >= 0; a bad value raises
ScenarioError naming its section.

A client's ``background_rate`` is a Poisson rate of packets to hosts outside
the model, each advancing its IP-ID.  A client that nothing has reached for
60 s goes dormant (``simnet.DORMANT_AFTER_NS``); the next delivery counts
the dormant span's noise in one Poisson draw, so a client probed at least
once a minute keeps its exact per-packet stream.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Optional

from .endpoints import _check_port
from .simnet import IPID_MODES, FilterRule, Hop, Simulator
from .transport import NS_PER_SEC, _check_addr


class ScenarioError(ValueError):
    pass


@dataclass
class HostDecl:
    kind: str  # client | server | monitor
    name: str
    addr: str
    options: dict = field(default_factory=dict)


@dataclass
class PathDecl:
    a: str = ""  # host names; empty for the [defaults] client<->server path
    b: str = ""
    hops: list = field(default_factory=list)
    delay_ns: Optional[int] = None
    loss_rate: float = 0.0
    filtered: bool = False


@dataclass
class Scenario:
    seed: int = 0
    duration_ns: int = 0
    default_delay_ns: int = 10_000_000
    hour0: int = 0
    hosts: list = field(default_factory=list)
    paths: list = field(default_factory=list)
    rules: list = field(default_factory=list)
    # From [defaults]: options of CSV endpoints the file does not declare,
    # and the path of client<->server pairs without a [path] section.
    client_options: dict = field(default_factory=dict)
    server_options: dict = field(default_factory=dict)
    client_server_path: PathDecl = field(default_factory=PathDecl)

    def host_addr(self, name: str) -> str:
        for h in self.hosts:
            if h.name == name:
                return h.addr
        raise ScenarioError(f"unknown host name: {name}")

    def build(self, seed: Optional[int] = None, trace=None, clients=(),
              servers=()) -> Simulator:
        """A simulator of the declared hosts, paths and rules, plus the
        ``clients`` and ``servers`` endpoints (CSV lists) the file does not
        declare, added in that order with the [defaults] options."""
        sim = Simulator(seed=self.seed if seed is None else seed,
                        default_delay_ns=self.default_delay_ns,
                        hour0=self.hour0, trace=trace)
        for h in self.hosts:
            if h.kind == "client":
                sim.add_client(h.addr, **h.options)
            elif h.kind == "server":
                sim.add_server(h.addr, **h.options)
            else:
                sim.add_monitor(h.addr)
        for p in self.paths:
            sim.add_path(self.host_addr(p.a), self.host_addr(p.b), hops=p.hops,
                         delay_ns=p.delay_ns, loss_rate=p.loss_rate,
                         filtered=p.filtered)
        sim.policy.rules.extend(self.rules)
        path = self.client_server_path
        sim.set_client_server_path(path.hops, path.delay_ns, path.loss_rate,
                                   path.filtered)
        for ep in clients:
            if ep.addr not in sim.hosts:
                sim.add_client(ep.addr, **self.client_options)
        for ep in servers:
            if ep.addr not in sim.hosts:
                sim.add_server(ep.addr, open_ports=[ep.port], **self.server_options)
        return sim


def parse_hours(text: str) -> Optional[tuple]:
    """Hour-of-day mask from ``*``, 24 binary digits, or a list of hours
    and ranges such as ``0-5,22-23``; hours run from 0 to 23."""
    text = text.strip()
    if text in ("*", ""):
        return None
    if len(text) == 24 and set(text) <= {"0", "1"}:
        return tuple(c == "1" for c in text)
    mask = [False] * 24
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo = int(lo)
        hi = int(hi) if hi.strip() else lo
        if not 0 <= lo <= hi <= 23:
            raise ScenarioError(f"bad hours {part.strip()!r}: hours run 0-23")
        for h in range(lo, hi + 1):
            mask[h] = True
    return tuple(mask)


def _finite(text: str) -> float:
    """``text`` as a finite float >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:  # NaN fails too
        raise ValueError(f"{text.strip()!r} is not a finite number >= 0")
    return value


def _get_finite(sec, key: str, default=None):
    """``sec[key]`` as by :func:`_finite`, or ``default`` when it is absent;
    a bad value raises ScenarioError naming the key."""
    if key not in sec:
        return default
    try:
        return _finite(sec[key])
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}") from None


def _parse_hops(text: str, key: str) -> list:
    hops = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split("@")
        addr = parts[0]
        region = parts[1] if len(parts) > 1 else ""
        delay = None
        if len(parts) > 2:
            try:
                delay = int(_finite(parts[2]) * 1e6)
            except ValueError as exc:
                raise ScenarioError(f"{key}: hop delay {exc}") from None
        hops.append(Hop(addr=_check_addr(addr), region=region, delay_ns=delay))
    return hops


def _path_decl(sec, prefix: str = "", a: str = "", b: str = "") -> PathDecl:
    """A [path] section's keys, or the [defaults] ones under ``path_``."""
    delay_ms = _get_finite(sec, prefix + "delay_ms")
    return PathDecl(
        a=a, b=b, hops=_parse_hops(sec.get(prefix + "hops", ""),
                                   prefix + "hops"),
        delay_ns=None if delay_ms is None else int(delay_ms * 1e6),
        loss_rate=sec.getfloat(prefix + "loss_rate", 0.0),
        filtered=sec.getboolean(prefix + "filtered", False),
    )


# [defaults] endpoint key -> (host kind, add_client/add_server keyword, parser)
ENDPOINT_DEFAULTS = {
    "client_ipid_mode": ("client", "ipid_mode", str),
    "client_background_rate": ("client", "background_rate", _finite),
    "server_backlog_capacity": ("server", "backlog_capacity", int),
    "server_max_retransmissions": ("server", "max_retransmissions", int),
}
PATH_DEFAULTS = ("path_hops", "path_delay_ms", "path_loss_rate", "path_filtered")

# The keys each section kind accepts; any other key is an error.
SECTION_KEYS = {
    "sim": {"seed", "duration_s", "default_delay_ms", "hour0"},
    "defaults": {*ENDPOINT_DEFAULTS, *PATH_DEFAULTS},
    "client": {"addr", "ipid_mode", "ipid_start", "background_rate",
               "rst_policy"},
    "server": {"addr", "ports", "backlog_capacity", "max_retransmissions",
               "backoff_s", "down_s"},
    "monitor": {"addr"},
    "path": {"hops", "delay_ms", "loss_rate", "filtered"},
    "rule": {"direction", "addr", "port", "action", "placement_hop", "hours",
             "flags"},
}


def _load_defaults(scn: Scenario, sec) -> None:
    options = {"client": scn.client_options, "server": scn.server_options}
    for key, text in sec.items():
        if key in ENDPOINT_DEFAULTS:
            kind, name, parse = ENDPOINT_DEFAULTS[key]
            try:
                options[kind][name] = parse(text)
            except ValueError as exc:
                raise ScenarioError(f"{key}: {exc}") from None
    if scn.client_options.get("ipid_mode", "global") not in IPID_MODES:
        raise ScenarioError(f"bad client_ipid_mode: {sec['client_ipid_mode']}")
    scn.client_server_path = _path_decl(sec, prefix="path_")


def _floats(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip()]


def _intervals_ns(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        if not sep:
            raise ScenarioError(f"bad interval {part!r}: want start-end")
        out.append((int(float(lo) * NS_PER_SEC), int(float(hi) * NS_PER_SEC)))
    return out


def loads(text: str) -> Scenario:
    """Parse a scenario file's text; a malformed file raises ScenarioError,
    naming the section when one is at fault."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
        scn = Scenario()
        for section in cp.sections():
            try:
                _load_section(scn, section, cp[section])
            except (ValueError, configparser.Error) as exc:
                raise ScenarioError(f"[{section}] {_one_line(exc)}") from exc
    except configparser.Error as exc:
        raise ScenarioError(_one_line(exc)) from exc
    return scn


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())  # configparser's messages span lines


def _load_section(scn: Scenario, section: str, sec) -> None:
    words = section.split() or [""]
    kind = words[0]
    if kind in SECTION_KEYS:
        for key in sec:
            if key not in SECTION_KEYS[kind]:
                raise ScenarioError(f"unknown key: {key}")
    if section == "sim":
        scn.seed = sec.getint("seed", 0)
        scn.duration_ns = int(sec.getfloat("duration_s", 0.0) * NS_PER_SEC)
        scn.default_delay_ns = int(_get_finite(sec, "default_delay_ms", 10.0)
                                   * 1e6)
        scn.hour0 = sec.getint("hour0", 0)
    elif section == "defaults":
        _load_defaults(scn, sec)
    elif kind in ("client", "server", "monitor"):
        if len(words) != 2:
            raise ScenarioError("bad host section name")
        addr = sec.get("addr")
        if not addr:
            raise ScenarioError("missing addr")
        _check_addr(addr)
        for other in scn.hosts:
            if other.addr == addr:
                raise ScenarioError(
                    f"addr {addr} already held by [{other.kind} {other.name}]")
        options: dict = {}
        if kind == "client":
            options["ipid_mode"] = sec.get("ipid_mode", "global")
            if "ipid_start" in sec:
                options["ipid_start"] = sec.getint("ipid_start")
            options["background_rate"] = _get_finite(sec, "background_rate",
                                                     0.0)
            options["rst_policy"] = sec.getboolean("rst_policy", True)
        elif kind == "server":
            ports = [_check_port(int(p)) for p in sec.get("ports", "").split(",")
                     if p.strip()]
            options["open_ports"] = ports
            options["backlog_capacity"] = sec.getint("backlog_capacity", 256)
            options["max_retransmissions"] = sec.getint("max_retransmissions", 5)
            if "backoff_s" in sec:
                options["backoff_s"] = _floats(sec["backoff_s"])
            if "down_s" in sec:
                options["down_intervals"] = _intervals_ns(sec["down_s"])
        scn.hosts.append(HostDecl(kind=kind, name=words[1], addr=addr,
                                  options=options))
    elif kind == "path":
        if len(words) != 3:
            raise ScenarioError("bad path section name")
        scn.paths.append(_path_decl(sec, a=words[1], b=words[2]))
    elif kind == "rule":
        if len(words) != 2:
            raise ScenarioError("bad rule section name")
        flags_text = sec.get("flags", "").strip()
        scn.rules.append(FilterRule(
            name=words[1],
            direction=sec.get("direction", "server->client"),
            addr=_check_addr(sec["addr"]) if sec.get("addr") else None,
            port=_check_port(sec.getint("port")) if "port" in sec else None,
            action=sec.get("action", "drop"),
            placement_hop=sec.getint("placement_hop", 1),
            hours=parse_hours(sec.get("hours", "*")),
            flags=(frozenset(f.strip().upper() for f in flags_text.split(","))
                   if flags_text else None),
        ))
    else:
        raise ScenarioError("unknown section kind")


def load(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
