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

README.md's key reference lists every key with its range and default;
the tables below (``SECTIONS``) are what the loader reads.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .simnet import (
    DEFAULT_BACKLOG_CAPACITY,
    DEFAULT_BACKOFF_S,
    DEFAULT_DELAY_NS,
    DEFAULT_MAX_RETRANSMISSIONS,
    DROP,
    IPID_MODES,
    PASS,
    FilterRule,
    Hop,
    Simulator,
)
from .transport import FLAG_BITS, NS_PER_SEC, check_addr


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
    hops: tuple = ()
    delay_ns: Optional[int] = None
    loss_rate: float = 0.0
    filtered: bool = False


@dataclass
class Scenario:
    seed: int  # the [sim] keys, defaults in SIM
    duration_ns: int
    default_delay_ns: int
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
                        default_delay_ns=self.default_delay_ns, trace=trace)
        for h in self.hosts:
            getattr(sim, "add_" + h.kind)(h.addr, **h.options)
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


class Key(NamedTuple):
    """How a section reads one key.

    ``parse`` turns the key's text, or each comma-separated item of it when
    ``many``, into a value that must lie in ``allowed``: a ``(lo, hi)`` pair
    of inclusive bounds, infinity excluded, or a set of choices; None allows
    whatever ``parse`` returns.  The value (the tuple of item values when
    ``many``), times ``scale`` and truncated when a scale is given, goes to
    the argument ``keyword``.  An absent key, or a list of no items, gives
    ``default``.
    """

    keyword: str
    parse: Callable = str
    allowed: object = None
    default: object = None
    many: bool = False
    scale: Optional[float] = None


AT_LEAST_0 = (0, math.inf)
AT_LEAST_1 = (1, math.inf)
UINT16 = (0, 0xFFFF)


def read_section(table: dict, sec) -> dict:
    """``sec``'s keys read by ``table``: each entry's keyword and value, the
    default for an absent key.  An unknown key or a bad value raises a
    ScenarioError ``key: ...``."""
    for key in sec:
        if key not in table:
            raise ScenarioError(f"unknown key: {key}")
    return {k.keyword: _read(key, k, sec[key]) if key in sec else k.default
            for key, k in table.items()}


def _read(key: str, k: Key, text: str):
    if not k.many:
        return read_value(key, k, text)
    items = [item.strip() for item in text.split(",")]
    values = tuple(read_value(key, k, item) for item in items if item)
    return values or k.default


def read_value(key: str, k: Key, text: str):
    """``text`` read by ``k``: its parsed value, checked and scaled.  A bad
    value raises a ScenarioError ``key: ...``."""
    try:
        value = k.parse(text)
        if k.allowed is None or _allows(k.allowed, value):
            return value if k.scale is None else int(value * k.scale)
    except ValueError as exc:
        if k.allowed is None:
            raise ScenarioError(f"{key}: {exc}") from None
    raise ScenarioError(f"{key}: {text!r} is not {_describe(k)}")


def _allows(allowed, value) -> bool:
    if isinstance(allowed, tuple):
        return allowed[0] <= value <= allowed[1] and value != math.inf
    return value in allowed


def _describe(k: Key) -> str:
    """The values ``k`` allows, as in 'an integer >= 1'."""
    if not isinstance(k.allowed, tuple):
        return "one of " + ", ".join(sorted(k.allowed))
    lo, hi = k.allowed
    noun = "an integer" if k.parse is integer else "a finite number"
    return f"{noun} >= {lo}" if hi == math.inf else f"{noun} from {lo} to {hi}"


_INTEGER = re.compile(r"-?[0-9]+")
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def integer(text: str) -> int:
    """ASCII digits with an optional leading ``-``.  Python's ``int`` would
    also take ``9_001``, ``+9001``, `` 9001`` and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def number(text: str) -> float:
    """ASCII decimal: an optional ``-``, digits, an optional fraction and an
    optional exponent.  Python's ``float`` would also take ``1_0``, ``+1``,
    ``inf`` and ``nan``."""
    if not _NUMBER.fullmatch(text):
        raise ValueError(f"{text!r} is not a number")
    return float(text)


def parse_hours(text: str) -> Optional[tuple]:
    """Hour-of-day mask from ``*``, 24 binary digits, or a list of hours
    and ascending ranges such as ``0-5,22-23``; hours run from 0 to 23."""
    text = text.strip()
    if text in ("*", ""):
        return None
    if len(text) == 24 and set(text) <= {"0", "1"}:
        return tuple(c == "1" for c in text)
    hours = set()
    for part in text.split(","):
        lo, _, hi = (end.strip() for end in part.partition("-"))
        try:
            lo = integer(lo)
            hi = integer(hi) if hi else lo
        except ValueError:
            lo = hi = -1
        if not 0 <= lo <= hi <= 23:
            raise ValueError(f"{text!r} is not *, 24 binary digits or hours "
                             "and ascending ranges 0-23 such as 0-1,11-23")
        hours.update(range(lo, hi + 1))
    return tuple(h in hours for h in range(24))


def boolean(text: str) -> bool:
    """configparser's booleans: 1, yes, true, on and 0, no, false, off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a boolean") from None


def _hop(text: str) -> Hop:
    """``addr[@region[@delay_ms]]``."""
    addr, region, delay, *rest = text.split("@") + ["", ""]
    if any(rest):
        raise ValueError(f"{text!r} is not addr[@region[@delay_ms]]")
    return Hop(addr=check_addr(addr), region=region,
               delay_ns=read_value("hop delay", PATH["delay_ms"], delay)
               if delay else None)


def _interval(text: str) -> tuple:
    """``start-end`` seconds as a pair of ns, 0 <= start < end."""
    start, _, end = (side.strip() for side in text.partition("-"))
    try:
        start, end = number(start), number(end)
    except ValueError:
        start = end = math.nan
    if not 0 <= start < end < math.inf:
        raise ValueError(f"{text!r} is not an interval start-end with "
                         "0 <= start < end")
    return int(start * NS_PER_SEC), int(end * NS_PER_SEC)


ADDR = Key("addr", check_addr)
PORT = Key("port", integer, UINT16)
SIM = {
    "seed": Key("seed", integer, None, 0),
    "duration_s": Key("duration_ns", number, AT_LEAST_0, 0, scale=NS_PER_SEC),
    "default_delay_ms": Key("default_delay_ns", number, AT_LEAST_0,
                            DEFAULT_DELAY_NS, scale=1e6),
}
CLIENT = {
    "addr": ADDR,
    "ipid_mode": Key("ipid_mode", str, set(IPID_MODES), "global"),
    "ipid_start": Key("ipid_start", integer, UINT16),
    "background_rate": Key("background_rate", number, AT_LEAST_0, 0.0),
    "rst_policy": Key("rst_policy", boolean, None, True),
}
SERVER = {
    "addr": ADDR,
    "ports": PORT._replace(keyword="open_ports", default=(), many=True),
    "backlog_capacity": Key("backlog_capacity", integer, AT_LEAST_1,
                            DEFAULT_BACKLOG_CAPACITY),
    "max_retransmissions": Key("max_retransmissions", integer, AT_LEAST_0,
                               DEFAULT_MAX_RETRANSMISSIONS),
    "backoff_s": Key("backoff_s", number, AT_LEAST_0, DEFAULT_BACKOFF_S,
                     many=True),
    "down_s": Key("down_intervals", _interval, None, (), many=True),
}
PATH = {
    "hops": Key("hops", _hop, None, (), many=True),
    "delay_ms": Key("delay_ns", number, AT_LEAST_0, scale=1e6),
    "loss_rate": Key("loss_rate", number, (0, 1), 0.0),
    "filtered": Key("filtered", boolean, None, False),
}
RULE = {
    "direction": Key("direction", str, {"server->client", "client->server"},
                     "server->client"),
    "addr": Key("addr", lambda text: check_addr(text) if text else None),
    "port": PORT,
    "action": Key("action", str, {DROP, PASS}, DROP),
    "placement_hop": Key("placement_hop", integer, AT_LEAST_1, 1),
    "hours": Key("hours", parse_hours),
    "flags": Key("flags", str.upper, set(FLAG_BITS), many=True),
}
# [defaults] gives CSV endpoints and client<->server pairs the file does not
# declare some keys of their section kind, each under the kind's prefix; an
# entry's keyword is (kind, keyword) so the loader can sort the values.
DEFAULTS = {
    f"{kind}_{key}": k._replace(keyword=(kind, k.keyword))
    for kind, table, keys in (
        ("client", CLIENT, ("ipid_mode", "background_rate")),
        ("server", SERVER, ("backlog_capacity", "max_retransmissions")),
        ("path", PATH, PATH))
    for key, k in table.items() if key in keys
}
# Section kind -> (key table, number of names after the kind).
SECTIONS = {"sim": (SIM, 0), "defaults": (DEFAULTS, 0), "client": (CLIENT, 1),
            "server": (SERVER, 1), "monitor": ({"addr": ADDR}, 1),
            "path": (PATH, 2), "rule": (RULE, 1)}


def loads(text: str) -> Scenario:
    """Parse a scenario file's text; a malformed file raises ScenarioError,
    naming the section when one is at fault."""
    cp = ini_parser()
    try:
        cp.read_string(text)
        scn = Scenario(**read_section(SIM, {}))
        for section in cp.sections():
            try:
                _load_section(scn, section, cp[section])
            except (ValueError, configparser.Error) as exc:
                raise ScenarioError(f"[{section}] {_one_line(exc)}") from exc
    except configparser.Error as exc:
        raise ScenarioError(_one_line(exc)) from exc
    return scn


def ini_parser() -> configparser.ConfigParser:
    """An INI parser whose default section no header can name, so a
    ``[DEFAULT]`` section is an ordinary section and shares no keys."""
    return configparser.ConfigParser(interpolation=None, default_section="")


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())  # configparser's messages span lines


def _load_section(scn: Scenario, section: str, sec) -> None:
    kind, *names = section.split() or [""]
    if kind not in SECTIONS:
        raise ScenarioError("unknown section kind")
    table, n_names = SECTIONS[kind]
    values = read_section(table, sec)
    if len(names) != n_names:
        raise ScenarioError(f"bad {kind} section name")
    if kind == "sim":
        vars(scn).update(values)
    elif kind == "defaults":
        options = {"client": scn.client_options, "server": scn.server_options,
                   "path": {}}
        for (target, keyword), value in values.items():
            options[target][keyword] = value
        _check_schedule(scn.server_options, "server_max_retransmissions")
        scn.client_server_path = PathDecl(**options["path"])
    elif kind == "path":
        scn.paths.append(PathDecl(*names, **values))
    elif kind == "rule":
        scn.rules.append(FilterRule(*names, **values))
    else:
        addr = values.pop("addr")
        if addr is None:
            raise ScenarioError("missing addr")
        for other in scn.hosts:
            if other.addr == addr:
                raise ScenarioError(
                    f"addr {addr} already held by [{other.kind} {other.name}]")
        if kind == "server":
            _check_schedule(values, "max_retransmissions")
        scn.hosts.append(HostDecl(kind, names[0], addr, values))


def _check_schedule(options: dict, key: str) -> None:
    """A server retransmits only as often as its backoff schedule allows."""
    steps = len(options.get("backoff_s", DEFAULT_BACKOFF_S))
    if options["max_retransmissions"] > steps:
        raise ScenarioError(f"{key}: {options['max_retransmissions']} is more "
                            f"than the {steps} entries of the backoff schedule")


def load(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
