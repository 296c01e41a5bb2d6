"""Endpoint metadata: client/server identities and their CSV on-disk form."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, asdict
from typing import Iterable

from .scenario import ADDR, PORT, Key, boolean, number, read_section
from .transport import check_addr, check_json, check_range

ROLES = ("client", "tor-relay", "tor-dir", "web")

MIN_RELAY_UPTIME_DAYS = 5.0


class EndpointError(ValueError):
    """A malformed endpoint CSV; the message names the file and line."""


@dataclass(frozen=True)
class EndpointSpec:
    addr: str
    port: int
    role: str
    lat: float = 0.0
    lon: float = 0.0
    uptime_days: float = 0.0
    stable: bool = True

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role: {self.role!r}")
        _check_finite("lat", self.lat, 90)
        _check_finite("lon", self.lon, 180)
        _check_finite("uptime_days", self.uptime_days)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, rec: dict) -> "EndpointSpec":
        """The endpoint a record line stores.  A field of the wrong JSON
        type, a port outside 0-65535 or an addr that is not a canonical
        dotted quad raises ValueError."""
        rec = {"stable": True, **dict.fromkeys(_NUMBERS, 0.0), **rec}
        for name, types in _JSON_TYPES.items():
            check_json(name, rec[name], types)
        check_range("port", rec["port"], 0, 0xFFFF)
        return cls(addr=check_addr(rec["addr"]), port=rec["port"],
                   role=rec["role"], stable=rec["stable"],
                   **{name: float(rec[name]) for name in _NUMBERS})


_NUMBERS = ("lat", "lon", "uptime_days")  # an endpoint's number fields
# The JSON types of a stored endpoint's fields; a bool is not an int here.
_JSON_TYPES = {**dict.fromkeys(_NUMBERS, (int, float)), "port": (int,),
               "stable": (bool,)}
# The columns of an endpoint CSV, read as the keys of a scenario section;
# addr, port and role have no default and must be given.
COLUMNS = {"addr": ADDR, "port": PORT, "role": Key("role"),
           **{name: Key(name, number, None, 0.0) for name in _NUMBERS},
           "stable_flag": Key("stable", boolean, None, True)}


def load_endpoints(path) -> list:
    """Read an endpoint CSV whose header names columns of COLUMNS.

    Each row is read as a scenario section whose keys are the columns and
    whose values are its cells, stripped; an empty cell takes its column's
    default.  An unknown column, a cell beyond the header, a missing addr,
    port or role, a value its column does not read, a role outside ROLES,
    a non-finite lat, lon or uptime_days, or a lat outside ±90 or lon
    outside ±180 raises EndpointError.
    """
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        for row in reader:
            try:
                if None in row:
                    raise ValueError("more cells than columns")
                values = read_section(COLUMNS, {
                    column: text.strip() for column, text in row.items()
                    if text.strip() or column not in COLUMNS})
                for column in ("addr", "port", "role"):
                    if values[column] is None:
                        raise ValueError(f"missing {column}")
                out.append(EndpointSpec(**values))
            except ValueError as exc:
                raise EndpointError(f"{path}, line {reader.line_num}: {exc}") from exc
    return out


def _check_finite(name: str, value: float, limit: float = math.inf) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite and
    within ±``limit``."""
    if not (math.isfinite(value) and -limit <= value <= limit):
        within = f" within ±{limit}" if limit < math.inf else ""
        raise ValueError(f"{name} must be a finite number{within}, "
                         f"got {value!r}")


def passes_stability_rule(ep: EndpointSpec) -> bool:
    """Relay admission rule: the stability flag plus a minimum uptime.

    Only relay-type endpoints are subject to it; clients and web servers
    always pass.
    """
    if ep.role not in ("tor-relay", "tor-dir"):
        return True
    return ep.stable and ep.uptime_days >= MIN_RELAY_UPTIME_DAYS


def filter_stable(endpoints: Iterable[EndpointSpec]) -> list:
    """Ingestion-time filter applied to server lists before any scanning."""
    return [ep for ep in endpoints if passes_stability_rule(ep)]
