"""Endpoint metadata: client/server identities and their CSV on-disk form."""

from __future__ import annotations

import csv
from dataclasses import dataclass, asdict
from typing import Iterable

from .transport import _check_addr

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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, rec: dict) -> "EndpointSpec":
        return cls(addr=rec["addr"], port=int(rec["port"]), role=rec["role"],
                   lat=float(rec.get("lat", 0.0)), lon=float(rec.get("lon", 0.0)),
                   uptime_days=float(rec.get("uptime_days", 0.0)),
                   stable=bool(rec.get("stable", True)))


def load_endpoints(path) -> list:
    """Read an endpoint CSV: addr,port,role,lat,lon,uptime_days,stable_flag.

    A missing addr, port or role column, a value that does not parse, an
    addr that is not a canonical dotted quad, or a port outside 0-65535
    raises EndpointError.
    """
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        for row in reader:
            try:
                out.append(EndpointSpec(
                    addr=_check_addr(row["addr"].strip()),
                    port=_check_port(int(row["port"] or 0)),
                    role=row["role"].strip(),
                    lat=float(row.get("lat") or 0.0),
                    lon=float(row.get("lon") or 0.0),
                    uptime_days=float(row.get("uptime_days") or 0.0),
                    stable=(row.get("stable_flag") or "1").strip().lower()
                           in ("1", "true", "yes"),
                ))
            except KeyError as exc:
                raise EndpointError(f"{path}, line {reader.line_num}: "
                                    f"no {exc} column") from exc
            except ValueError as exc:
                raise EndpointError(f"{path}, line {reader.line_num}: {exc}") from exc
    return out


def _check_port(port: int) -> int:
    if not 0 <= port <= 0xFFFF:
        raise ValueError(f"port out of range: {port}")
    return port


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
