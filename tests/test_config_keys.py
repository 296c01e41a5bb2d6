"""The key tables of scenario and analytics files: every range is enforced
at load time with a one-line error naming the section and the key, every
default is the one the constructors use, and README lists every key.  Every
scan setting is a flag in README's flag table, and every analytics setting
a key."""

from __future__ import annotations

import dataclasses
import inspect
import math
import re
from pathlib import Path

import pytest

from inferscan import analytics, backlog, idlescan, scenario, simnet, tracer
from inferscan.scenario import ScenarioError

README = Path(__file__).resolve().parent.parent / "README.md"

# A section of each kind that loads, which a test extends by one key.
SECTION_TEXT = {
    "sim": "[sim]\n",
    "defaults": "[defaults]\n",
    "client": "[client c1]\naddr = 36.10.0.5\n",
    "server": "[server s1]\naddr = 203.0.113.5\n",
    "monitor": "[monitor m1]\naddr = 100.64.0.1\n",
    "path": "[path c1 s1]\n",
    "rule": "[rule r1]\n",
    "analytics": "[analytics]\n",
}
TABLES = {kind: table for kind, (table, _) in scenario.SECTIONS.items()}
TABLES["analytics"] = analytics.ANALYTICS


def ranged_keys():
    return [(kind, key, k) for kind, table in TABLES.items()
            for key, k in table.items() if k.allowed is not None]


def number_text(value: float) -> str:
    return "inf" if value == math.inf else f"{value:g}"


def outside(k) -> list:
    """Texts just outside ``k``'s range."""
    if not isinstance(k.allowed, tuple):
        return ["x" + min(k.allowed)]
    lo, hi = k.allowed
    step = 1 if k.parse is scenario.integer else 0.001
    values = [lo - step]
    if hi != math.inf:
        values.append(hi + step)
    elif k.parse is scenario.number:
        values.append(math.inf)
    return [number_text(v) for v in values]


def edges(k) -> list:
    """Texts at the ends of ``k``'s range, or each of its choices; a list
    key holds five items, as many as the default backoff schedule."""
    if isinstance(k.allowed, tuple):
        values = [number_text(v) for v in k.allowed if v != math.inf]
    else:
        values = sorted(k.allowed)
    return [", ".join([v] * 5) if k.many else v for v in values]


def load(kind: str, key: str, text: str, tmp_path):
    body = f"{SECTION_TEXT[kind]}{key} = {text}\n"
    if kind != "analytics":
        return scenario.loads(body)
    path = tmp_path / "analytics.ini"
    path.write_text(body)
    return analytics.load_analytics_config(path)


def header(kind: str) -> str:
    return SECTION_TEXT[kind].split("\n")[0]


@pytest.mark.parametrize("kind, key, text", [
    (kind, key, text) for kind, key, k in ranged_keys() for text in outside(k)
])
def test_value_outside_range_names_section_and_key(kind, key, text,
                                                   tmp_path):
    with pytest.raises(ValueError) as info:
        load(kind, key, text, tmp_path)
    message = str(info.value)
    if kind == "analytics":
        message = message.removeprefix(f"{tmp_path / 'analytics.ini'}: ")
    assert message.startswith(f"{header(kind)} {key}: {text!r} is not ")
    assert "\n" not in message


@pytest.mark.parametrize("kind, key, text", [
    (kind, key, text) for kind, key, k in ranged_keys() for text in edges(k)
])
def test_range_edges_load(kind, key, text, tmp_path):
    load(kind, key, text, tmp_path)


def lax(parse) -> list:
    """(kind, key, text) for each key read by ``parse`` and each text that
    Python's int and float read as 1; a list holds five items, as many as
    the default backoff schedule."""
    texts = ["0_1", "+1", "\u0661"] if parse is scenario.integer else ["0_1"]
    return [(kind, key, ", ".join([text] * 5) if k.many else text)
            for kind, table in TABLES.items() for key, k in table.items()
            if k.parse is parse for text in texts]


@pytest.mark.parametrize("kind, key, text", [
    ("path", "loss_rate", "1.5"),
    ("path", "loss_rate", "-0.5"),
    ("path", "loss_rate", "nan"),
    ("path", "loss_rate", "5%"),
    ("rule", "placement_hop", "0"),
    ("rule", "placement_hop", "-2"),
    ("sim", "duration_s", "-5"),
    ("client", "ipid_start", "70000"),
    ("defaults", "server_backlog_capacity", "-4"),
    ("server", "down_s", "50-10"),
    ("server", "down_s", "5"),
    ("rule", "flags", "XYZ"),
    ("path", "hops", "10.9.0.1@CN@5@x"),
    ("server", "max_retransmissions", "6"),
    ("defaults", "server_max_retransmissions", "9"),
    ("analytics", "exclude_labels", "edu"),
    ("rule", "hours", "0_1-5"),
    ("server", "down_s", "+1-5"),
    ("path", "hops", "10.9.0.1@CN@0_1"),
] + lax(scenario.integer) + lax(scenario.number))
def test_input_that_used_to_load_fails(kind, key, text, tmp_path):
    with pytest.raises(ValueError) as info:
        load(kind, key, text, tmp_path)
    message = str(info.value)
    assert f"{header(kind)} {key}: " in message and "\n" not in message


# Keys whose values are addresses, not parsed into a form.
UNPARSED = {"addr", "hops", "path_hops"}


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, table in TABLES.items() for key in table
    if key not in UNPARSED
])
def test_unparsable_value_names_the_form(kind, key, tmp_path):
    # [sim] seed, [server] down_s and [rule] hours used to end in Python's
    # conversion text ("invalid literal for int() with base 10: 'x'").
    with pytest.raises(ValueError) as info:
        load(kind, key, "x", tmp_path)
    message = str(info.value).removeprefix(f"{tmp_path / 'analytics.ini'}: ")
    assert message.startswith(f"{header(kind)} {key}: 'x' is not ")
    assert "\n" not in message


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 3\n",
    "[DEFAULT]\nseed = 3\n[sim]\nduration_s = 1\n"
    "[client c]\naddr = 36.10.0.5\n",
], ids=["alone", "beside-sections"])
def test_default_section_is_rejected(text):
    # configparser's default section lent its keys to every other section.
    with pytest.raises(ScenarioError, match=r"^\[DEFAULT\] unknown section "
                                            r"kind$"):
        scenario.loads(text)


def test_hour_offset_is_not_a_key():
    # Hour 0 is virtual time 0: a record's campaign hour is the hour the
    # firewall rules act on.
    with pytest.raises(ScenarioError, match=r"^\[sim\] unknown key: hour0$"):
        scenario.loads("[sim]\nhour0 = 5\n")


@pytest.mark.parametrize("backoff, retransmissions, loads", [
    ("1, 2", 2, True), ("1, 2", 3, False), ("1", 0, True)])
def test_retransmissions_within_the_backoff_schedule(backoff, retransmissions,
                                                     loads):
    text = (f"{SECTION_TEXT['server']}backoff_s = {backoff}\n"
            f"max_retransmissions = {retransmissions}\n")
    if loads:
        scenario.loads(text).build()
    else:
        with pytest.raises(ScenarioError, match=r"^\[server s1\] "
                                                r"max_retransmissions: 3 is "):
            scenario.loads(text)


@pytest.mark.parametrize("key", ["grid_rows", "grid_cols", "grid_lat0",
                                 "grid_lon0"])
def test_grid_keys_are_not_in_the_file_format(key, tmp_path):
    path = tmp_path / "analytics.ini"
    path.write_text(f"[analytics]\n{key} = 3\n")
    with pytest.raises(ValueError, match=rf"unknown key: {key}$"):
        analytics.load_analytics_config(path)


def test_prefix_table_is_a_flag_not_a_key(tmp_path):
    # analyze --prefix-table is the one way to name a prefix table.
    path = tmp_path / "analytics.ini"
    path.write_text("[analytics]\nprefix_table = prefixes.csv\n")
    with pytest.raises(ValueError, match=r"unknown key: prefix_table$"):
        analytics.load_analytics_config(path)


@pytest.mark.parametrize("table, target", [
    (scenario.SIM, scenario.Scenario),
    (scenario.CLIENT, simnet.SimClient),
    (scenario.SERVER, simnet.SimServer),
    (scenario.PATH, simnet.Simulator.add_path),
    (scenario.RULE, simnet.FilterRule),
], ids=["sim", "client", "server", "path", "rule"])
def test_defaults_are_the_constructors(table, target):
    # So an absent key and a key set to its default build the same thing.
    params = inspect.signature(target).parameters
    for key, k in table.items():
        if k.keyword in params:
            default = params[k.keyword].default
            if default is not inspect.Parameter.empty:
                assert k.default == default, key


def test_every_key_has_one_readme_row():
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", README.read_text(),
                      re.MULTILINE)
    keys = [(kind, key) for kind, table in TABLES.items() for key in table]
    assert sorted(rows) == sorted(keys)


def readme_flag_settings() -> set:
    """(class, field) pairs in the setting column of README's flag table;
    a `.field` after a `Class.field` belongs to the same class."""
    table = README.read_text().split("| flag | setting |\n", 1)[1]
    settings = set()
    for row in table.split("\n\n", 1)[0].splitlines()[1:]:
        owner = None
        for cls, field in re.findall(r"`(\w+)?\.(\w+)`", row.split("|")[2]):
            owner = cls or owner
            settings.add((owner, field))
    return settings


def scan_settings() -> set:
    """(class, field) pairs of every scan config."""
    return {(config.__name__, f.name)
            for config in (idlescan.ScanRoundConfig,
                           backlog.BacklogScanConfig, tracer.TraceConfig)
            for f in dataclasses.fields(config)}


def test_every_scan_setting_has_a_flag():
    # A setting that no flag sets is one only the library's own callers
    # (tests among them) can change; it belongs in a module constant.
    assert scan_settings() == readme_flag_settings()


def test_only_the_trace_ports_are_scan_settings():
    # Every scan runs one fixed schedule; the filtered port is the relay's
    # ORPort, a deployment value.  A new setting is added here on purpose.
    assert scan_settings() == {("TraceConfig", "tor_port"),
                               ("TraceConfig", "rand_port")}


def test_every_analytics_setting_has_a_key():
    keywords = {k.keyword for k in analytics.ANALYTICS.values()}
    assert {f.name for f in dataclasses.fields(analytics.AnalyticsConfig)
            } <= keywords
