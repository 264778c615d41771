"""Plain-text run configuration.

Files are ``key = value`` lines with ``#`` comments. Each section maps to
one frozen dataclass in ``SECTIONS``, and that dataclass holds the fields
and their defaults; ``SCHEMA`` is derived from them. A key is
``section.field`` (a bare field name for ``RunSpec``), except:

    model.in_h, model.in_w   ModelSpec.in_hw
    data.h, data.w           DataSpec.hw
    cluster.nodes            ClusterSpec.num_nodes
    cluster.flops            ClusterSpec.flops_per_sec
    seed                     DataSpec.seed and SearchConfig.seed

Unknown keys are rejected. Command-line ``--set key=value`` overrides file
values, and the ``SEPNET_OUT_DIR`` environment variable overrides
``out_dir``, so every run can be reproduced from its logged resolved
configuration.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import typing

from .data import DataSpec
from .errors import ConfigError
from .models import ModelSpec
from .perf import ClusterSpec
from .search import SearchConfig


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Top-level keys that belong to no spec."""

    out_dir: str = "runs/out"


SECTIONS = {"": RunSpec, "model": ModelSpec, "data": DataSpec, "search": SearchConfig,
            "cluster": ClusterSpec}

# fields whose keys differ from "section.field"; a tuple field takes one key per element
_RENAMED = {
    "model.in_hw": ("model.in_h", "model.in_w"),
    "data.hw": ("data.h", "data.w"),
    "data.seed": ("seed",),
    "search.seed": ("seed",),
    "cluster.num_nodes": ("cluster.nodes",),
    "cluster.flops_per_sec": ("cluster.flops",),
}


def _keys(section: str, field: str) -> tuple[str, ...]:
    name = f"{section}.{field}" if section else field
    return _RENAMED.get(name, (name,))


def _schema() -> dict[str, tuple[type, object]]:
    schema: dict[str, tuple[type, object]] = {}
    for section, cls in SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            keys = _keys(section, f.name)
            types = typing.get_args(hints[f.name]) or (hints[f.name],)
            defaults = f.default if len(keys) > 1 else (f.default,)
            for key, want, default in zip(keys, types, defaults):
                schema.setdefault(key, (want, default))
    return schema


SCHEMA = _schema()


def _parse_item(item: str, where: str) -> tuple[str, object]:
    """One ``key = value`` item as a schema key and its typed value."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    key, text = (part.strip() for part in item.split("=", 1))
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown configuration key {key!r}")
    want, _ = SCHEMA[key]
    try:
        return key, want(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value {text!r} for {key} "
                          f"(expected {want.__name__})") from exc


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        item = line.split("#", 1)[0].strip()
        if item:
            key, value = _parse_item(item, f"line {lineno}")
            out[key] = value
    return out


def resolve(config_path: str | None = None, overrides: list[str] | None = None) -> dict:
    """File values + overrides + environment, on top of schema defaults."""
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            cfg.update(parse_config_text(fh.read()))
    cfg.update(_parse_item(item, "override") for item in overrides or [])
    env_out = os.environ.get("SEPNET_OUT_DIR")
    if env_out:
        cfg["out_dir"] = env_out
    return cfg


def format_resolved(cfg: dict) -> str:
    return "\n".join(f"{key} = {cfg[key]}" for key in sorted(cfg)) + "\n"


def _build(cls, section: str, cfg: dict):
    """The validated ``cls`` whose fields are read from the keys of ``section``."""
    kw = {}
    for f in dataclasses.fields(cls):
        values = tuple(cfg[key] for key in _keys(section, f.name))
        kw[f.name] = values if len(values) > 1 else values[0]
    spec = cls(**kw)
    spec.validate()
    return spec


model_spec = functools.partial(_build, ModelSpec, "model")
data_spec = functools.partial(_build, DataSpec, "data")
search_config = functools.partial(_build, SearchConfig, "search")
cluster_spec = functools.partial(_build, ClusterSpec, "cluster")
