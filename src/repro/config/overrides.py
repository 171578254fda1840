"""Flat knob overrides over the nested GNNerator configuration.

Design-space exploration needs to express "the Table IV baseline, but
with a 128-wide systolic array and half the DRAM bandwidth" as *data* —
hashable, JSON-able and picklable — so a candidate design can ride
inside a :class:`~repro.sweep.plan.SweepPoint` and the persistent
result cache can tell candidates apart. This module defines that
format: a flat mapping from dotted knob paths (``"dense.rows"``,
``"graph.num_gpes"``, ``"dram.bandwidth_bytes_per_s"``, or the
top-level ``"feature_block"``) to numeric values, applied on top of a
base :class:`GNNeratorConfig` with :func:`dataclasses.replace` — so
every ``__post_init__`` validity check fires on the assembled
candidate and degenerate designs are rejected with a
:class:`ConfigError` before any simulation starts.
"""

from __future__ import annotations

import dataclasses
import functools
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from repro.config.accelerator import ConfigError, GNNeratorConfig
from repro.config.platforms import gnnerator_config, next_generation_variants

#: The nested config sections knob paths may address.
SECTIONS = ("dense", "graph", "dram")

#: Frozen, canonical override form: sorted ``(path, value)`` pairs.
FrozenOverrides = tuple[tuple[str, float], ...]

#: Configs :func:`candidate_config` keeps, least recently used first out.
CANDIDATE_MEMO_SIZE = 1024


def _numeric_fields(section_obj: Any) -> dict[str, float]:
    """Numeric (int/float, non-bool) fields of one config section."""
    out: dict[str, float] = {}
    for f in dataclasses.fields(section_obj):
        value = getattr(section_obj, f.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f.name] = value
    return out


def knob_paths(base: GNNeratorConfig | None = None) -> tuple[str, ...]:
    """Every overridable knob path of ``base`` (default Table IV)."""
    if base is None:
        base = GNNeratorConfig()
    paths = ["feature_block"]
    for section in SECTIONS:
        for name in _numeric_fields(getattr(base, section)):
            paths.append(f"{section}.{name}")
    return tuple(paths)


def _check_numeric(path: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"override {path!r} must be numeric, got {value!r}")


def _coerce(path: str, current: object, value: object) -> float:
    """Type-check an override value against the field it replaces."""
    _check_numeric(path, value)
    if isinstance(current, int) and isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(
                f"override {path!r} must be an integer, got {value!r}")
        return int(value)
    return value


def apply_overrides(base: GNNeratorConfig,
                    overrides: Mapping[str, float] | FrozenOverrides
                    ) -> GNNeratorConfig:
    """Build the candidate config ``base`` + ``overrides``.

    Raises :class:`ConfigError` for unknown paths, non-numeric values,
    or any candidate the config dataclasses themselves reject (zero
    buffers, dead DRAM channels, blocks that overflow a scratchpad
    half, ...) — the caller gets one clear message per bad candidate
    instead of a crash mid-search.
    """
    if not isinstance(overrides, Mapping):
        overrides = dict(overrides)
    sections: dict[str, dict[str, float]] = {}
    top: dict[str, float] = {}
    for path, value in overrides.items():
        if "." in path:
            section, field = path.split(".", 1)
            if section not in SECTIONS:
                raise ConfigError(
                    f"unknown config section {section!r} in override "
                    f"{path!r}; sections: {', '.join(SECTIONS)}")
            section_obj = getattr(base, section)
            known = _numeric_fields(section_obj)
            if field not in known:
                raise ConfigError(
                    f"unknown knob {path!r}; {section} knobs: "
                    f"{', '.join(sorted(known))}")
            sections.setdefault(section, {})[field] = _coerce(
                path, known[field], value)
        elif path == "feature_block":
            top[path] = _coerce(path, 1, value)
        else:
            raise ConfigError(
                f"unknown knob {path!r}; top-level knobs: feature_block")
    replacements: dict[str, object] = dict(top)
    for section, fields in sections.items():
        replacements[section] = dataclasses.replace(
            getattr(base, section), **fields)
    return dataclasses.replace(base, **replacements)


def freeze_overrides(overrides: Mapping[str, float]
                     | Iterable[tuple[str, float]]) -> FrozenOverrides:
    """Canonical hashable form: ``(path, value)`` pairs sorted by path."""
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = list(overrides)
    return tuple(sorted((str(path), value) for path, value in items))


def candidate_config(feature_block: int | None,
                     overrides: FrozenOverrides) -> GNNeratorConfig:
    """Table IV at ``feature_block`` plus ``overrides``, built and
    validated once per distinct pair: the one config path of sweep
    points, run requests and the harness. Raises :class:`ConfigError`
    as :func:`apply_overrides` does; a rejected pair is not kept."""
    for path, value in overrides:
        _check_numeric(path, value)  # True would hit a remembered 1
    return _built_config(feature_block, overrides)


@functools.lru_cache(maxsize=CANDIDATE_MEMO_SIZE)
def _built_config(feature_block: int | None,
                  overrides: FrozenOverrides) -> GNNeratorConfig:
    return apply_overrides(gnnerator_config(feature_block=feature_block),
                           overrides)


def overrides_between(base: GNNeratorConfig,
                      other: GNNeratorConfig) -> dict[str, float]:
    """Express ``other`` as knob overrides on ``base``.

    Walks every numeric knob path and records the differing values —
    how the Fig 5 next-generation variants are mapped into the DSE
    candidate format (:func:`fig5_overrides`). Differences the override
    format cannot carry — ``feature_block=None``, or any non-numeric
    field other than the cosmetic ``name`` — raise instead of being
    silently dropped, so a config is never mislabelled as another.
    """
    diff: dict[str, float] = {}
    if other.feature_block != base.feature_block:
        if other.feature_block is None:
            raise ConfigError(
                "cannot express feature_block=None as a numeric override")
        diff["feature_block"] = other.feature_block
    inexpressible = []
    for f in dataclasses.fields(base):
        if f.name in ("name", "feature_block") or f.name in SECTIONS:
            continue
        if getattr(base, f.name) != getattr(other, f.name):
            inexpressible.append(f.name)
    for section in SECTIONS:
        base_section = getattr(base, section)
        other_section = getattr(other, section)
        base_fields = _numeric_fields(base_section)
        other_fields = _numeric_fields(other_section)
        for name, value in other_fields.items():
            if value != base_fields.get(name):
                diff[f"{section}.{name}"] = value
        for f in dataclasses.fields(base_section):
            if f.name in other_fields:
                continue
            if getattr(base_section, f.name) != getattr(other_section,
                                                        f.name):
                inexpressible.append(f"{section}.{f.name}")
    if inexpressible:
        raise ConfigError(
            f"configs differ in non-numeric fields {inexpressible}, "
            f"which knob overrides cannot express")
    return diff


@functools.cache
def fig5_overrides() -> Mapping[str, FrozenOverrides]:
    """Each Fig 5 design of :func:`next_generation_variants` as frozen
    overrides on Table IV, by name; they rebuild it but for ``name``."""
    base = gnnerator_config()
    return MappingProxyType({
        name: freeze_overrides(overrides_between(base, config))
        for name, config in next_generation_variants(base).items()})

