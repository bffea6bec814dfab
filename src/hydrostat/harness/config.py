"""Flat key = value configuration files for the CLI.

Keys mirror the simulation and sweep setup; unknown keys are errors.  Lists
are comma-separated.  Lines starting with '#' and blank lines are ignored.
"""
from __future__ import annotations

from ..errors import ConfigError
from ..solvers import SimConfig

_SIM_KEYS = {
    "system": str,
    "nx": int,
    "ny": int,
    "nz": int,
    "dt": float,
    "t_end": float,
    "eps": float,
    "delta": float,
    "gamma": float,
    "recipe": str,
    "seed": int,
    "record_every": int,
}
_SWEEP_KEYS = {
    "mode": str,
    "eps_values": tuple,
    "delta_values": tuple,
    "gamma_values": tuple,
    "out_dir": str,
    "jobs": int,
    "timing": bool,
}


def parse_config_text(text: str) -> dict:
    """Parse flat key = value lines into a typed dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _SIM_KEYS:
            caster = _SIM_KEYS[key]
        elif key in _SWEEP_KEYS:
            caster = _SWEEP_KEYS[key]
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if caster is tuple:
                out[key] = tuple(float(v) for v in value.split(",") if v.strip())
            elif caster is bool:
                if value.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(value)
                out[key] = value.lower() in ("true", "1")
            else:
                out[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
    return out


def sim_config_from_dict(d: dict) -> SimConfig:
    values = {k: v for k, v in d.items() if k in _SIM_KEYS}
    missing = {"system", "nx", "ny", "nz", "dt", "t_end"} - set(values)
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    try:
        return SimConfig(**values)
    except Exception as exc:
        raise ConfigError(str(exc))


def sweep_config_from_dict(d: dict) -> SweepConfig:
    from .sweep import SweepConfig  # here, so that `run` loads no sweep

    if "mode" not in d:
        raise ConfigError("sweep config needs a mode")
    for key in ("eps", "delta", "gamma"):
        if key in d:
            raise ConfigError(f"a sweep sets {key} per point; give {key}_values, "
                              f"not {key}")
    base = sim_config_from_dict({"system": "NS_eps_delta", **d})
    return SweepConfig(base=base, **{k: v for k, v in d.items() if k in _SWEEP_KEYS})


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
