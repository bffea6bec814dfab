"""Golden values: the numbers of a few small runs, pinned to 1e-12 relative.

A change to the layouts, the transforms, the steppers or the norms that is
meant to keep the numbers must leave these as they are.  At 8^3 and seed 42
this pins the norm rows of a short sweep of each mode (run_sweep) and the
l2 and h1 samples of a `hydrostat run` config of each system
(run_simulation), against golden_values.json.

Regenerate that file only for a change that is meant to move the numbers:

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import pathlib

import pytest

from hydrostat.harness.config import parse_config_text, sim_config_from_dict
from hydrostat.harness.sweep import SweepConfig, run_sweep
from hydrostat.solvers import SimConfig, run_simulation

GOLDEN = pathlib.Path(__file__).with_name("golden_values.json")
REL = 1e-12

SWEEPS = {
    "eps_delta_to_zero": dict(eps_values=(0.2, 0.1, 0.05)),
    "gamma_scan": dict(eps_values=(0.2, 0.1), gamma_values=(3.0, 4.0)),
    "delta_to_infty": dict(eps_values=(0.5, 0.25), delta_values=(4.0, 16.0)),
}

RUNS = {
    "NS_eps_delta": {"eps": 0.3, "delta": 0.2},
    "PE_delta": {"delta": 0.5},
    "PE_H": {},
    "NS2D": {"nz": 4, "recipe": "taylor_green_3d"},
    "StokesScaled": {"delta": 2.0, "recipe": "heat_mode"},
}


def sweep_rows(mode: str) -> list:
    base = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.01, seed=42)
    rows = run_sweep(SweepConfig(mode, base, **SWEEPS[mode])).rows
    return [[r.eps, r.delta, r.gamma, r.norm_name, r.value, r.blowup] for r in rows]


def run_samples(system: str) -> dict:
    keys = {"system": system, "nx": 8, "ny": 8, "nz": 8, "dt": 1e-3,
            "t_end": 0.01, "seed": 42, **RUNS[system]}
    text = "".join(f"{k} = {v}\n" for k, v in keys.items())
    rec = run_simulation(sim_config_from_dict(parse_config_text(text)))
    return {"times": rec.times, **rec.samples}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * abs(want)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", SWEEPS)
def test_sweep_values_are_golden(golden, mode):
    want, got = golden["sweep"][mode], sweep_rows(mode)
    assert [r[:4] + r[5:] for r in got] == [r[:4] + r[5:] for r in want]
    bad = [(g[:4], g[4], w[4]) for g, w in zip(got, want) if not _close(g[4], w[4])]
    assert not bad, bad


@pytest.mark.parametrize("system", RUNS)
def test_run_samples_are_golden(golden, system):
    want, got = golden["run"][system], run_samples(system)
    assert sorted(got) == sorted(want)
    for name in want:
        assert len(got[name]) == len(want[name])
        bad = [(i, g, w) for i, (g, w) in enumerate(zip(got[name], want[name]))
               if not _close(g, w)]
        assert not bad, (name, bad)


if __name__ == "__main__":
    values = {"sweep": {mode: sweep_rows(mode) for mode in SWEEPS},
              "run": {system: run_samples(system) for system in RUNS}}
    GOLDEN.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
