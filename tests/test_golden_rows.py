"""Pinned sweep output: one-point rows per metric and the cheap preset CSVs.

A refactor of the read-out engine or of the sweep plumbing must leave these
alone.  The engine runs at working precision for both schemes, so every row
must match byte for byte.  The preset hashes cover every preset, so every
sweep metric but crb, which the golden rows pin; a change that moves a
number on purpose updates the hash next to its entry in CHANGES.md.
"""

import hashlib
from math import pi

import pytest

from photsub.experiments import SweepConfig, run_preset, run_sweep

GOLDEN = [
    (
        dict(scheme="single", axis="lam", values=(1.3,), m_list=(2,), metrics=("U",),
             mu=100.0, phi=pi / 2 - 0.3, psi=0.2, eta=0.9),
        "1.3,2,U,0.146253320291,ok",
    ),
    (
        dict(scheme="single", axis="lam", values=(4.0,), m_list=(3,), metrics=("U",),
             mu=1e4, phi=pi / 2 - 1.0, eta=0.98, balanced=True),
        "4,3,U,0.0175287964241,ok",
    ),
    (
        dict(scheme="single", axis="lam", values=(2.5,), m_list=(1,), metrics=("qfi",),
             mu=100.0, psi=pi / 2),
        "2.5,1,qfi,186.17606507,ok",
    ),
    (
        dict(scheme="single", axis="lam", values=(0.7,), m_list=(3,),
             metrics=("var_y",), eta=0.98),
        "0.7,3,var_y,0.207596216038,ok",
    ),
    (
        dict(scheme="single", axis="lam", values=(5.0,), m_list=(4,),
             metrics=("mean_photons",)),
        "5,4,mean_photons,47.1789883268,ok",
    ),
    (
        dict(scheme="correlated", axis="phi", values=(1e-5,), m_list=(2,),
             metrics=("U_norm",), lam=2.0, mu=1e12, psi=pi / 2, eta=0.98),
        "1e-05,2,U_norm,0.178764192756,ok",
    ),
    (
        dict(scheme="correlated", axis="eta", values=(0.8,), m_list=(3,),
             metrics=("U_norm",), lam=2.0, mu=1e12, phi=1e-8, psi=pi / 2,
             balanced=True),
        "0.8,3,U_norm,0.631478791282,ok",
    ),
    (
        dict(scheme="correlated", axis="one_minus_tau", values=(0.1,), m_list=(1,),
             metrics=("nrf",), lam=0.05, mu=1e6, psi=pi / 2),
        "0.1,1,nrf,0.48946007049,ok",
    ),
    (
        dict(scheme="correlated", axis="lam", values=(0.3,), m_list=(2,),
             metrics=("nrf",), mu=2.0, phi=0.7, psi=0.4, eta=0.9),
        "0.3,2,nrf,0.983275926578,ok",
    ),
    (
        dict(scheme="correlated", axis="lam", values=(0.7,), m_list=(2,),
             metrics=("quad_diff_var_seed",)),
        "0.7,2,quad_diff_var_seed,0.37427499864,ok",
    ),
    (
        dict(scheme="correlated", axis="lam", values=(0.7,), m_list=(3,),
             metrics=("mean_photons",)),
        "0.7,3,mean_photons,6.00562015504,ok",
    ),
    (
        dict(scheme="single", axis="mu", values=(1e8,), m_list=(1,), metrics=("U",),
             lam=1.3, phi=pi / 2 - 0.3, psi=0.2, eta=0.9),
        "100000000,1,U,0.000120890540306,ok",
    ),
    (
        dict(scheme="single", axis="lam", values=(20.0,), m_list=(4,), metrics=("qfi",),
             mu=100.0, psi=0.3),
        "20,4,qfi,74559.9014766,ok",
    ),
    (
        dict(scheme="correlated", axis="lam", values=(0.4,), m_list=(3,),
             metrics=("nrf",), mu=3.0, phi=0.9, psi=0.5, eta=0.85),
        "0.4,3,nrf,1.71767014135,ok",
    ),
    (
        dict(scheme="correlated", axis="lam", values=(30.0,), m_list=(1,),
             metrics=("U_norm",), mu=1e6, phi=0.7, psi=pi / 2, eta=0.6),
        "30,1,U_norm,0.672610573432,ok",
    ),
    (
        dict(scheme="single", axis="lam", values=(2.5,), m_list=(1,), metrics=("crb",),
             mu=100.0, psi=pi / 2),
        "2.5,1,crb,0.0732888785876,ok",
    ),
    (
        dict(scheme="single", axis="lam", values=(1.3,), m_list=(2,), metrics=("snl",),
             mu=100.0, eta=0.9),
        "1.3,2,snl,0.101636775072,ok",
    ),
    (
        dict(scheme="single", axis="lam", values=(0.8,), m_list=(3,),
             metrics=("qfi_classical",), mu=50.0),
        "0.8,3,qfi_classical,114.114285714,ok",
    ),
    (
        dict(scheme="correlated", axis="lam", values=(1.5,), m_list=(2,),
             metrics=("mandel_q",), eta=0.7),
        "1.5,2,mandel_q,0.903631694791,ok",
    ),
    (
        dict(scheme="correlated", axis="lam", values=(0.6,), m_list=(1,),
             metrics=("quad_diff_var",), chi=0.4, eta=0.9),
        "0.6,1,quad_diff_var,0.120831217522,ok",
    ),
]


@pytest.mark.parametrize(
    "kwargs, expected",
    GOLDEN,
    ids=[f"{k['scheme']}-{k['metrics'][0]}-m{k['m_list'][0]}" for k, _ in GOLDEN],
)
def test_golden_row(kwargs, expected):
    row = run_sweep(SweepConfig(**kwargs)).to_csv().splitlines()[-1]
    assert row == expected


_ALL_SINGLE = ("U", "qfi", "crb", "snl", "qfi_classical", "var_y", "mean_photons")

#: whole points, all metric rows in order: one scene serves every metric
GOLDEN_POINTS = {
    "balanced-ok": (
        dict(scheme="single", axis="lam", values=(4.0,), m_list=(2,),
             metrics=("U", "snl"), mu=100.0, phi=pi / 2 - 0.3, eta=0.95,
             balanced=True),
        ["4,2,U,0.0750925092997,ok", "4,2,snl,0.100605454573,ok"],
    ),
    # odd-m PASSV carries at least one photon: target 0.2 cannot be balanced
    "balanced-unreachable": (
        dict(scheme="single", axis="lam", values=(0.2,), m_list=(1,),
             metrics=_ALL_SINGLE, balanced=True),
        [f"0.2,1,{metric},,out_of_range" for metric in _ALL_SINGLE],
    ),
}


@pytest.mark.parametrize("kwargs, expected", GOLDEN_POINTS.values(), ids=GOLDEN_POINTS)
def test_golden_point(kwargs, expected):
    rows = run_sweep(SweepConfig(**kwargs)).to_csv().splitlines()[5:]
    assert rows == expected


PRESET_SHA256 = {
    "fig1a": "8f32dc79a402f5231fcb520b787c85275770bbcada56a8b72a38b6a22fafcbce",
    "fig1b": "20927e9c295a237ba55d8ec29286efd0e0d3575b47b14561c42a68792c65559a",
    "fig1c": "cfe7b17c84446547c4ebfd46741fc394d6a96e6ae27fb41fb65eb3c60f78cac8",
    "fig_anyangle": "85753c07c7e36373b4d5a5acd7a5a740749fb24f6e9cc6ef8388baa6466492d6",
    "fig3a": "7ccdcba48fd53c5ddaf29a7df7d88e96972a381430f8853d9fe9d28b9772540d",
    "fig3b": "e6e48aa149428b897049dedc1ff9393b080e5c32feda337d8c5e87b2913482bd",
    "fig5a": "6a689bdf18f8891b21d5ef34955f5ad8e6cda761c6f3d24039b954f752285889",
    "fig5b": "9e22d9e425daf0c0336f0fbe7006e6c521edfd44dc079a0b567053997fe1d531",
    "fig_mandel": "267a47d42ccd5c3323a36a4c4fbf89a1c97b4ddf1ec90af41809427fbc46d352",
    "fig8": "af7c4b2a3bcf9758237a3e939881ea2a3e668c9f0adb9e3a023cbf4cdc660f96",
    "fig9a": "89bca24673cb3d4171f1994715bc62c8eca47fb1820d0933c5a3c5416f20d776",
    "fig9b": "094b0a7fcadcc74e03700217b33311eefb3c07e9f61bdeb03e3f28a18b0047b2",
    "fig9c": "9377d7a13e269bfda712889e5f7b06e54af19abedd1af8e7a77802ea35512f3c",
    "fig10a": "fa39dae66d5421f0008dfa4dbac3c0cc293fe82db27f9db090b0e8a5a66e9a5f",
    "fig10b": "a561142e5232d95cb67e140ddc608f629285e81a3d64dc0b2e9f424fff85a186",
    "fig6": "a6205a2f2098c0838fe83e654180799ca9215c6f52a8aabcfe846f4da28e8bf5",
}


@pytest.mark.parametrize("name, digest", PRESET_SHA256.items(), ids=PRESET_SHA256)
def test_preset_csv_hash(name, digest):
    csv = run_preset(name).to_csv().encode("utf-8")
    assert hashlib.sha256(csv).hexdigest() == digest
