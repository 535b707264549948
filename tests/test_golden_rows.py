"""One-point sweeps per engine metric, each pinned to its CSV row.

A cheap stand-in for diffing the full preset CSVs: a refactor of the
read-out engine must leave these rows alone.  The engine runs at working
precision for both schemes, so every row must match byte for byte.
"""

from math import pi

import pytest

from photsub.experiments import SweepConfig, run_sweep

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
]


@pytest.mark.parametrize(
    "kwargs, expected",
    GOLDEN,
    ids=[f"{k['scheme']}-{k['metrics'][0]}-m{k['m_list'][0]}" for k, _ in GOLDEN],
)
def test_golden_row(kwargs, expected):
    row = run_sweep(SweepConfig(**kwargs)).to_csv().splitlines()[-1]
    assert row == expected
