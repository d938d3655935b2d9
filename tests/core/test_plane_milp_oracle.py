"""The threshold plane MILP against the one-hot oracle.

:func:`tests.core.plane_milp_oracle.plane_milp_oracle` is the one-hot
model (one binary per node and label, incompatible pairs forbidden edge
by edge) that the threshold encoding replaced.  On every fast-tier
circuit and layer count the product path must reach the oracle's proven
optimal objective — including the graphs above the old 240-node gate,
where the product used to keep the fold.
"""

import pytest

from repro.bdd import build_sbdd
from repro.bench.suites import circuit, suite
from repro.core import assign_planes, label_weighted, preprocess
from repro.core.klabel import _plane_milp, _rebalance, _zigzag_fold
from tests.core.plane_milp_oracle import plane_milp_oracle

GAMMA = 0.5
LAYERS = (2, 3, 4)
_LABELED: dict = {}


def labeled(name: str):
    """The circuit's graph and a stage-1 labeling, built once per run.

    A short stage-1 budget keeps the slow static-order circuits cheap;
    the plane stage only needs *some* valid labeling to compare on.
    """
    if name not in _LABELED:
        bg = preprocess(build_sbdd(circuit(name)))
        lab = label_weighted(bg, gamma=GAMMA, alignment=True, time_limit=2)
        _LABELED[name] = (bg, lab)
    return _LABELED[name]


def folded(bg, lab, num_layers):
    out = _zigzag_fold(bg, lab, num_layers, True)
    _rebalance(bg, out, True)
    return out


def oracle_objective(bg, lab, num_layers, warm) -> float:
    result = plane_milp_oracle(
        bg, lab, num_layers, GAMMA, True, backend="highs", time_limit=None, warm=warm
    )
    assert result is not None
    labeling, proved = result
    assert proved
    return labeling.objective(GAMMA)


@pytest.mark.parametrize("num_layers", LAYERS)
@pytest.mark.parametrize("name", [entry.name for entry in suite("fast")])
def test_product_path_reaches_the_oracle_optimum(name, num_layers):
    bg, lab = labeled(name)
    kl = assign_planes(bg, lab, num_layers, gamma=GAMMA)
    kl.validate(bg, alignment=True)
    assert kl.meta["plane_optimal"] is True
    assert "milp" in kl.meta["plane_method"]
    expected = oracle_objective(bg, lab, num_layers, folded(bg, lab, num_layers))
    assert kl.objective(GAMMA) == pytest.approx(expected)


@pytest.mark.parametrize("num_layers", LAYERS)
@pytest.mark.parametrize("name", ["c17", "voter9", "mux16"])
def test_bnb_with_fold_warm_start_reaches_the_oracle_optimum(name, num_layers):
    bg, lab = labeled(name)
    warm = folded(bg, lab, num_layers)
    result = _plane_milp(
        bg, lab, num_layers, GAMMA, True, backend="bnb", time_limit=None, warm=warm
    )
    assert result is not None
    labeling, proved = result
    labeling.validate(bg, alignment=True)
    assert proved
    expected = oracle_objective(bg, lab, num_layers, warm)
    assert labeling.objective(GAMMA) == pytest.approx(expected)
