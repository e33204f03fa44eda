"""The library's result records stay dataclasses: the benchmark harness
(perfbench/test_perfbench.py) builds its deliberately wrong results with
dataclasses.replace on each of them."""

import dataclasses
from fractions import Fraction

from sollink import boundary_components, eval_W, holomorphic_ratio_test, link_table, lk_qexpansion
from sollink.qseries import WEvalParams
from conftest import field


def test_records_take_dataclasses_replace():
    f = field(5)
    table = link_table(f, 3)
    entries = {**dict(table.entries), (2, 3): Fraction(1, 7)}
    assert dataclasses.replace(table, entries=entries).entries is entries
    q = lk_qexpansion(f, 1, 4)
    assert dataclasses.replace(q, coeffs={**q.coeffs, 3: Fraction(1)}).coeffs[3] == 1
    (comp,) = boundary_components(f, 4)
    rep = comp.cls.rep * f.eps
    cls = dataclasses.replace(comp.cls, rep=rep)
    assert dataclasses.replace(comp, cls=cls, fiber_label=rep).cls.rep == rep
    report = eval_W(f, WEvalParams(tau=complex(0.2, 0.3), k_range=20, box=10, n_cut=10))
    assert dataclasses.replace(report, beta_part=1.0).beta_part == 1.0
    ratios = holomorphic_ratio_test(f, 4, 20)
    assert dataclasses.replace(ratios, spread=1e-3).spread == 1e-3
