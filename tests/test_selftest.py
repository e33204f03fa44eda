"""Each self-test suite reports FAIL when the identity it checks breaks."""

from types import SimpleNamespace

import pytest

from sollink import selftest, sol

# suite -> (a name the suite reads, a stand-in that breaks its identity)
BROKEN = {
    "sol-oracle": ("sollink.sol.cap_intersect", lambda *args, real=sol.cap_intersect: real(*args) + 1),
    "sol-bilinear": ("sollink.sol.link_fiber", lambda m, a, b, real=sol.link_fiber: real(m, a, b) + 1),
    "sol-conjugation": ("sollink.sol._sl2_inv", lambda h: h),
    "sol-asymmetry": ("sollink.sol._gamma0", lambda m, v: v),
    "caps": ("sollink.sol.area_period", lambda cap: 1),
    "beta": ("sollink.selftest.beta_fn", lambda s: 1.0),
    "ratio-quick": (
        "sollink.selftest.holomorphic_ratio_test",
        lambda *args, **kw: SimpleNamespace(inconsistent=[], spread=1e-3, ratios=[1.0]),
    ),
}


@pytest.mark.parametrize("suite", BROKEN)
def test_a_broken_identity_fails_its_suite(monkeypatch, suite):
    monkeypatch.setattr(*BROKEN[suite])
    verdicts = {name: ok for name, ok, _ in selftest.run_suites(0)}
    assert list(verdicts) == list(BROKEN)
    assert verdicts[suite] is False
