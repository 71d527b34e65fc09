"""Property tests of the config boundary.

Generated gauge specs, nested ``composed`` taus included, must survive the
trip through their JSON form, keep the dict form the hand-written
per-family branches gave, and a spec spoiled by an unknown key or a value
of the wrong type must end as a ConfigError, never a traceback.
"""

import json
import math
from argparse import Namespace

import pytest
from hypothesis import given, settings, strategies as st

from ponomap.cli import ConfigError, resolve_config
from ponomap.gauge import GaugeSpec, RawGauge, TauSpec


def tau_dict_oracle(tau):
    if tau.family == "constant":
        return {"family": "constant", "value": tau.value}
    if tau.family == "log":
        return {"family": "log", "shift": tau.shift}
    if tau.family == "log_power":
        return {"family": "log_power", "exponent": tau.exponent, "shift": tau.shift}
    if tau.family == "iterated_log":
        return {
            "family": "iterated_log",
            "iterations": tau.iterations,
            "exponent": tau.exponent,
            "shift": tau.shift,
        }
    return {"family": "composed", "factors": [tau_dict_oracle(f) for f in tau.factors]}


def raw_dict_oracle(raw):
    if raw.family == "power":
        return {"family": "power", "alpha": raw.alpha}
    if raw.family == "log_inverse":
        return {
            "family": "log_inverse",
            "alpha": raw.alpha,
            "exponent": raw.exponent,
            "shift": raw.shift,
        }
    return {"family": "exp_inverse", "scale": raw.scale}


def gauge_dict_oracle(spec):
    if spec.tau is not None:
        return {"n": spec.n, "tau": tau_dict_oracle(spec.tau)}
    return {"n": spec.n, "raw": raw_dict_oracle(spec.raw)}


def oracle(spec):
    return {TauSpec: tau_dict_oracle, RawGauge: raw_dict_oracle,
            GaugeSpec: gauge_dict_oracle}[type(spec)](spec)


def floats(lo, hi, exclude_min=False):
    return st.floats(min_value=lo, max_value=hi, exclude_min=exclude_min,
                     allow_nan=False, allow_infinity=False)


shifts = floats(math.e, 1e6)
exponents = floats(0.0, 8.0)
positive = floats(0.0, 1e3, exclude_min=True)

leaf_taus = st.one_of(
    st.builds(TauSpec, family=st.just("constant"), value=floats(1.0, 1e6)),
    st.builds(TauSpec, family=st.just("log"), shift=shifts),
    st.builds(TauSpec, family=st.just("log_power"), exponent=exponents, shift=shifts),
    st.builds(TauSpec, family=st.just("iterated_log"), iterations=st.integers(1, 6),
              exponent=exponents, shift=shifts),
)
taus = st.recursive(
    leaf_taus,
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda fs: TauSpec(family="composed", factors=tuple(fs))),
    max_leaves=6,
)
raws = st.one_of(
    st.builds(RawGauge, family=st.just("power"), alpha=positive),
    st.builds(RawGauge, family=st.just("log_inverse"), alpha=positive,
              exponent=exponents, shift=shifts),
    st.builds(RawGauge, family=st.just("exp_inverse"), scale=positive),
)
gauges = st.one_of(st.builds(GaugeSpec, n=st.integers(2, 6), tau=taus),
                   st.builds(GaugeSpec, n=st.integers(2, 6), raw=raws))

# values of a type no gauge key takes; "x" is no family name
BAD_VALUES = [None, [], ["x"], "x", True, False]


def dict_nodes(value):
    if isinstance(value, dict):
        yield value
        for v in value.values():
            yield from dict_nodes(v)
    elif isinstance(value, list):
        for v in value:
            yield from dict_nodes(v)


@settings(deadline=None)
@given(st.one_of(taus, raws, gauges))
def test_spec_json_round_trip(spec):
    d = spec.to_dict()
    assert json.dumps(d) == json.dumps(oracle(spec))  # key order included
    assert type(spec).from_dict(json.loads(json.dumps(d))) == spec


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


@settings(deadline=None)
@given(gauges, st.data())
def test_spoiled_gauge_is_config_error(config_file, spec, data):
    gauge = spec.to_dict()
    node = data.draw(st.sampled_from(list(dict_nodes(gauge))))
    key = data.draw(st.sampled_from(sorted(node) + ["bogus"]))
    node[key] = data.draw(st.sampled_from(BAD_VALUES))
    config_file.write_text(json.dumps({"gauge": gauge}))
    with pytest.raises(ConfigError):
        resolve_config(Namespace(config=config_file))
