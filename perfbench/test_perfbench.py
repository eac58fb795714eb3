"""Tests of the benchmark harness itself (not of oscgeo)."""

import json
from fractions import Fraction

import numpy as np
import pytest

from oscgeo import group, lattices, normalizers
from perfbench import harness, tracing, workloads


def canon(obj):
    """A JSON-able form of an input item, for comparing item lists."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if hasattr(obj, "coords"):
        return [canon(c) for c in obj.coords()]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def item_list(cls, seed):
    return json.dumps(canon(cls(seed).items), default=str)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_items(name):
    cls = workloads.WORKLOADS[name]
    assert item_list(cls, 7) == item_list(cls, 7)
    assert item_list(cls, 7) != item_list(cls, 8)


def test_wrappers_are_removed_exactly():
    targets = tracing.patch_targets()
    bound = {(owner, attr) for _, owner, attr, _ in targets}
    # import-time bindings and constructors are patched, not only definitions
    assert (normalizers, "multiply") in bound and (lattices, "multiply") in bound
    assert (Fraction, "__new__") in bound and (group.GroupElement, "__init__") in bound
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in bound}
    with tracing.installed(tracing.Recorder()):
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)


def traced_counts(seed, items):
    workload = workloads.NormalizerSweep(seed)
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        for i in range(items):
            with recorder.item_open(i):
                workload.run(i)
    metrics, _ = tracing.layer_metrics(recorder, 1.0)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def test_traced_counts_repeat_for_a_seed():
    first = traced_counts(3, 25)
    assert first["group.multiply.calls"] > 0 and first["exact.fraction_new.calls"] > 0
    assert traced_counts(3, 25) == first


def test_cli_contract_breach_is_a_failure_not_a_crash():
    breach = ["lattice", "info", "--lattice", '{"family":"dim4"}']
    workload = workloads.CliBreaches(1)
    index = next(i for i, (argv, _) in enumerate(workload.items) if argv == breach)
    runner = harness.Runner(workload)
    runner(index)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert workloads.run_cli(breach)[0] == "raised KeyError"
