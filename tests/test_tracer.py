"""The benchmark's span tracer patches entries that each class defines
itself, and puts every one back on uninstall.

`perfbench/tracing.py` reads each patched method from the owning class's
own `__dict__`, so a refactor that lets one of them be inherited breaks
`perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import pytest

from projlab import intersection, operators
from projlab import sets as sets_mod

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

OWN_ENTRIES = (
    [(cls, "project") for cls in sets_mod.SET_TYPES.values()]
    + [(operators.RelaxedProjector, "apply"), (operators.SemiIntrepidProjector, "apply"),
       (operators.GeneralizedDR, "apply_with_trace")]
    + [(intersection.IntersectionHandle, "nearest"),
       (intersection.IntersectionHandle, "distance")]
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_covers_every_set_type(tracing):
    assert sorted(tracing.SET_TAGS.values()) == sorted(sets_mod.SET_TYPES)
    assert {getattr(sets_mod, name) for name in tracing.SET_TAGS} \
        == set(sets_mod.SET_TYPES.values())


@pytest.mark.parametrize("owner, attr", OWN_ENTRIES,
                         ids=[f"{o.__name__}.{a}" for o, a in OWN_ENTRIES])
def test_traced_entries_are_own_attributes(owner, attr):
    assert attr in owner.__dict__


def test_install_then_uninstall_restores_every_patch(tracing):
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in OWN_ENTRIES}
    tracer = tracing.Tracer().install()
    try:
        patches = list(tracer._patches)
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr} not traced"
    finally:
        tracer.uninstall()
    assert not tracer._patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original
