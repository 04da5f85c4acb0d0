"""Source mutants that a named check must kill.

Each row names a function of ``dbpeq.dbpnet``, a fragment of its source
that must occur exactly once, the fragment's replacement, and the row
whose hop-payload check (``test_dbpnet.check_hop_payloads``) must fail
on the mutant. The mutant is compiled in memory from
``inspect.getsource`` in the module's namespace and bound into the module
with ``monkeypatch``; nothing is written to a file. A refactor that
removes a fragment fails here, so the row is rewritten, never dropped.
"""

import inspect

import pytest

from dbpeq import dbpnet
from test_dbpnet import check_hop_payloads

MUTANTS = {
    # the ring forwards each DU's own part instead of the running sum
    "M1": ("_reduce", "part if star else acc", "part", "bdac-daisy"),
    # pass 2 relays DU c's B part instead of the accumulated B0
    "M2": ("run_bcd_daisy", '("b_acc", b_acc)', '("b_acc", part)', "bcd"),
    # the summed Gram goes back with I/Es added
    "M3": ("run_bdac", '"gram_total", gram)', '"gram_total", atot)', "bdac"),
    # the LRD broadcast sends the conjugate of the final V
    "M4": ("run_lrd_daisy", '"lrd_v_broadcast", v)', '"lrd_v_broadcast", v.conj())',
           "bcd-lrd"),
}


def _mutant(name, fragment, replacement):
    source = inspect.getsource(getattr(dbpnet, name))
    assert source.count(fragment) == 1, f"{name}: fragment {fragment!r} is not unique or is gone"
    namespace = {}
    exec(compile(source.replace(fragment, replacement), f"<mutant of {name}>", "exec"),
         vars(dbpnet), namespace)
    return namespace[name]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_is_killed(monkeypatch, mutant):
    name, fragment, replacement, row = MUTANTS[mutant]
    monkeypatch.setattr(dbpnet, name, _mutant(name, fragment, replacement))
    with pytest.raises(AssertionError, match="Arrays are not equal"):
        check_hop_payloads(row)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_unmutated_copy_passes(monkeypatch, mutant):
    # the same in-memory build with the fragment kept: the kill is the replacement's
    name, fragment, _, row = MUTANTS[mutant]
    monkeypatch.setattr(dbpnet, name, _mutant(name, fragment, fragment))
    check_hop_payloads(row)
