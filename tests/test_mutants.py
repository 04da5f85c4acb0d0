"""Source mutants that a named check must kill.

Each row names the ``dbpeq`` module that holds a function, the function's
qualified name there, a fragment of its source that must occur exactly
once, the fragment's replacement, the check that must fail on the mutant
and what its failure says. The mutant is compiled in memory from
``inspect.getsource`` in the module's namespace and bound with
``monkeypatch`` into every ``dbpeq`` module and every loaded test module
that binds the function (a method into its class), so a test that
imported the name sees the mutant too; nothing is written to a file. A
refactor that removes a fragment fails here, so the row is rewritten,
never dropped.
"""

import functools
import importlib
import inspect
import sys
import textwrap
from typing import Callable, NamedTuple

import pytest

from dbpeq import verify
import test_bcd
import test_bench
import test_dbpnet
import test_equalizers
import test_one_symmetry_owner
import test_scenario


class Mutant(NamedTuple):
    module: str
    function: str
    fragment: str
    replacement: str
    check: Callable[[], None]
    says: str   # what the check's failure on the mutant must match


def _verify(name):
    result = verify.CHECKS[name]()
    assert result.passed, f"dbpeq verify {name} fails: {result.detail}"


def _nonexistent_links_raise():
    for case in test_dbpnet.NONEXISTENT_LINKS:
        test_dbpnet.TestTopology().test_links_of_nonexistent_nodes_raise(*case)


def _payloads(row):
    return functools.partial(test_dbpnet.check_hop_payloads, row)


def _patched(test, *args):
    """A test that takes ``monkeypatch`` first, run in its own MonkeyPatch."""
    def check():
        with pytest.MonkeyPatch.context() as mp:
            test(mp, *args)
    return check


MUTANTS = {
    # the ring forwards each DU's own part instead of the running sum
    "M1": Mutant("dbpnet", "_reduce", "part if star else acc", "part",
                 _payloads("bdac-daisy"), "Arrays are not equal"),
    # pass 2 relays DU c's B part instead of the accumulated B0
    "M2": Mutant("dbpnet", "run_bcd_daisy", '("b_acc", b_acc)', '("b_acc", part)',
                 _payloads("bcd"), "Arrays are not equal"),
    # the summed Gram goes back with I/Es added
    "M3": Mutant("dbpnet", "run_bdac", '"gram_total", gram)', '"gram_total", atot)',
                 _payloads("bdac"), "Arrays are not equal"),
    # the LRD broadcast sends the conjugate of the final V
    "M4": Mutant("dbpnet", "run_lrd_daisy", '"lrd_v_broadcast", v)',
                 '"lrd_v_broadcast", v.conj())', _payloads("bcd-lrd"), "Arrays are not equal"),
    # sdr concatenates the compressed data and cdr sums it
    "M5": Mutant("equalizers", "dr_combine", '(np.vstack, "cdr") if concatenate else (sum, "sdr")',
                 '(sum, "sdr") if concatenate else (np.vstack, "cdr")',
                 test_equalizers.TestDimensionalityReduction().test_sdr_oracle,
                 "Not equal to tolerance"),
    # the fixed-sweep step moves W_c only half way to the block minimizer
    "M6": Mutant("equalizers", "bcd_sweep_step", "    w_c[...] = w_new",
                 "    w_new = (w_new + w_c) / 2\n    w_c[...] = w_new",
                 test_bcd.TestBlockUpdate().test_sweep_step_matches_block_update,
                 "Not equal to tolerance"),
    # the BCD closed form counts one sweep more than ran
    "M7": Mutant("dbpnet", "formula_bcd", "2 * t * c * k", "2 * (t + 1) * c * k",
                 functools.partial(_verify, "ledger-formulas"), "ledger-formulas fails"),
    # the converge-mode stop rule is a million times looser
    "M8": Mutant("equalizers", "bcd_iterate", "<= tol2 *", "<= 1e6 * tol2 *",
                 functools.partial(_verify, "bcd-convergence"), "bcd-convergence fails"),
    # the noise law's white part has twice its power
    "M9": Mutant("scenario", "colored_noise", "np.sqrt(n0) * z", "np.sqrt(2 * n0) * z",
                 test_scenario.TestGeneration().test_white_noise_covariance_is_scaled_identity,
                 "Not equal to tolerance"),
    # a hop from a DU id outside 1..C is checked against the ring rule only
    "M10": Mutant("dbpnet", "Topology.check_link", "1 <= src <= self.C and ", "",
                  _nonexistent_links_raise, "DID NOT RAISE"),
    # the data noise's white part has twice its power
    "M11": Mutant("scenario", "scale_symbols", "realization.Hbar, w, z",
                  "realization.Hbar, w, np.sqrt(2) * z",
                  test_scenario.TestGeneration().test_white_data_noise_covariance_is_scaled_identity,
                  "Not equal to tolerance"),
    # the data's interference has twice its power
    "M12": Mutant("scenario", "scale_symbols", "realization.Hbar, w, z",
                  "realization.Hbar, np.sqrt(2) * w, z",
                  test_scenario.TestGeneration().test_colored_data_noise_covariance,
                  "from the law"),
    # a value on a decision boundary goes to the lower level
    "M13": Mutant("scenario", "slice_symbols", "idx -= v < b", "idx -= v <= b",
                  test_scenario.TestModulation().test_slice_zero_rounds_up,
                  "Not equal to tolerance"),
    # a trial's draws stay writable
    "M14": Mutant("scenario", "_read_only", "a.setflags(write=False)", "pass",
                  test_scenario.TestGeneration().test_draws_are_read_only, "DID NOT RAISE"),
    # each SNR of a trial draws its channel again
    "M15": Mutant("bench", "trial_cells", "scale_channel(cfg, channel)",
                  "scale_channel(cfg, draw_channel(cfg, trial))",
                  _patched(test_bench.TestTrialDraws().test_each_substream_is_opened_once_per_trial),
                  r"== \[\(2, 0\), \(2, 1\)\]"),
    # the converge kernel does not see that BLAS updated a copy of R^T
    "M16": Mutant("equalizers", "bcd_newton_step", "is not rt", "is None",
                  functools.partial(
                      test_bcd.TestBlockUpdate().test_newton_step_refuses_operands_it_would_copy,
                      "c-ordered-rt"),
                  "DID NOT RAISE"),
    # the converge loop makes a fresh R^T view after each step
    "M17": Mutant("equalizers", "bcd_iterate", "if after is not None:",
                  "if converge:\n                live = state.view(np.float64).T\n"
                  "            if after is not None:",
                  _patched(test_bcd.TestConvergence().test_converge_loop_binds_its_operands_once,
                           "library"),
                  "where False = all"),
    # the centralized LMMSE Gram is not hermitized before its solve
    "M18": Mutant("equalizers", "lmmse_centralized", "hermitize(h.conj().T @ rinv_h)",
                  "(h.conj().T @ rinv_h)",
                  _patched(test_one_symmetry_owner.test_every_hpd_input_is_exactly_hermitian),
                  "not exactly Hermitian"),
}


def _bind(monkeypatch, row, replacement):
    """Bind the mutant of ``row`` with ``replacement`` for its fragment."""
    module = importlib.import_module(f"dbpeq.{row.module}")
    *path, name = row.function.split(".")
    owner = functools.reduce(getattr, path, module)
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(row.fragment) == 1, \
        f"{row.function}: fragment {row.fragment!r} is not unique or is gone"
    namespace = {}
    exec(compile(source.replace(row.fragment, replacement), f"<mutant of {row.function}>",
                 "exec"), vars(module), namespace)
    owners = [owner] if path else [
        m for key, m in list(sys.modules.items())
        if (key.split(".")[0] == "dbpeq" or key.split(".")[-1].startswith("test_"))
        and getattr(m, name, None) is original]
    for target in owners:
        monkeypatch.setattr(target, name, namespace[name])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_is_killed(monkeypatch, mutant):
    row = MUTANTS[mutant]
    _bind(monkeypatch, row, row.replacement)
    with pytest.raises((AssertionError, pytest.fail.Exception), match=row.says):
        row.check()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_unmutated_copy_passes(monkeypatch, mutant):
    # the same in-memory build with the fragment kept: the kill is the replacement's
    row = MUTANTS[mutant]
    _bind(monkeypatch, row, row.fragment)
    row.check()
