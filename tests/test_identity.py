"""Tier-1 byte-identity gate: nine of the eleven hashes that
tools/identity_hashes.py prints, pinned.

The hash recipes are imported from that script, not copied, so the
gate and the script cannot drift apart.  The other two hashes, of the
benchmark-sized studies, take seconds and stay with the script.
"""

import importlib.util
from pathlib import Path

import numpy as np

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "identity_hashes.py"
_spec = importlib.util.spec_from_file_location("identity_hashes", _SCRIPT)
identity_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity_hashes)

PINNED_NUMPY = "2.4.6"


def test_families_json_is_byte_identical():
    # the JSON of the 14 families at their default parameters: a change
    # here is a change to a family's float operations or to the format
    assert identity_hashes.families_hash() == "8028f500af569bb6"


def test_family_members_are_byte_identical():
    # 20 random members of every family, the 10 whose defaults are
    # inadmissible included
    got = identity_hashes.members_hash()
    assert got == "724b011f1a4c131c", (
        "the hash of 20 random members per family is %s under numpy %s; "
        "it was pinned under numpy %s.  Under that numpy a mismatch means "
        "a family's float operations, the JSON format or draw_member "
        "changed.  Under another numpy the parameter draws of "
        "np.random.default_rng may differ: compare python "
        "tools/identity_hashes.py on the parent tree before blaming the "
        "change." % (got, np.__version__, PINNED_NUMPY))


def test_criterion_9_csvs_are_byte_identical():
    args = dict(identity_hashes.STUDIES)["criterion-9"]
    got = identity_hashes.study_hash(args)
    assert got == "fb925f981d59aa08", (
        "the criterion-9 errors.csv/orders.csv hash is %s under numpy %s; "
        "it was pinned under numpy %s.  Under that numpy a mismatch means "
        "an output bit of the study moved.  Under another numpy the last "
        "bit of arcsinh, which f of nonlinear16 uses, may differ: compare "
        "python tools/identity_hashes.py on the parent tree before "
        "blaming the change." % (got, np.__version__, PINNED_NUMPY))


def test_cli_exit_codes_and_text_are_byte_identical():
    # exit code, stdout and stderr of check, cost, enumerate and three
    # refusals: an invalid --file and two family members
    assert identity_hashes.cli_hash() == "ab4c39b35a964eca"


def test_report_floats_are_bit_identical():
    # every float of the criterion-9 reports and orders and of estimates
    # in 2, 20 and 102 batches, as float.hex: a t quantile one ulp off,
    # which the 6-digit CSVs hide, moves this hash
    got = identity_hashes.reports_hash()
    assert got == "6001a251893ce748", (
        "the hash of the report floats is %s under numpy %s; it was "
        "pinned under numpy %s.  Under that numpy a mismatch means an "
        "output bit of an estimate moved.  Under another numpy the last "
        "bit of arcsinh, which f of nonlinear16 uses, may differ, and "
        "past 101 batches the t quantile is the installed scipy's: "
        "compare python tools/identity_hashes.py on the parent tree "
        "before blaming the change." % (got, np.__version__, PINNED_NUMPY))


def test_exact_one_step_expectations_are_bit_identical():
    # float.hex of the exact one-step expectation of the named schemes
    # and 3 random members per family on linear p = 1, 2 and system18
    assert identity_hashes.exact_hash() == "83a51646fc330300"


def test_increment_draws_are_byte_identical():
    # draw() for m = 1 to 4 through a substream, a CountingStream and
    # row windows with lo > 0, and support_batch(): a change to the
    # word order, the mapping or the layout moves this hash
    assert identity_hashes.draws_hash() == "d1dce222459a6202"


def test_exact_n_step_expectations_are_bit_identical():
    # float.hex of the support tree of the named schemes at n = 2 and 3
    # on linear p = 1, 2 and at n = 2 on system18, where the regression
    # test of the exact weak errors allows 1e-12
    assert identity_hashes.tree_hash() == "1d0ae77e831f1328"


def test_tableau_structure_records_are_byte_identical():
    # the nonzero pattern, the validate() details and the node bits of
    # the named schemes, random members and planted defects at every s
    assert identity_hashes.structure_hash() == "ea798d40b5f6a1d7"
