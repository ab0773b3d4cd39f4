"""Acceptance gate: one test per criterion, each running its verification
suite at the stated size and tolerance and printing a pass/fail line per
checked assertion.  `scottish-lab verify --suite all` runs the same suites
from the command line.  The reports come from the session's `suite_report`
fixture, which also records the threshold keys each suite reads."""


def _assert_suite(report):
    for case in report.cases:
        tag = "PASS" if case.passed else "FAIL"
        print(f"[{tag}] {report.suite}/{case.name}: {case.detail}")
    failed = [c for c in report.cases if not c.passed]
    assert not failed, f"{report.suite}: {[(c.name, c.detail) for c in failed]}"


def test_criterion_01_kernel_suite(suite_report):
    _assert_suite(suite_report("kernel"))


def test_criterion_02_besov_engine(suite_report):
    _assert_suite(suite_report("besov"))


def test_criterion_03_injective_norm_oracle_equivalence(suite_report):
    _assert_suite(suite_report("inj-oracle"))


def test_criterion_04_hankel_correspondence_shadow(suite_report):
    _assert_suite(suite_report("hankel-shadow"))


def test_criterion_05_moment_chain_property(suite_report):
    _assert_suite(suite_report("theorem-re"))


def test_criterion_06_decay_witness_dichotomy(suite_report):
    _assert_suite(suite_report("witness88"))


def test_criterion_07_growth_witness(suite_report):
    _assert_suite(suite_report("witness8"))


def test_criterion_08_duality_and_rank_one_brackets(suite_report):
    _assert_suite(suite_report("duality"))


def test_criterion_09_averaging_identities(suite_report):
    _assert_suite(suite_report("mazur-id"))


def test_criterion_10_cli_contract(suite_report):
    _assert_suite(suite_report("cli-roundtrip"))
