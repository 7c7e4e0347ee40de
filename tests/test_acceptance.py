"""Acceptance gate: eleven numbered criteria over the full check suite.

The suite is exact rational arithmetic throughout: every criterion is a
zero-tolerance identity, an exact comparison at sampled rational points or
an integer dimension count.  Criterion 11 compares Phi's shared table of
first derivatives, and its displayed second derivatives, with exact dual
and hyper-dual evaluation by equality.  One test per criterion keeps the -v
output at one line each.
"""

import hashlib
import json

import pytest

from agdeform import checks, cli

#: sha256 of json.dumps([r.as_dict() for r in reports], indent=2,
#: sort_keys=True) for the fixture below.  A refactor must keep these bytes;
#: a change to a check id, verdict or detail text must update the digest.
#: With torsion.zero_deformation.n4 filtered out, the reports hash to the
#: digest before that id joined the acceptance suite, 18dd102e....
REPORTS_SHA256 = "0c304437d26148dc7cd794b93c1fa88662ba12104f83b044b1c40f65e8047e8d"

#: sha256 of the stdout of `agdeform verify --n 2 --format json`, the one
#: pinned output that runs the flow and eigen checks at n = 2, where each
#: kappa family holds one law.
VERIFY_N2_SHA256 = "fcee074d5aeb0076920fbe5835b647a858e8493e7d88266c721f7d5cc3445f85"

#: sha256 of the stdout of `agdeform verify --n 5 --format json`.  The
#: fixture runs curvature at n = 3 and 4 only; at n = 5 the checks read the
#: kappa triple (1, 1, 1) alone, so its bytes are pinned separately.
VERIFY_N5_SHA256 = "52431afdf8977ac14af5e126c65aff9072d57fbee08342f4811f3efbab3338b5"

#: sha256 of the stdout of `agdeform verify --n 6 --format json`, the
#: largest n pinned: every n reads Phi's table of first derivatives.
VERIFY_N6_SHA256 = "25bd4f545d0db57da603d416079dc24e9632c058c18db3e853e3da03a4b6b01c"

#: sha256 of the stdout of `agdeform flow --n 4 --format json`: the four
#: flow checks alone, which read the generic flow frame at n = 4.
FLOW_N4_SHA256 = "e5537d6c7800c0de733bd97a2809dea72673d9680b85b34e338ab57e0c30dd65"

#: sha256 of the `--format json` stdout of two more flow commands: the four
#: flow checks at n = 12, and a numeric point with fractional and zero
#: entries flowed by two rational times, the closed form on exact rationals.
FLOW_SHA256 = {
    "flow --n 12":
        "54e4db584683216321fa758b0ffc9964d092a95a0773549b6ad82ec808723027",
    "flow --n 5 --point 1/2,-3;0,2/7;1,1;0,0;3,-1 --t 2/3 --s=-1/4":
        "80f76ed22b615541138d0f4074778fc92cb21dbdaa26a52d7ccf875305c0672a",
}

#: sha256 of the `--format json` stdout of the command behind each benchmark
#: workload (perfbench/workloads.py, which adds --timings), so the tier-1
#: suite byte-checks the code they run.
WORKLOAD_SHA256 = {
    "verify-n4": (
        "verify --n 4 --seed 1",
        "6fc4158a3e79414261ff534886c0f1f2cd8e15f0b60182c6a439fc285a1dac38",
    ),
    "sweep-n3": (
        "torsion --n 3 --c=2,-3 --sample-balls 2 --seed 1",
        "57fbb441cff7ad3bbf8369a7f56114ef6ed211adeaf32e4955c54f93f45aa933",
    ),
    "rank-n5": (
        "reptheory --n 5 --seed 1",
        "c1309098b6a38a2e7ef0eca9a25f93f456d82a913191f0797baaa2fea3a1ac17",
    ),
}

#: sha256 of the `--format json` stdout of `curvature --c`, the one output
#: that renders a substituted stored form (kappa with c bound to numbers).
CURVATURE_C_SHA256 = {
    "curvature --n 4 --r 3 --c=1,0,2":
        "1c34fb1597a414ff3f9bb58b36a7aa53053cc3f10343530b95d50b88acecd8bc",
    "curvature --n 3 --c=2,-3 --r 2 --emit latex":
        "d3ddf7bac91827a914aa5c7c57662a31742017123d748e62296ef017dd127dbd",
}

#: sha256 of the `--format json` stdout of a sweep at n > 3 whose c has a
#: zero and a fractional entry, both bound by substitution into the
#: symbolic Phi.
TORSION_C_SHA256 = {
    "torsion --n 5 --c=1,0,-1/2,2 --sample-balls 1":
        "5af0dab2729495058b0878a58fea73168fc45d4d863f2d85b40d0d49cba3b381",
}

#: sha256 of the text-mode stdout (no --format) of commands whose text
#: output has its own layout: the flowed point, the emitted expressions,
#: the sweep summary line and the check lines with their tally.
TEXT_SHA256 = {
    "flow --point 1,3;2,0;0,0 --t 1":
        "17dbb236e59557995a7987fd530137d2f76172355ad2909c19855f2890701800",
    "phi --n 3 --emit latex":
        "08508ed40395abc317e1bafe187ab40e05423f470630594214cee73d2d7e0d9f",
    "torsion --n 3 --c=2,-3 --sample-balls 1 --seed 1":
        "c1a793f784c4b28b13b4c86c2b30586b133f998e5095d9dffde924e3ea3afc9f",
    "curvature --n 3 --emit latex":
        "49cdb12eee5c946f9d0a4a13da0f6cc77b7c3ac7c829dd3b15cd076b952d5252",
    "reptheory --n 2 --check surjective":
        "488b37c46600eba33c5cc8c8d2a6edc678051154d2812457dce238419a332027",
    "verify --n 3":
        "9a949363e33dd9fdeecacaa5139a94dc42dbdde37b70ff6f7de632a9b567c28c",
}

CRITERIA = {
    1: ("flow group law, holonomy cocycle, and split form",
        ("flow.group_law.", "flow.holonomy_cocycle.", "flow.split_form_agreement.")),
    2: ("transformation of the quadric polynomial q",
        ("flow.q_transformation.",)),
    3: ("eigen-section transformation laws",
        ("eigen.law.",)),
    4: ("deformation coefficients, nilpotency, trace-freeness, inverse",
        ("deform.coefficients.", "deform.nilpotent.", "deform.partial_traces.",
         "deform.inverse.")),
    5: ("flow invariance of the deformation family",
        ("deform.invariance.", "deform.unscaled_factor.")),
    6: ("torsion bracket closed form, D-expansion, Phi kills every bracket,"
        " the Phi dPhi part of every bracket cancels",
        ("torsion.bracket.", "torsion.d_expansion.", "torsion.phi_kills_brackets.",
         "torsion.frame_quadratic_cancels.")),
    7: ("nonvanishing torsion class on shrinking ball sweeps",
        ("torsion.density.", "torsion.zero_deformation.")),
    8: ("graded module ranks, kernels, trace span, equivariance",
        ("reptheory.",)),
    9: ("second-derivative displays and the harmonic component",
        ("curvature.displays.", "curvature.trace_free.", "curvature.reduction.",
         "curvature.kappa.", "curvature.not_pure_trace.", "curvature.mixed_partials.")),
    10: ("homogeneity degree ledger of the deformation",
         ("deform.degree_ledger.",)),
    11: ("exact dual-number derivative oracle",
         ("exactalg.derivative_oracle.",)),
}


@pytest.fixture(scope="module")
def reports():
    return checks.acceptance_suite(seed=0, ball_count=8)


def _criterion(reports, number):
    label, prefixes = CRITERIA[number]
    matched = [r for r in reports if r.check_id.startswith(prefixes)]
    assert matched, f"criterion {number} matched no checks"
    failing = [r for r in matched if r.status != checks.PASS]
    assert not failing, (
        f"criterion {number} ({label}): "
        + "; ".join(f"{r.check_id}: {r.detail}" for r in failing)
    )
    print(f"PASS criterion {number}: {label} ({len(matched)} checks)")


def test_criterion_01_flow_construction(reports):
    _criterion(reports, 1)


def test_criterion_02_q_transformation(reports):
    _criterion(reports, 2)


def test_criterion_03_eigen_section_laws(reports):
    _criterion(reports, 3)


def test_criterion_04_deformation_algebra(reports):
    _criterion(reports, 4)


def test_criterion_05_flow_invariance(reports):
    _criterion(reports, 5)


def test_criterion_06_torsion_closed_forms(reports):
    _criterion(reports, 6)


def test_criterion_07_torsion_nonvanishing_sweep(reports):
    _criterion(reports, 7)


def test_criterion_08_graded_module_structure(reports):
    _criterion(reports, 8)


def test_criterion_09_harmonic_curvature(reports):
    _criterion(reports, 9)


def test_criterion_10_degree_ledger(reports):
    _criterion(reports, 10)


def test_criterion_11_derivative_oracle(reports):
    _criterion(reports, 11)


def test_every_check_green(reports):
    bad = [r for r in reports if r.status != checks.PASS]
    assert not bad, "; ".join(f"{r.check_id}: {r.detail}" for r in bad)
    covered = set()
    for _, prefixes in CRITERIA.values():
        for r in reports:
            if r.check_id.startswith(prefixes):
                covered.add(r.check_id)
    missing = [r.check_id for r in reports if r.check_id not in covered]
    assert not missing, f"checks outside every criterion: {missing}"


def test_reports_byte_identical(reports):
    text = json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS_SHA256


def test_verify_n2_output_byte_identical(capsys):
    assert cli.main(["verify", "--n", "2", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N2_SHA256


def test_verify_n5_output_byte_identical(capsys):
    assert cli.main(["verify", "--n", "5", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N5_SHA256


def test_verify_n6_output_byte_identical(capsys):
    assert cli.main(["verify", "--n", "6", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N6_SHA256


def test_flow_n4_output_byte_identical(capsys):
    assert cli.main(["flow", "--n", "4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FLOW_N4_SHA256


@pytest.mark.parametrize("command", sorted(FLOW_SHA256))
def test_flow_output_byte_identical(capsys, command):
    assert cli.main([*command.split(), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FLOW_SHA256[command]


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SHA256))
def test_workload_output_byte_identical(capsys, workload):
    command, digest = WORKLOAD_SHA256[workload]
    assert cli.main([*command.split(), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", sorted(CURVATURE_C_SHA256))
def test_curvature_c_output_byte_identical(capsys, command):
    assert cli.main([*command.split(), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CURVATURE_C_SHA256[command]


@pytest.mark.parametrize("command", sorted(TORSION_C_SHA256))
def test_torsion_c_output_byte_identical(capsys, command):
    assert cli.main([*command.split(), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TORSION_C_SHA256[command]


@pytest.mark.parametrize("command", sorted(TEXT_SHA256))
def test_text_output_byte_identical(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_SHA256[command]
