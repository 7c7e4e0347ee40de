"""The benchmark's workloads and the check of their outputs.

Each workload is one agdeform CLI command.  Its expected check ids are
written out here rather than read from the program, so a check that goes
missing from the output counts as failed instead of silently shrinking the
denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

QUICK_FAMILIES = {
    "flow": ("group_law", "holonomy_cocycle", "split_form_agreement", "q_transformation"),
    "eigen.law": ("v", "iota", "v_tilde", "iota_tilde", "w", "kappa", "w_tilde", "kappa_tilde"),
    "deform": ("coefficients", "nilpotent", "partial_traces", "inverse", "invariance",
               "unscaled_factor", "degree_ledger"),
    "curvature": ("displays", "trace_free", "reduction", "kappa"),
    "reptheory": ("grading", "rank", "kernel", "complement", "lambda_split",
                  "trace_membership", "trace_span", "lemma_image"),
}


def _family(prefix: str, n: int) -> list[str]:
    return [f"{prefix}.{name}.n{n}" for name in QUICK_FAMILIES[prefix]]


def torsion_ids(n: int) -> list[str]:
    ids = [f"torsion.{kind}.n{n}.s{s}" for s in range(2, n + 1)
           for kind in ("bracket", "d_expansion")]
    return ids + [f"torsion.zero_deformation.n{n}"]


def quick_ids(n: int) -> list[str]:
    """Checks of `verify --n n` for n >= 4 (no equivariance or surjectivity)."""
    ids = _family("flow", n) + _family("eigen.law", n) + _family("deform", n)
    return ids + torsion_ids(n) + _family("curvature", n) + _family("reptheory", n)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    expected_ids: tuple[str, ...]
    sweep_points: int = 0

    def cli_args(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--format", "json", "--timings"]


# Each child takes a few seconds so that a run holds several and reports
# their median: on a shared host single children of the same command vary
# by 20% or more.  That is why the quick pass runs at n=4 and the sweep
# samples two balls (200 points) rather than eight.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-n4",
            "single-n quick pass at n=4: exactalg construction (trial division, "
            "products) and the per-n builders, with setup outside the checks",
            ("verify", "--n", "4"),
            tuple(quick_ids(4)),
        ),
        Workload(
            "sweep-n3",
            "200-point seeded torsion sweep at n=3: exactalg evaluation and linalg "
            "membership per point, with little symbolic construction",
            ("torsion", "--n", "3", "--c=2,-3", "--sample-balls", "2"),
            tuple(torsion_ids(3) + ["torsion.density.n3.s2.c2_m3"]),
            sweep_points=200,
        ),
        Workload(
            "rank-n5",
            "graded-module ranks at n=5: dense linalg and reptheory construction "
            "with no exactalg work, a control for verify-n4",
            ("reptheory", "--n", "5"),
            tuple(_family("reptheory", 5)),
        ),
    )
}


@dataclass(frozen=True)
class Judged:
    """Per expected check id, whether it passed; payload is None if unparseable."""

    passed: dict[str, bool]
    payload: dict | None

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.passed.values())


def density_id(workload: Workload) -> str | None:
    return next((i for i in workload.expected_ids if i.startswith("torsion.density.")), None)


def judge(workload: Workload, exit_code: int, stdout: str) -> Judged:
    """Check one CLI output: every expected id present and passing.

    On a sweep, the density check also needs the expected point count with
    every point passing the lemma and avoiding Im(partial1).
    """
    try:
        payload = json.loads(stdout)
        statuses = {r["checkId"]: r["status"] for r in payload["reports"]}
    except (ValueError, KeyError, TypeError):
        return Judged({i: False for i in workload.expected_ids}, None)
    passed = {i: statuses.get(i) == "pass" for i in workload.expected_ids}
    if (exit_code == 0) != all(passed.values()):
        # The exit code disagrees with the reports, so no verdict can be trusted.
        passed = dict.fromkeys(passed, False)
    sweep_id = density_id(workload)
    if sweep_id is not None:
        points = payload.get("points", [])
        good = len(points) == workload.sweep_points and all(
            p.get("lemmaVerdict") is True and p.get("membershipVerdict") is False
            for p in points
        )
        passed[sweep_id] = passed[sweep_id] and good
    return Judged(passed, payload)


def verdicts(payload: dict | None) -> tuple | None:
    """What the traced and untraced runs must agree on: statuses and point verdicts."""
    if payload is None:
        return None
    statuses = sorted((r["checkId"], r["status"]) for r in payload["reports"])
    points = [(p.get("point"), p.get("lemmaVerdict"), p.get("membershipVerdict"))
              for p in payload.get("points", [])]
    return statuses, points
