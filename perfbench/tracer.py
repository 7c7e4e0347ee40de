"""Outside-in tracer: wraps agdeform's layer functions at runtime.

Nothing under src/ is edited.  Each target is found by module and
qualified name; the wrapper replaces the function on its class, and for a
module-level function on every loaded agdeform module that holds it, so
that a caller reaching it through an import alias (``checks.membership``
as well as ``linalg.membership``) is traced too.

Spans nest on an in-memory stack.  A span's self time is its duration
minus the durations of the wrapped spans directly inside it, so self
times of all targets add up to at most the traced wall time.  Per-name
aggregates are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0
    hits: int = 0
    amount: int = 0
    durations_ns: list[int] | None = None


# observe(stat, args, result) records a layer-specific count after a call.
def _count_exact(stat: Stat, args: tuple, result) -> None:
    stat.hits += result is not None


def _count_member(stat: Stat, args: tuple, result) -> None:
    stat.hits += result


def _count_terms(stat: Stat, args: tuple, result) -> None:
    stat.amount += len(result.coeffs)


def _count_cells(stat: Stat, args: tuple, result) -> None:
    stat.amount += args[0].nrows * args[0].ncols


@dataclass(frozen=True)
class Target:
    """One traced function, the extra figures it reports, and what it should move."""

    name: str
    module: str
    qualname: str
    moves: str
    observe: Callable | None = None
    extra: tuple[str, ...] = ()
    durations: bool = False


TARGETS: tuple[Target, ...] = (
    Target("exactalg.trial_div", "agdeform.exactalg", "_divide_exact",
           "wall_s and setup_s on verify-n4; nothing on rank-n5",
           _count_exact, ("hit_ratio",)),
    Target("exactalg.poly_mul", "agdeform.exactalg", "Polynomial.__mul__",
           "wall_s on verify-n4", _count_terms, ("terms_out",)),
    Target("exactalg.poly_add", "agdeform.exactalg", "Polynomial.__add__",
           "wall_s on verify-n4"),
    Target("exactalg.rf_eq", "agdeform.exactalg", "RationalFunction.__eq__",
           "wall_s on verify-n4"),
    Target("exactalg.poly_eval", "agdeform.exactalg", "Polynomial.evaluate",
           "wall_s and torsion.sweep.points_per_s on sweep-n3"),
    Target("torsion.assembler_eval", "agdeform.torsion", "TorsionAssembler.evaluate",
           "wall_s and torsion.sweep.points_per_s on sweep-n3", None, ("p50_ms", "p90_ms"), True),
    Target("linalg.membership", "agdeform.linalg", "membership",
           "wall_s and torsion.sweep.points_per_s on sweep-n3",
           _count_member, ("hit_ratio", "p50_ms", "p90_ms"), True),
    Target("linalg.rref", "agdeform.linalg", "rref",
           "wall_s on rank-n5 and verify-n4", _count_cells, ("cells",)),
    Target("linalg.mat_mul", "agdeform.linalg", "MatrixQ.__mul__",
           "wall_s on rank-n5 and verify-n4"),
    Target("linalg.sparse_rank", "agdeform.linalg", "sparse_rank",
           "wall_s on rank-n5 and verify-n4"),
    Target("reptheory.verify_grading", "agdeform.reptheory",
           "GradedAlgebraSpec.verify_grading", "wall_s on rank-n5 and verify-n4"),
    Target("deform.build_Phi", "agdeform.deform", "build_Phi",
           "setup_s; peak_rss_mb under caching"),
    Target("curvature.nabla2_phi", "agdeform.curvature", "nabla2_phi",
           "setup_s; peak_rss_mb under caching"),
    Target("curvature.project_kappa", "agdeform.curvature", "project_kappa",
           "setup_s; peak_rss_mb under caching"),
    Target("torsion.assembler_build", "agdeform.torsion", "TorsionAssembler.__init__",
           "setup_s; peak_rss_mb under caching"),
    Target("reptheory.build_partial1", "agdeform.reptheory", "build_partial1",
           "setup_s; peak_rss_mb under caching"),
    Target("sampling.sample_points", "agdeform.sampling", "sample_points",
           "nothing: a control that stays negligible"),
)


class Tracer:
    """Installs span-recording wrappers and puts the originals back."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None,
             durations: bool = False) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        if durations and stat.durations_ns is None:
            stat.durations_ns = []
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_ns += elapsed - children[0]
                if stat.durations_ns is not None:
                    stat.durations_ns.append(elapsed)
            if observe is not None:
                observe(stat, args, result)
            return result

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets: tuple[Target, ...] = TARGETS, package: str = "agdeform") -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            *outer, attr = target.qualname.split(".")
            owner = module
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            wrapper = self.wrap(target.name, original, target.observe, target.durations)
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, alias, wrapper)

    def restore(self) -> None:
        """Put back every replaced attribute; raise if any did not come back."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches
                 if getattr(o, a) is not orig]
        if stale:
            raise RuntimeError("wrappers left in place: " + ", ".join(stale))

    def snapshot(self) -> dict[str, dict]:
        return {name: asdict(stat) for name, stat in self.stats.items()}
