"""The benchmark's workloads: fixed lists of torictate CLI commands on fixtures/.

Commands come in groups, one per pipeline mechanism. Each command has an id,
used in metric names (cmd.<id>_s) and as the key of its stored reference
answer. The seed only permutes the order of a workload's commands within a
pass; the commands themselves never change.

Two workloads of two groups each, rather than one workload per group: on a
2-core shared host, the run-to-run spread of a pass falls with the time one
run measures, and a comparison's fixed time budget (22 runs per workload in
under an hour) allows runs twice as long with two workloads as with four.

`zero` and `busy` are the trace predictions checked on every traced run,
per group: layers in `zero` must not be called by the group's commands,
layers in `busy` must be. `busy` makes each zero-call prediction meaningful,
since a layer whose wrapper was never installed would read zero everywhere.
"""

from collections import namedtuple

Group = namedtuple("Group", "commands zero busy")
Workload = namedtuple("Workload", "why groups")


def _cmds(*pairs):
    return [(cid, line.split()) for cid, line in pairs]


GROUPS = {
    # Fourier-Mukai Tate path on Cl-rank-2 stacks: the homotopy-transfer walk.
    "fm_rank2": Group(
        commands=_cmds(
            ("cohomology_hirz3", "cohomology fixtures/hirz3.tate"),
            ("cohomology_p1p1", "cohomology fixtures/p1p1.tate"),
        ),
        zero=["dmres.min_free_resolution"],
        busy=["tate._monomial_transfer"],
    ),
    # Cl = Z exterior fast path: many small dense eliminations, one run at a
    # prime near 2^31, and the quick README commands with their fixed costs.
    "weighted_exterior": Group(
        commands=_cmds(
            ("cohomology_p112_w30", "cohomology fixtures/p112.tate --window -30:30"),
            ("tate_p112_w24_p2147483647", "tate fixtures/p112.tate --window -24:24 --prime 2147483647"),
            ("cohomology_p112_w8", "cohomology fixtures/p112.tate --window -8:8"),
            ("betti_p156_M", "betti fixtures/p156-trunc.tate --module M"),
            ("tate_p112_w6", "tate fixtures/p112.tate --window -6:6"),
            ("verify_p112_w6", "verify fixtures/p112.tate --window -6:6"),
            ("diagonal_p12", "diagonal fixtures/p12.tate --verify"),
        ),
        zero=["tate._monomial_transfer"],
        busy=["dmres.min_free_resolution", "linalg.kernel_basis"],
    ),
    # The independent Cech oracle in rank 2 and rank 1: lattice-point
    # enumeration and localized pieces.
    "cech_oracle": Group(
        commands=_cmds(
            ("regularity_hirz3_H", "regularity fixtures/hirz3.tate --module H --window -1:1,-1:1"),
            ("oracle_p112_C", "oracle fixtures/p112.tate --module C"),
        ),
        zero=["tate._monomial_transfer", "dmres.min_free_resolution"],
        busy=["laurent._laurent_exponents", "laurent.LocalizedModule.piece"],
    ),
    # Hirzebruch-1 diagonal: one large sparse rank and a square-zero check
    # per bidegree.
    "diagonal_hirz1": Group(
        commands=_cmds(
            ("diagonal_hirz1", "diagonal fixtures/hirz1.tate --verify"),
        ),
        zero=["tate._monomial_transfer", "dmres.min_free_resolution"],
        busy=["linalg.sparse_rank", "diagonal.check_square_zero"],
    ),
}

WORKLOADS = {
    "tate": Workload(
        why="Tate paths: the Fourier-Mukai transfer walk in Cl rank 2 and the Cl = Z exterior path with its small eliminations",
        groups=["fm_rank2", "weighted_exterior"],
    ),
    "checks": Workload(
        why="independent checks: the Cech oracle's enumeration and pieces, and the Hirzebruch-1 diagonal's sparse ranks; no Tate path",
        groups=["cech_oracle", "diagonal_hirz1"],
    ),
}


def commands(workload):
    """(command id, argv) of every command of a workload, in declared order."""
    return [c for g in workload.groups for c in GROUPS[g].commands]


def documents(workload):
    """The fixture documents a workload's commands read, in first-use order."""
    out = []
    for _, argv in commands(workload):
        if argv[1] not in out:
            out.append(argv[1])
    return out


def all_commands():
    """(command id, argv) of every command of every workload."""
    return [c for w in WORKLOADS.values() for c in commands(w)]
