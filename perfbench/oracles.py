"""Output checks, one per workload.

Each returns a list of problems found; an empty list means the output
is correct.  A run whose check fails counts as entirely failed.
"""

from __future__ import annotations

#: Allowed |recomputed - reported| log-likelihood, relative to
#: |logL|: the report's tree travels as Newick text with branch lengths
#: rounded to 10 significant digits, which moves logL far less.
LOGL_RTOL = 1e-6


def check_dsearch(inputs, report) -> list[str]:
    """Planted homologs rank top for every query, and every reported
    hit's score equals the scalar reference kernel's score exactly."""
    from repro.bio.align.sw import smith_waterman_score

    errors = []
    scheme = inputs.config.scheme()
    subjects = {s.seq_id: s for s in inputs.database}
    for query in inputs.queries:
        hits = report.hits.get(query.seq_id)
        if not hits:
            errors.append(f"{query.seq_id}: no hits reported")
            continue
        planted = inputs.homologs[query.seq_id]
        top = {h.subject_id for h in hits[: len(planted)]}
        if top != set(planted):
            errors.append(f"{query.seq_id}: top hits {sorted(top)} are not the planted {planted}")
        for hit in hits:
            subject = subjects.get(hit.subject_id)
            if subject is None:
                errors.append(f"{query.seq_id}: unknown subject {hit.subject_id}")
                continue
            expected = smith_waterman_score(query, subject, scheme)
            if hit.score != expected:
                errors.append(
                    f"{query.seq_id}/{hit.subject_id}: score {hit.score} != reference {expected}"
                )
    return errors


def check_dprml(inputs, reports) -> list[str]:
    """Every taxon is in each final tree, and each tree's log-likelihood
    re-evaluated here matches the reported one."""
    from repro.bio.phylo.likelihood import TreeLikelihood
    from repro.bio.phylo.tree import parse_newick

    errors = []
    taxa = set(inputs.alignment.names)
    if len(reports) != len(inputs.configs):
        errors.append(f"{len(reports)} reports for {len(inputs.configs)} instances")
    for i, (report, config) in enumerate(zip(reports, inputs.configs)):
        tree = parse_newick(report.newick)
        leaves = tree.leaf_names()
        if sorted(leaves) != sorted(taxa):
            errors.append(f"instance {i}: tree leaves differ from the alignment's taxa")
            continue
        likelihood = TreeLikelihood(
            tree,
            inputs.alignment.subset(leaves),
            config.substitution_model(),
            config.rates(),
        )
        recomputed = likelihood.log_likelihood()
        if abs(recomputed - report.log_likelihood) > LOGL_RTOL * max(1.0, abs(recomputed)):
            errors.append(
                f"instance {i}: logL {report.log_likelihood} != recomputed {recomputed}"
            )
    return errors


def check_noop(values: list[int], result: dict) -> list[str]:
    """The folded sum is the sum of the inputs, and every item was
    issued once and folded once."""
    errors = []
    if result["sum"] != sum(values):
        errors.append(f"sum {result['sum']} != {sum(values)}")
    if not result["items_issued"] == result["items_folded"] == len(values):
        errors.append(
            f"items issued {result['items_issued']}, folded {result['items_folded']}, "
            f"expected {len(values)}"
        )
    if result["duplicate_folds"]:
        errors.append(f"{result['duplicate_folds']} units folded twice")
    return errors


def check_fleet(report, items_completed: float, total_items: int) -> list[str]:
    """The simulated run completed with every item folded."""
    errors = []
    if not report.completed:
        errors.append("simulation ended with work outstanding")
    if items_completed != total_items:
        errors.append(f"{items_completed:g} items folded, expected {total_items}")
    return errors
