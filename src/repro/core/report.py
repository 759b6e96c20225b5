"""Report rendering: turn resilience profiles into the paper's tables.

The helpers here format plain-text tables comparable to the paper's
evaluation artefacts:

* :func:`typo_resilience_table`       -- Table 1 (detected at startup / by
  tests / ignored, per system),
* :func:`structural_support_table`    -- Table 2 (which variation classes a
  system accepts),
* :func:`semantic_behaviour_table`    -- Table 3 (per-fault behaviour of the
  DNS servers),
* :func:`detection_distribution`      -- Figure 3 (share of directives in the
  poor/fair/good/excellent detection bins),
* :func:`render_distribution_chart`   -- an ASCII rendering of Figure 3.

The classification rules the evaluation tables apply to raw profiles live
here too (:func:`classify_structural_support`,
:func:`classify_semantic_behaviour`, :func:`per_directive_detection_rates`),
so the paper's artefacts can be rebuilt from any source of profiles --
a live run or a :class:`~repro.core.store.ResultStore` on disk
(:func:`store_typo_table` renders Table 1 straight from a store, without
re-running a single injection).  Every renderer takes the ``{system display
name: {campaign: profile}}`` shape of a live suite and of
:meth:`~repro.core.store.ResultStore.load_profiles` alike; :func:`merged`
is the one rule that folds a system's cells into one profile.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.profile import (
    DETECTION_BINS,
    InjectionOutcome,
    ResilienceProfile,
    detection_bin,
)

__all__ = [
    "format_table",
    "merged",
    "typo_resilience_table",
    "structural_support_table",
    "semantic_behaviour_table",
    "resilience_matrix_table",
    "detection_distribution",
    "render_distribution_chart",
    "classify_structural_support",
    "classify_semantic_behaviour",
    "per_directive_detection_rates",
    "store_typo_table",
    "store_matrix_table",
    "render_store_report",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple aligned plain-text table."""
    table = [list(map(str, headers))] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[column]) for row in table) for column in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def merged(profiles: Mapping[str, Mapping[str, ResilienceProfile]]) -> dict[str, ResilienceProfile]:
    """Each system's cells merged into one profile, in cell order."""
    return {
        system: ResilienceProfile(system, [record for profile in cells.values() for record in profile])
        for system, cells in profiles.items()
    }


# ----------------------------------------------------------------------- Table 1
def typo_resilience_table(profiles: Mapping[str, ResilienceProfile]) -> str:
    """Table 1: resilience to typos, one column per system."""
    systems = list(profiles)
    headers = ["", *systems]
    rows: list[list[object]] = []

    def row(label: str, values: list[str]) -> None:
        rows.append([label, *values])

    injected = {name: profiles[name].injected_count() for name in systems}
    row("# of Injected Errors", [f"{injected[name]} (100%)" if injected[name] else "0" for name in systems])

    def pct(name: str, count: int) -> str:
        total = injected[name]
        return f"{count} ({count / total:.0%})" if total else str(count)

    startup = {
        name: profiles[name].outcome_counts()[InjectionOutcome.DETECTED_AT_STARTUP] for name in systems
    }
    by_tests = {
        name: profiles[name].outcome_counts()[InjectionOutcome.DETECTED_BY_TESTS] for name in systems
    }
    ignored = {name: profiles[name].ignored_count() for name in systems}
    row("Detected by system at startup", [pct(name, startup[name]) for name in systems])
    row("Detected by functional tests", [pct(name, by_tests[name]) for name in systems])
    row("Ignored", [pct(name, ignored[name]) for name in systems])
    return format_table(headers, rows)


# ----------------------------------------------------------------------- Table 2
def structural_support_table(support: Mapping[str, Mapping[str, str]]) -> str:
    """Table 2: which structural variation classes each system supports.

    ``support`` maps system name to a mapping of variation label to
    "Yes"/"No"/"n/a".  A summary row with the percentage of satisfied
    assumptions (n/a excluded) is appended, as in the paper.
    """
    systems = list(support)
    variations: list[str] = []
    for per_system in support.values():
        for label in per_system:
            if label not in variations:
                variations.append(label)
    rows = [[label, *[support[name].get(label, "n/a") for name in systems]] for label in variations]

    def satisfied(name: str) -> str:
        values = [value for value in support[name].values() if value.lower() != "n/a"]
        if not values:
            return "n/a"
        yes = sum(1 for value in values if value.lower() == "yes")
        return f"{yes / len(values):.0%}"

    rows.append(["% of assumptions satisfied", *[satisfied(name) for name in systems]])
    return format_table(["", *systems], rows)


# ----------------------------------------------------------------------- Table 3
def semantic_behaviour_table(behaviour: Mapping[str, Mapping[str, str]]) -> str:
    """Table 3: per-fault behaviour ("found" / "not found" / "N/A") of DNS servers.

    ``behaviour`` maps fault description to a mapping of system name to the
    observed behaviour.
    """
    systems: list[str] = []
    for per_fault in behaviour.values():
        for name in per_fault:
            if name not in systems:
                systems.append(name)
    rows = [
        [index + 1, fault, *[per_fault.get(name, "N/A") for name in systems]]
        for index, (fault, per_fault) in enumerate(behaviour.items())
    ]
    return format_table(["Err#", "Description of fault", *systems], rows)


# ------------------------------------------------------------------ the matrix
def resilience_matrix_table(profiles: Mapping[str, Mapping[str, ResilienceProfile]]) -> str:
    """The M-systems x N-plugins resilience matrix.

    ``profiles`` maps system display name to a mapping of plugin (campaign)
    name to that cell's profile; columns are the systems in mapping order,
    rows the plugins in first-seen order.  Each cell shows
    ``detected/injected (rate)`` -- detection at startup and by functional
    tests combined -- or ``n/a`` when the plugin injected nothing into that
    system (e.g. DNS semantic errors against a web server).  A summary row
    totals each system's merged cells.

    The same renderer serves live suite results and result stores, which is
    what makes ``conferr matrix`` and ``conferr matrix --from-store`` of
    one run byte-identical.
    """
    systems = list(profiles)
    plugins = list(dict.fromkeys(plugin for per_plugin in profiles.values() for plugin in per_plugin))

    def cell(profile: ResilienceProfile | None) -> str:
        if profile is None:
            return "n/a"
        injected = profile.injected_count()
        if injected == 0:
            return "n/a"
        detected = profile.detected_count()
        return f"{detected}/{injected} ({detected / injected:.0%})"

    rows: list[list[object]] = [
        [plugin, *[cell(profiles[system].get(plugin)) for system in systems]]
        for plugin in plugins
    ]
    totals = merged(profiles)
    rows.append(["overall", *[cell(totals[system]) for system in systems]])
    return format_table(["", *systems], rows)


def store_matrix_table(store) -> str:
    """Render the resilience matrix from a result store, without re-running.

    ``store`` is a :class:`~repro.core.store.ResultStore` written by a
    campaign suite (``conferr suite --store`` / ``conferr matrix --store``);
    systems and plugin rows come out in manifest order, so the rendering is
    byte-identical to the live run's
    :meth:`~repro.core.suite.SuiteResult.matrix`.
    """
    return resilience_matrix_table(store.load_profiles())


# ------------------------------------------------------------- classification
def classify_structural_support(profile: ResilienceProfile) -> str:
    """Table 2 cell rule: a variation class is supported ("Yes") when every
    variant is accepted, "No" when at least one is rejected, "n/a" when no
    variants were run at all."""
    if len(profile) == 0:
        return "n/a"
    accepted = profile.records_with(InjectionOutcome.IGNORED)
    return "Yes" if len(accepted) == len(profile) else "No"


def classify_semantic_behaviour(profile: ResilienceProfile) -> str:
    """Table 3 cell rule: "found" when at least one scenario of the class was
    detected, "N/A" when nothing could be injected, "not found" otherwise."""
    if len(profile) == 0:
        return "N/A"
    counts = profile.outcome_counts()
    if counts[InjectionOutcome.DETECTED_AT_STARTUP] or counts[InjectionOutcome.DETECTED_BY_TESTS]:
        return "found"
    if profile.injected_count() == 0:
        return "N/A"
    return "not found"


def per_directive_detection_rates(profile: ResilienceProfile) -> dict[str, float]:
    """Figure 3 input: detection rate per targeted directive.

    Directives with no actually-injected scenarios are omitted, as are
    records without a ``directive`` metadata entry.
    """
    rates: dict[str, float] = {}
    for directive, sub_profile in profile.by_metadata("directive").items():
        if directive is None:
            continue
        injected = sub_profile.injected_count()
        if injected == 0:
            continue
        rates[str(directive)] = sub_profile.detected_count() / injected
    return rates


def store_typo_table(store) -> str:
    """Render the Table 1 layout from a result store, without re-running.

    ``store`` is a :class:`~repro.core.store.ResultStore`; each system's
    campaigns are merged into one profile, exactly as a live suite's
    :meth:`~repro.core.suite.SuiteResult.table1` does -- the two renderings
    of the same run are byte-identical.
    """
    return typo_resilience_table(merged(store.load_profiles()))


def render_store_report(store) -> str:
    """The full human-readable report of a result store, as one string.

    Manifest header, one summary block per merged system profile, then the
    Table 1 layout -- exactly what ``conferr report <store-dir>`` prints
    and what the campaign service serves as a job's ``report`` artifact
    (one renderer, so the two are byte-identical).
    """
    manifest = store.read_manifest()  # raises StoreError for a plain directory
    lines = [
        f"result store: {store.root} "
        f"(kind: {manifest.get('kind')}, seed: {manifest.get('seed')})"
    ]
    # one pass over the records serves the summaries and Table 1 alike
    profiles = merged(store.load_profiles())
    for profile in profiles.values():
        lines.append("")
        lines.append(profile.summary())
    lines.append("")
    lines.append(typo_resilience_table(profiles))
    return "\n".join(lines)


# ---------------------------------------------------------------------- Figure 3
def detection_distribution(per_directive_rates: Mapping[str, float]) -> dict[str, float]:
    """Share of directives falling into each detection bin (Figure 3).

    ``per_directive_rates`` maps a directive name to the fraction of injected
    typos the system detected for that directive.
    """
    counts = {label: 0 for label, _low, _high in DETECTION_BINS}
    for rate in per_directive_rates.values():
        counts[detection_bin(rate)] += 1
    total = len(per_directive_rates)
    return {label: (counts[label] / total if total else 0.0) for label in counts}


def render_distribution_chart(
    distributions: Mapping[str, Mapping[str, float]], width: int = 40
) -> str:
    """ASCII rendering of Figure 3: one stacked bar per system."""
    lines = []
    for system, distribution in distributions.items():
        lines.append(f"{system}")
        for label, _low, _high in DETECTION_BINS:
            share = distribution.get(label, 0.0)
            bar = "#" * round(share * width)
            lines.append(f"  {label:<9} {share:6.1%} |{bar}")
        lines.append("")
    return "\n".join(lines).rstrip()
