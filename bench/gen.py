"""Seeded input generator for the benchmark workloads.

Every input file is derived from one seed, and every generator returns a
``truth`` dict holding what it planted (injected duplicates and invalid rows,
per-country counts, disagreements between runs, screen triggers, token sets,
the FE slope, the covariate ranking). The checks in ``checks.py`` compare the
program's outputs with that ground truth, never with stored program output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

INCOME_GROUPS = ("low", "lower_middle", "upper_middle", "high")
REGIONS = (
    "East Asia & Pacific",
    "Europe & Central Asia",
    "Latin America & Caribbean",
    "Middle East & North Africa",
    "North America",
    "South Asia",
    "Sub-Saharan Africa",
)
CHANNELS = (
    "physical_execution",
    "rule_based_workflow",
    "planning_control",
    "inference_scoring",
    "informational_transformation",
)
AI_FUNCTIONS = ("state_inference", "content_transformation", "recommendation_decision_support", "adaptive_control")
# exposure-level weights per income group; benchmark contexts reuse their group's row
EXPOSURE_WEIGHTS = {
    "low": (0.55, 0.25, 0.15, 0.05),
    "lower_middle": (0.42, 0.26, 0.24, 0.08),
    "upper_middle": (0.30, 0.25, 0.35, 0.10),
    "high": (0.15, 0.20, 0.45, 0.20),
    "context_free": (0.25, 0.25, 0.35, 0.15),
}

# Workload sizes. They are below the sizes the workloads were first sketched
# at (about 150 countries for atlas and attribution, 420 activities) so that
# one pass of a workload takes about 8-10 s on a 2-core machine and a full
# comparison of two commits fits in under an hour; see README.md.
ATLAS_COUNTRIES = 60
ATLAS_TASKS = 250
ATLAS_SOCS = 40
ATLAS_ISCO = 24
ATLAS_ACTIVITIES = 180
ATLAS_TOP_K = 60
AUDIT_COUNTRIES = 36
AUDIT_TASKS = 300
AUDIT_PAIRS = 30000
ATTRIBUTION_COUNTRIES = 70
ATTRIBUTION_CELLS = 130
ATTRIBUTION_TABLE_ROWS = 80
ATTRIBUTION_COVARIATES = 14

# Words used to build texts. None is a stopword, a screen phrase word, a
# negator or shorter than three letters, so token sets are known exactly.
VOCAB = tuple(
    """ledger invoice payroll welding freight routing cargo fabric loom crop harvest irrigation
    tractor parcel sorting scanner billing audit tax customs permit zoning survey drafting
    blueprint concrete plumbing wiring furnace kiln pottery glazing bakery dough pastry
    brewing bottling labeling packaging pallet forklift warehouse inventory stocktake
    checkout cashier teller lending mortgage claims underwriting actuarial pension triage
    nursing dosage pharmacy radiology imaging dental orthodontic veterinary kennel grooming
    tailoring embroidery stitching upholstery carpentry joinery roofing glazier masonry
    paving asphalt drainage sewage recycling compost forestry lumber sawmill milling
    smelting casting forging stamping lathe grinding polishing painting coating plating
    assembly soldering circuit firmware testing calibration metering dispatch courier
    shipping docking mooring fishing trawling hatchery dairy milking shearing tanning
    leather footwear garment dyeing spinning weaving knitting printing binding typesetting
    editing subtitling interpreting tutoring grading enrolment scheduling rostering catering
    cleaning laundry housekeeping concierge booking ticketing tourism guiding lifeguard
    coaching refereeing choreography staging lighting rigging filming dubbing mixing""".split()
)


def _syllable_name(rng: np.random.Generator, taken: set) -> str:
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    while True:
        n_syl = int(rng.integers(3, 5))
        name = "".join(
            consonants[int(rng.integers(len(consonants)))] + vowels[int(rng.integers(len(vowels)))] for _ in range(n_syl)
        ).capitalize()
        if name.lower() not in taken:
            taken.add(name.lower())
            return name


def _iso3_codes(n: int, rng: np.random.Generator) -> list[str]:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    codes = [letters[p // 676] + letters[(p // 26) % 26] + letters[p % 26] for p in rng.permutation(26**3).tolist()]
    # "INF" and "NAN" read as numbers, which the checks would take for non-finite output
    return sorted([code for code in codes if code not in ("INF", "NAN")][:n])


def _countries(rng: np.random.Generator, n: int) -> list[dict]:
    """Registry rows with income groups spread evenly over the four groups."""
    taken = set(VOCAB)
    codes = _iso3_codes(n, rng)
    groups = [INCOME_GROUPS[i % 4] for i in range(n)]
    rng.shuffle(groups)
    return [
        {
            "iso3": code,
            "name": _syllable_name(rng, taken),
            "income_group": group,
            "region": REGIONS[int(rng.integers(len(REGIONS)))],
            "gdp_per_capita": round(float(np.exp(rng.normal(9.0, 1.0))), 2),
        }
        for code, group in zip(codes, groups)
    ]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_registry(path: Path, countries: list[dict]) -> None:
    fields = ["iso3", "name", "income_group", "region", "gdp_per_capita"]
    _write_csv(path, fields, ([c[f] for f in fields] for c in countries))


def _label(rng: np.random.Generator, tag: str, task: int, weights, rationale: str) -> dict:
    exposure = int(rng.choice(4, p=weights))
    if exposure >= 2:
        margin = ("substitute", "augment", "both", "unclear")[int(rng.choice(4, p=(0.35, 0.15, 0.45, 0.05)))]
        channel = CHANNELS[int(rng.integers(len(CHANNELS)))]
        ai = bool(rng.random() < 0.25 + 0.15 * exposure)
    else:
        # some sub-threshold rows carry a definite margin, which ingest normalizes to unclear
        margin = "substitute" if rng.random() < 0.1 else "unclear"
        channel = "none" if rng.random() < 0.8 else CHANNELS[int(rng.integers(len(CHANNELS)))]
        ai = False
    function = AI_FUNCTIONS[int(rng.integers(len(AI_FUNCTIONS)))] if ai else "none"
    return {
        "task_id": f"t{task:05d}",
        "country": tag,
        "exposure_level": exposure,
        "dominant_channel": channel,
        "substitution_path": margin in ("substitute", "both"),
        "augmentation_path": margin in ("augment", "both"),
        "margin": margin,
        "ai_materiality": ai,
        "dominant_ai_function": function,
        "short_rationale": rationale,
        "substitution_summary": "Scripted workflow executes the core steps." if margin in ("substitute", "both") else "",
        "augmentation_summary": "Tooling drafts output for human review." if margin in ("augment", "both") else "",
    }


def _dumps(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _invalid_line(rng: np.random.Generator, kind: int, record: dict) -> str:
    """One label row that fails exactly one validation rule."""
    bad = dict(record)
    if kind == 0:
        return _dumps(bad)[: int(rng.integers(10, 40))]  # truncated JSON
    if kind == 1:
        bad["exposure_level"] = 7
    elif kind == 2:
        bad["dominant_channel"] = "teleportation"
    elif kind == 3:
        bad.update(exposure_level=3, margin="substitute", substitution_path=False, augmentation_path=False)
    elif kind == 4:
        bad.update(ai_materiality=False, dominant_ai_function="state_inference")
    elif kind == 5:
        bad["short_rationale"] = "overlong " * 30
    else:
        del bad["margin"]
    return _dumps(bad)


def _exposed(level: int) -> bool:
    return level >= 2


# --- atlas -----------------------------------------------------------------------


def gen_atlas(out: Path, seed: int) -> dict:
    """Labels with injected duplicates and invalid rows, registry, tasks,
    activities, task weights and bridge for the label-counting path."""
    rng = np.random.default_rng([seed, 1])
    countries = _countries(rng, ATLAS_COUNTRIES)
    files = {"registry": out / "registry.csv"}
    _write_registry(files["registry"], countries)

    # occupations: each task belongs to one or two SOCs; each SOC keeps >= 3 tasks
    soc_tasks: dict[str, set[int]] = {f"soc{j:03d}": set() for j in range(ATLAS_SOCS)}
    socs = sorted(soc_tasks)
    for task in range(ATLAS_TASKS):
        for j in rng.choice(ATLAS_SOCS, size=int(rng.integers(1, 3)), replace=False).tolist():
            soc_tasks[socs[j]].add(task)
    for soc in socs:
        while len(soc_tasks[soc]) < 3:
            soc_tasks[soc].add(int(rng.integers(ATLAS_TASKS)))
    weights: dict[str, list[tuple[str, float]]] = {}
    for soc in socs:
        tasks = sorted(soc_tasks[soc])
        raw = rng.uniform(0.5, 1.5, size=len(tasks))
        shares = (raw / raw.sum()).tolist()
        shares[-1] = 1.0 - math.fsum(shares[:-1])
        weights[soc] = [(f"t{t:05d}", s) for t, s in zip(tasks, shares)]
    files["weights"] = out / "task_weights.csv"
    _write_csv(files["weights"], ["soc", "task_id", "weight"], ([soc, t, repr(w)] for soc in socs for t, w in weights[soc]))
    iscos = [f"isco{j:03d}" for j in range(ATLAS_ISCO)]
    bridge_rows = []
    for soc in socs:
        picks = sorted(rng.choice(ATLAS_ISCO, size=int(rng.integers(1, 4)), replace=False).tolist())
        # shares in eighths are exact in binary, so each SOC sums to exactly 1
        cuts = sorted(rng.choice(np.arange(1, 8), size=len(picks) - 1, replace=False).tolist())
        parts = np.diff([0] + cuts + [8]) / 8.0
        bridge_rows.extend([soc, iscos[p], repr(float(s))] for p, s in zip(picks, parts))
    files["bridge"] = out / "bridge.csv"
    _write_csv(files["bridge"], ["soc", "isco", "share"], bridge_rows)

    task_texts = {
        f"t{t:05d}": f"task {t} " + " ".join(rng.choice(VOCAB, size=4, replace=False).tolist())
        for t in range(ATLAS_TASKS)
    }
    files["tasks"] = out / "tasks.csv"
    _write_csv(files["tasks"], ["task_id", "text"], sorted(task_texts.items()))
    codes = sorted(rng.choice(np.arange(100, 10000), size=ATLAS_ACTIVITIES, replace=False).tolist())
    files["activities"] = out / "activities.csv"
    _write_csv(
        files["activities"],
        ["isic4", "text"],
        ([f"{c:04d}", f"activity {c:04d} " + " ".join(rng.choice(VOCAB, size=3, replace=False).tolist())] for c in codes),
    )

    # labels: every country drops ~2% of tasks (never a SOC's first task);
    # benchmark contexts label every task
    protected = {min(tasks) for tasks in soc_tasks.values()}
    contexts = [(c["iso3"], c["income_group"], c["name"]) for c in countries]
    contexts += [(f"income:{g}", g, "a typical country") for g in INCOME_GROUPS]
    contexts += [("context_free", "context_free", "any country")]
    records: list[dict] = []
    per_tag: dict[str, dict] = {}
    dropped_weight: dict[tuple[str, str], float] = {}
    for tag, group, name in contexts:
        is_country = not (tag.startswith("income:") or tag == "context_free")
        present = [t for t in range(ATLAS_TASKS) if not (is_country and t not in protected and rng.random() < 0.02)]
        exposures = {}
        for t in present:
            rec = _label(rng, tag, t, EXPOSURE_WEIGHTS[group], f"Deployment conditions in {name} shape this task.")
            records.append(rec)
            exposures[rec["task_id"]] = rec["exposure_level"]
        per_tag[tag] = {"group": group, "exposures": exposures}
        if is_country:
            for soc in socs:
                usable = math.fsum(w for t, w in weights[soc] if t in exposures)
                dropped_weight[(tag, soc)] = 1.0 - usable

    lines = [_dumps(r) for r in records]
    n_dup = int(round(0.02 * len(records)))
    n_bad = int(round(0.005 * len(records)))
    extra = [lines[i] for i in rng.choice(len(lines), size=n_dup, replace=False).tolist()]
    extra += [
        _invalid_line(rng, k % 7, records[i])
        for k, i in enumerate(rng.choice(len(records), size=n_bad, replace=False).tolist())
    ]
    for line in extra:
        lines.insert(int(rng.integers(len(lines) + 1)), line)
    files["labels"] = out / "labels.jsonl"
    files["labels"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    return {
        "files": {k: str(v) for k, v in files.items()},
        "n_rows": len(lines),
        "n_unique": len(records),
        "n_duplicates": n_dup,
        "n_invalid": n_bad,
        "tags": per_tag,
        "countries": [c["iso3"] for c in countries],
        "socs": socs,
        "iscos_reached": sorted({row[1] for row in bridge_rows}),
        "dropped_weight": dropped_weight,
        "n_tasks": ATLAS_TASKS,
        "n_activities": ATLAS_ACTIVITIES,
        "top_k": ATLAS_TOP_K,
        "sizes": {
            "countries": ATLAS_COUNTRIES,
            "contexts": len(contexts),
            "tasks": ATLAS_TASKS,
            "label_rows": len(lines),
            "label_bytes": files["labels"].stat().st_size,
            "unique_records": len(records),
            "socs": ATLAS_SOCS,
            "activities": ATLAS_ACTIVITIES,
        },
    }


# --- audit -------------------------------------------------------------------------

# Screen rules: (eligibility, trigger sentence, negated variant). Each trigger
# holds one rule phrase and no negator outside it; each negated variant adds a
# negator outside the phrase, so the screen must not flag it.
SCREEN_RULES = {
    "r1_level3_denies": (
        lambda r: r["exposure_level"] == 3,
        "This step cannot be automated.",
        "It is wrong to say this step cannot be automated.",
    ),
    "r2_level0_describes": (
        lambda r: r["exposure_level"] == 0,
        "Standard software automates the routine steps.",
        "It is not true that standard software automates the routine steps.",
    ),
    "r3_augment_replaces": (
        lambda r: r["margin"] == "augment" and r["exposure_level"] >= 2,
        "The tool fully replaces the worker on this step.",
        "The tool never fully replaces the worker on this step.",
    ),
    "r4_substitute_assistive": (
        lambda r: r["margin"] == "substitute" and r["exposure_level"] >= 2,
        "The software is assistive only.",
        "The software is not assistive only.",
    ),
    "r5_notai_invokes_ai": (
        lambda r: not r["ai_materiality"],
        "A learned model scores each case.",
        "No learned model scores each case.",
    ),
}
NEUTRAL_SENTENCES = (
    "Deployment conditions in {name} shape this task.",
    "Firms in {name} report steady demand for this work.",
    "Human judgement still shapes the final output.",
    "Standard tools cover parts of the workflow.",
)


def _perturb_levels(rng: np.random.Generator, levels: list[int], share: float) -> list[int]:
    """Move ``share`` of the levels by one step (a fifth of them by two)."""
    out = list(levels)
    for i in rng.choice(len(out), size=int(round(share * len(out))), replace=False).tolist():
        step = 2 if rng.random() < 0.2 else 1
        level = out[i]
        down = level - step >= 0 and (level + step > 3 or rng.random() < 0.5)
        out[i] = level - step if down else level + step
    return out


def _agreement(x: list[int], y: list[int]) -> dict:
    n = len(x)
    confusion = [[0] * 4 for _ in range(4)]
    for p, q in zip(x, y):
        confusion[p][q] += 1
    return {
        "n": n,
        "exact_level": sum(1 for p, q in zip(x, y) if p == q) / n,
        "within_one_level": sum(1 for p, q in zip(x, y) if abs(p - q) <= 1) / n,
        "binary_exposed": sum(1 for p, q in zip(x, y) if _exposed(p) == _exposed(q)) / n,
        "confusion": confusion,
    }


def gen_audit(out: Path, seed: int) -> dict:
    """Runs A and B, two paraphrase variants, and rationale pairs."""
    rng = np.random.default_rng([seed, 2])
    countries = _countries(rng, AUDIT_COUNTRIES)
    files = {"registry": out / "registry.csv"}
    _write_registry(files["registry"], countries)

    records: list[dict] = []
    expected_flags = {rule: 0 for rule in SCREEN_RULES}
    eligible = {rule: 0 for rule in SCREEN_RULES}
    flagged_records = 0
    for c in countries:
        for t in range(AUDIT_TASKS):
            rec = _label(rng, c["iso3"], t, EXPOSURE_WEIGHTS[c["income_group"]], "")
            planted: list[tuple[str, Optional[str]]] = []  # (sentence, rule it must flag)
            for rule, (is_eligible, trigger, negated) in SCREEN_RULES.items():
                ok = is_eligible(rec)
                eligible[rule] += ok
                draw = rng.random()
                if draw < 0.06:
                    planted.append((trigger, rule if ok else None))
                elif draw < 0.12:
                    planted.append((negated, None))
            neutral = NEUTRAL_SENTENCES[int(rng.integers(len(NEUTRAL_SENTENCES)))].format(name=c["name"])
            while len(" ".join([neutral] + [s for s, _ in planted])) > 240:
                planted.pop()
            rules_hit = {rule for _, rule in planted if rule is not None}
            for rule in rules_hit:
                expected_flags[rule] += 1
            flagged_records += bool(rules_hit)
            sentences = [neutral] + [s for s, _ in planted]
            rec["short_rationale"] = " ".join(sentences[i] for i in rng.permutation(len(sentences)).tolist())
            records.append(rec)

    a = [r["exposure_level"] for r in records]
    b = _perturb_levels(rng, a, 0.15)
    v1 = _perturb_levels(rng, a, 0.10)
    v2 = _perturb_levels(rng, a, 0.10)
    for name, levels in (("run_a", a), ("run_b", b), ("variant_1", v1), ("variant_2", v2)):
        files[name] = out / f"{name}.jsonl"
        text = "".join(_dumps({**rec, "exposure_level": level}) + "\n" for rec, level in zip(records, levels))
        files[name].write_text(text, encoding="utf-8")

    # rationale pairs with known content-token sets
    names = [c["name"] for c in countries]
    pair_rows = []
    jaccards: list[float] = []
    mentions: list[tuple[bool, bool]] = []
    n_skipped = 0
    for _ in range(AUDIT_PAIRS):
        ca, cb = (names[i] for i in rng.choice(len(names), size=2, replace=False).tolist())
        if rng.random() < 0.01:
            pair_rows.append(["the and of 42", "it is to be", ca, cb])
            n_skipped += 1
            continue
        words = [VOCAB[i] for i in rng.permutation(len(VOCAB))[:14].tolist()]
        k_a, k_b = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        shared = int(rng.integers(0, min(k_a, k_b) + 1))
        set_a = words[:k_a]
        set_b = words[:shared] + words[k_a : k_a + k_b - shared]
        tokens_a, tokens_b = set(set_a), set(set_b)
        mention_a, mention_b = bool(rng.random() < 0.5), bool(rng.random() < 0.5)
        text_a = "The " + " and ".join(set_a) + (f" in {ca}" if mention_a else "") + "."
        text_b = "Their " + " with ".join(set_b) + (f" for {cb}" if mention_b else "") + "."
        if mention_a:
            tokens_a.add(ca.lower())
        if mention_b:
            tokens_b.add(cb.lower())
        jaccards.append(len(tokens_a & tokens_b) / len(tokens_a | tokens_b))
        mentions.append((mention_a, mention_b))
        pair_rows.append([text_a, text_b, ca, cb])
    files["pairs"] = out / "pairs.csv"
    _write_csv(files["pairs"], ["text_a", "text_b", "country_a", "country_b"], pair_rows)

    group_of = {c["iso3"]: c["income_group"] for c in countries}
    group_levels: dict[str, list[int]] = {}
    for rec in records:
        group_levels.setdefault(group_of[rec["country"]], []).append(rec["exposure_level"])
    n = len(records)
    return {
        "files": {k: str(v) for k, v in files.items()},
        "n_records": n,
        "agreement": _agreement(a, b),
        "variants": [_agreement(a, v1), _agreement(a, v2)],
        "variant_within_one": sum(1 for p, q in zip(v1, v2) if abs(p - q) <= 1) / n,
        "screen": {"eligible": eligible, "flagged": expected_flags, "flagged_records": flagged_records},
        "pairs": {"n": AUDIT_PAIRS, "skipped": n_skipped, "jaccard": jaccards, "mentions": mentions},
        "group_sizes": {g: len(levels) for g, levels in group_levels.items()},
        "group_level_shares": {
            g: {str(k): levels.count(k) / len(levels) for k in sorted(set(levels))} for g, levels in group_levels.items()
        },
        "sizes": {
            "countries": AUDIT_COUNTRIES,
            "tasks": AUDIT_TASKS,
            "records_per_run": n,
            "runs": 4,
            "pairs": AUDIT_PAIRS,
            "run_bytes": files["run_a"].stat().st_size,
        },
    }


# --- attribution -------------------------------------------------------------------

FE_SLOPE = 0.05  # planted effect of x_substitute (share x 10) on y_pp
COVARIATE_COEFS = (3.0, 1.5, 1.0, 0.5, 0.25)  # x01..x05; x06..x14 carry no signal


def gen_attribution(out: Path, seed: int) -> dict:
    """Employment and cell values for ``ATTRIBUTION_COUNTRIES`` countries, and a
    planted covariate table and a variance matrix for the first
    ``ATTRIBUTION_TABLE_ROWS`` of them."""
    rng = np.random.default_rng([seed, 3])
    codes = [c["iso3"] for c in _countries(rng, max(ATTRIBUTION_COUNTRIES, ATTRIBUTION_TABLE_ROWS))]
    countries = codes[:ATTRIBUTION_COUNTRIES]
    codes_drawn = rng.choice(np.arange(100, 1000), size=ATTRIBUTION_CELLS, replace=False)
    cells = [f"c{code}" for code in sorted(codes_drawn.tolist())]
    files = {}

    # cell values: ~1% of (country, cell) pairs have none
    values: dict[str, dict[str, tuple[float, float, float, float]]] = {}
    value_rows = []
    for iso3 in countries:
        values[iso3] = {}
        for cell in cells:
            if rng.random() < 0.01:
                continue
            exposed = float(rng.uniform(0.1, 0.8))
            sub = exposed * float(rng.uniform(0.05, 0.5))
            aug = exposed * float(rng.uniform(0.05, 0.3))
            both = exposed - sub - aug
            values[iso3][cell] = (exposed, sub, aug, both)
            value_rows.append([iso3, cell, repr(exposed), repr(sub), repr(aug), repr(both)])
    files["cell_values"] = out / "cell_values.csv"
    _write_csv(files["cell_values"], ["iso3", "cell_id", "value", "substitute", "augment", "both"], value_rows)

    # employment: 3 years x 3 sexes per (country, cell). ~5% of countries report
    # only years outside the coverage window (excluded); ~5% have one zero male
    # cell in the latest year (gender gap skipped: cell schemes differ). In the
    # latest year the female-minus-male share carries the planted FE slope.
    roles = rng.choice(3, size=ATTRIBUTION_COUNTRIES, p=(0.9, 0.05, 0.05)).tolist()
    cell_effect = rng.uniform(-0.1, 0.1, size=ATTRIBUTION_CELLS)
    emp_rows = []
    kept = gap_countries = skipped_gap = panel_rows = 0
    for iso3, role in zip(countries, roles):
        years = (2005, 2007, 2009) if role == 1 else (2019, 2021, 2023)
        for year in years:
            if year == years[-1]:
                male = rng.uniform(0.6, 1.4, size=ATTRIBUTION_CELLS)
                male /= male.sum()
                x = np.array([values[iso3][c][1] * 10.0 if c in values[iso3] else 0.0 for c in cells])
                y = cell_effect + FE_SLOPE * x + rng.normal(0.0, 0.03, size=ATTRIBUTION_CELLS)
                y -= y.mean()  # the country effect: each sex's shares sum to 1
                female = male + y / 100.0
                if female.min() <= 0:
                    raise ValueError("planted female shares must stay positive")
                male_counts = male * float(rng.uniform(2e5, 2e6))
                female_counts = female * float(rng.uniform(2e5, 2e6))
                if role == 2:
                    male_counts[int(rng.integers(ATTRIBUTION_CELLS))] = 0.0
            else:
                male_counts = rng.uniform(50, 5000, size=ATTRIBUTION_CELLS)
                female_counts = rng.uniform(50, 5000, size=ATTRIBUTION_CELLS)
            for j, cell in enumerate(cells):
                f, m = float(female_counts[j]), float(male_counts[j])
                emp_rows.append([iso3, year, "total", cell, repr(f + m)])
                emp_rows.append([iso3, year, "female", cell, repr(f)])
                emp_rows.append([iso3, year, "male", cell, repr(m)])
        if role != 1:
            kept += 1
            panel_rows += sum(1 for j, c in enumerate(cells) if c in values[iso3] and male_counts[j] > 0)
            skipped_gap += role == 2
            gap_countries += role == 0
    order = rng.permutation(len(emp_rows)).tolist()
    files["employment"] = out / "employment.csv"
    _write_csv(files["employment"], ["iso3", "year", "sex", "cell_id", "count"], (emp_rows[i] for i in order))

    # country table: y planted on x01..x05
    table_countries = codes[:ATTRIBUTION_TABLE_ROWS]
    X = rng.normal(size=(ATTRIBUTION_TABLE_ROWS, ATTRIBUTION_COVARIATES))
    coefs = np.zeros(ATTRIBUTION_COVARIATES)
    coefs[: len(COVARIATE_COEFS)] = COVARIATE_COEFS
    y = X @ coefs + rng.normal(0.0, 0.5, size=ATTRIBUTION_TABLE_ROWS)
    names = [f"x{j + 1:02d}" for j in range(ATTRIBUTION_COVARIATES)]
    files["countries"] = out / "countries.csv"
    _write_csv(
        files["countries"],
        ["iso3", "y"] + names,
        ([iso3, repr(float(y[i]))] + [repr(float(v)) for v in X[i]] for i, iso3 in enumerate(table_countries)),
    )

    # variance matrix: row and column effects plus noise
    n_cols = 10
    matrix = rng.normal(0.0, 1.0, size=(ATTRIBUTION_TABLE_ROWS, 1)) + rng.normal(0.0, 0.5, size=(1, n_cols))
    matrix = matrix + rng.normal(0.0, 0.3, size=(ATTRIBUTION_TABLE_ROWS, n_cols))
    files["matrix"] = out / "matrix.csv"
    _write_csv(
        files["matrix"],
        ["iso3"] + [f"m{j}" for j in range(n_cols)],
        ([iso3] + [repr(float(v)) for v in matrix[i]] for i, iso3 in enumerate(table_countries)),
    )

    return {
        "files": {k: str(v) for k, v in files.items()},
        "countries": ATTRIBUTION_COUNTRIES,
        "table_rows": ATTRIBUTION_TABLE_ROWS,
        "kept": kept,
        "gap_countries": gap_countries,
        "gap_skipped": skipped_gap,
        "panel_rows": panel_rows,
        "fe_slope": FE_SLOPE,
        "features": names,
        "top_feature": "x01",
        "matrix_shape": (ATTRIBUTION_TABLE_ROWS, n_cols),
        "sizes": {
            "countries": ATTRIBUTION_COUNTRIES,
            "cells": ATTRIBUTION_CELLS,
            "employment_rows": len(emp_rows),
            "cell_value_rows": len(value_rows),
            "table_rows": ATTRIBUTION_TABLE_ROWS,
            "covariates": ATTRIBUTION_COVARIATES,
        },
    }


GENERATORS = {"atlas": gen_atlas, "audit": gen_audit, "attribution": gen_attribution}
