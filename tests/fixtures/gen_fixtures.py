#!/usr/bin/env python3
"""Regenerate the shipped pipeline fixtures (deterministic; seed fixed).

Run from the repository root:  python3 tests/fixtures/gen_fixtures.py
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np


def stable_id(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))

HERE = Path(__file__).parent
rng = np.random.default_rng(991)

COUNTRIES = {"AAA": "low", "BBB": "upper_middle", "CCC": "high"}
BENCHMARKS = ["income:low", "income:upper_middle", "income:high"]
N_TASKS = 40
CHANNELS = [
    "physical_execution",
    "rule_based_workflow",
    "planning_control",
    "inference_scoring",
    "informational_transformation",
]
FUNCTIONS = ["state_inference", "content_transformation", "recommendation_decision_support", "adaptive_control"]

EXPOSURE_WEIGHTS = {
    "AAA": [0.55, 0.25, 0.15, 0.05],
    "BBB": [0.30, 0.25, 0.35, 0.10],
    "CCC": [0.15, 0.20, 0.45, 0.20],
    "income:low": [0.55, 0.25, 0.15, 0.05],
    "income:upper_middle": [0.30, 0.25, 0.35, 0.10],
    "income:high": [0.15, 0.20, 0.45, 0.20],
}

TASK_TEXTS = [
    "enter invoice data into accounting software",
    "weld structural joints on steel frames",
    "schedule delivery routes for trucks",
    "review loan applications for risk",
    "translate product manuals between languages",
    "inspect fabric rolls for defects",
    "reconcile monthly payroll records",
    "operate packaging machinery on a line",
    "draft marketing copy for new products",
    "triage customer support tickets",
    "plan crop irrigation schedules",
    "sort parcels by destination code",
] + [f"perform specialist task number {i}" for i in range(12, N_TASKS)]


def record_for(country: str, task_idx: int) -> dict:
    r = np.random.default_rng([stable_id(country), task_idx, 17])
    exposure = int(r.choice(4, p=EXPOSURE_WEIGHTS[country]))
    if exposure >= 2:
        margin = str(r.choice(["substitute", "augment", "both"], p=[0.35, 0.15, 0.5]))
        channel = str(r.choice(CHANNELS))
        ai = bool(r.random() < (0.25 + 0.15 * exposure))
    else:
        margin = "unclear"
        channel = "none" if r.random() < 0.8 else str(r.choice(CHANNELS))
        ai = False
    name = {"AAA": "Alandia", "BBB": "Borduria", "CCC": "Cascadia"}.get(country, "a typical country")
    if exposure >= 2:
        rationale = f"Standard software covers much of this task in {name}."
        sub_summary = "Scripted workflow executes the core steps." if margin in ("substitute", "both") else ""
        aug_summary = "Tooling drafts output for human review." if margin in ("augment", "both") else ""
    else:
        rationale = f"Deployment conditions in {name} keep this work manual."
        sub_summary = ""
        aug_summary = ""
    return {
        "task_id": f"t{task_idx:04d}",
        "country": country,
        "exposure_level": exposure,
        "dominant_channel": channel,
        "substitution_path": margin in ("substitute", "both"),
        "augmentation_path": margin in ("augment", "both"),
        "margin": margin,
        "ai_materiality": ai,
        "dominant_ai_function": str(np.random.default_rng([task_idx, 5]).choice(FUNCTIONS)) if ai else "none",
        "short_rationale": rationale,
        "substitution_summary": sub_summary,
        "augmentation_summary": aug_summary,
    }


def write_labels() -> None:
    lines = []
    for country in list(COUNTRIES) + BENCHMARKS:
        for i in range(N_TASKS):
            lines.append(json.dumps(record_for(country, i), separators=(",", ":")))
    # a duplicated row exercises deduplication without changing the dataset
    lines.append(json.dumps(record_for("AAA", 0), separators=(",", ":")))
    (HERE / "labels.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_registry() -> None:
    rows = ["iso3,name,income_group,region,gdp_per_capita"]
    rows.append("AAA,Alandia,low,Sub-Saharan Africa,1200")
    rows.append("BBB,Borduria,upper_middle,Europe & Central Asia,14500")
    rows.append("CCC,Cascadia,high,North America,58000")
    (HERE / "registry.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_employment() -> None:
    rows = ["iso3,year,sex,cell_id,count"]
    for iso3 in COUNTRIES:
        base = np.random.default_rng([stable_id(iso3), 3]).uniform(50, 400, size=9)
        for year in (2021, 2023):
            scale = 1.0 + 0.04 * (year - 2021)
            for g in range(9):
                total = base[g] * scale
                female = total * float(np.random.default_rng([stable_id(iso3) % 997, g, year]).uniform(0.25, 0.65))
                rows.append(f"{iso3},{year},total,isco{g + 1},{total:.1f}")
                rows.append(f"{iso3},{year},female,isco{g + 1},{female:.1f}")
                rows.append(f"{iso3},{year},male,isco{g + 1},{total - female:.1f}")
    (HERE / "employment.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_cell_values() -> None:
    rows = ["iso3,cell_id,value,substitute,augment,both"]
    for iso3 in COUNTRIES:
        r = np.random.default_rng([stable_id(iso3) % 4093, 11])
        for g in range(9):
            exposed = float(r.uniform(0.1, 0.8))
            sub = exposed * float(r.uniform(0.2, 0.5))
            aug = exposed * float(r.uniform(0.05, 0.2))
            both = exposed - sub - aug
            rows.append(f"{iso3},isco{g + 1},{exposed:.4f},{sub:.4f},{aug:.4f},{both:.4f}")
    (HERE / "cell_values.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_linkage_inputs() -> None:
    task_rows = ["task_id,text"]
    for i in range(12):
        task_rows.append(f"t{i:04d},{TASK_TEXTS[i]}")
    (HERE / "tasks.csv").write_text("\n".join(task_rows) + "\n", encoding="utf-8")

    activities = {
        "0111": "growing of cereals and other crops",
        "1392": "manufacture of made-up textile articles",
        "2410": "manufacture of basic iron and steel",
        "6201": "computer programming activities",
    }
    act_rows = ["isic4,text"] + [f"{code},{text}" for code, text in activities.items()]
    (HERE / "activities.csv").write_text("\n".join(act_rows) + "\n", encoding="utf-8")

    weight_rows = ["soc,task_id,weight"]
    socs = {"soc1": range(0, 5), "soc2": range(5, 10), "soc3": range(10, 15), "soc4": range(15, 20)}
    for soc, task_range in socs.items():
        for i in task_range:
            weight_rows.append(f"{soc},t{i:04d},0.2")
    (HERE / "task_weights.csv").write_text("\n".join(weight_rows) + "\n", encoding="utf-8")

    bridge_rows = ["soc,isco,share", "soc1,isco1,1.0", "soc2,isco1,0.5", "soc2,isco2,0.5",
                   "soc3,isco2,1.0", "soc4,isco3,1.0"]
    (HERE / "bridge.csv").write_text("\n".join(bridge_rows) + "\n", encoding="utf-8")


def write_stats_table() -> None:
    rows = ["unit,x,z,w,y"]
    r = np.random.default_rng(2024)
    for i in range(30):
        x = float(r.uniform(0, 10))
        z = float(r.normal())
        w = float(r.normal())
        y = 1.5 * x - 2.0 * z + 0.5 * r.normal()
        rows.append(f"u{i:02d},{x:.6f},{z:.6f},{w:.6f},{y:.6f}")
    (HERE / "stats_table.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_matrix() -> None:
    r = np.random.default_rng(55)
    rows = ["row," + ",".join(f"c{j}" for j in range(5))]
    for i in range(6):
        values = r.normal(size=5) + i * 0.3
        rows.append(f"r{i}," + ",".join(f"{v:.6f}" for v in values))
    (HERE / "matrix.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_pairs() -> None:
    rows = ["text_a,text_b,country_a,country_b"]
    pairs = [
        ("Standard software automates this billing task in Cascadia.",
         "Manual ledgers remain the norm for billing in Alandia.", "Cascadia", "Alandia"),
        ("Robotic welders handle the seams at scale.",
         "Hand welding persists where capital is scarce.", "Cascadia", "Alandia"),
        ("Routing engines plan the delivery legs.",
         "Routing engines plan the delivery legs.", "Cascadia", "Alandia"),
        ("Learned scoring models rank applications quickly.",
         "Loan officers in Alandia review files by hand.", "Cascadia", "Alandia"),
        ("Translation drafting is largely model generated.",
         "Translators work with basic glossaries only.", "Cascadia", "Alandia"),
        ("Defect detection cameras scan every roll.",
         "Inspectors check fabric by eye in Alandia.", "Cascadia", "Alandia"),
    ]
    for a, b, ca, cb in pairs:
        rows.append(f'"{a}","{b}",{ca},{cb}')
    (HERE / "pairs.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_config() -> None:
    (HERE / "config.json").write_text(json.dumps({"seed": 7}, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_labels()
    write_registry()
    write_employment()
    write_cell_values()
    write_linkage_inputs()
    write_stats_table()
    write_matrix()
    write_pairs()
    write_config()
    print(f"fixtures written to {HERE}")
