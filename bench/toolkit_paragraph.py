#!/usr/bin/env python3
"""Renders EXPERIMENTS.md's toolkit paragraph from BENCH_perf_toolkit.json.

The paragraph between the BEGIN and END marker lines defined below is
generated: the host line from the snapshot's `context`, each figure from
its benchmark's `real_time`, read from the benchmark's median row when the
snapshot was recorded with repetitions. The bench_json target runs this after recording; the
`experiments_toolkit_paragraph` ctest runs it with --check, which exits 1
when the paragraph no longer matches the snapshot.

usage: toolkit_paragraph.py --json BENCH_perf_toolkit.json
                            --doc EXPERIMENTS.md [--check]
"""

import argparse
import json
import sys
import textwrap

BEGIN = "<!-- toolkit-paragraph:begin (bench/toolkit_paragraph.py) -->"
END = "<!-- toolkit-paragraph:end -->"

# (benchmark name, bullet text); {t} is the benchmark's real_time.
BULLETS = [
    ("BM_ParseFig1", "parsing Fig. 1, {t}."),
    ("BM_EnumerateFig1Warm",
     "{t}. It repeats one exact query on one evaluator, so it times a hit "
     "in the evaluator's fold slot, not an enumeration."),
    ("BM_EnumerateFig1Cold",
     "{t}. The same query with a fresh argument every time: the "
     "enumeration and fold a cold Fig. 1 query runs."),
    ("BM_SampleFig1", "one sampled evaluation, {t}."),
    ("BM_IntervalFig1", "interval analysis, {t}."),
    ("BM_Gpt2Prediction/200",
     "a 200-token GPT-2 prediction, {t}. It also repeats one input through "
     "a memoised evaluator, so it too times a warm hit rather than the "
     "200-iteration interpreted loop."),
]

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def format_time(nanoseconds):
    """Three significant figures, in ns below 1 µs and in µs or ms above."""
    scale, unit = ((1e6, "ms") if nanoseconds >= 1e6 else
                   (1e3, "µs") if nanoseconds >= 1e3 else (1.0, "ns"))
    v = nanoseconds / scale
    digits = 0 if v >= 100 else 1 if v >= 10 else 2
    return f"{v:.{digits}f} {unit}"


def render(snapshot):
    context = snapshot["context"]
    rows = {}
    medians = {}
    for b in snapshot["benchmarks"]:
        if b.get("run_type", "iteration") == "iteration":
            rows[b["name"]] = b
        elif b.get("aggregate_name") == "median":
            medians[b["run_name"]] = b
    rows.update(medians)
    times = {name: b["real_time"] * NS_PER_UNIT[b.get("time_unit", "ns")]
             for name, b in rows.items()}
    repetitions = max((b.get("repetitions", 1) for b in rows.values()),
                      default=1)
    runs = (f"the median of {repetitions} runs per benchmark"
            if medians else "one run per benchmark")
    intro = (
        "google-benchmark timings for the operations a resource manager "
        "would pay online, quoted by benchmark name from the checked-in "
        "`BENCH_perf_toolkit.json` (`cmake --build build --target "
        "bench_json` regenerates it and this paragraph). That run was "
        f"recorded on a host with {context['num_cpus']} CPUs at "
        f"{context['mhz_per_cpu']} MHz, from a "
        f"{context.get('repo_build_type', 'unrecorded')} build of the "
        "repository (the benchmark library itself reports "
        f"`library_build_type: {context['library_build_type']}`), "
        f"{runs}:")
    lines = textwrap.wrap(intro, width=72)
    lines.append("")
    for name, text in BULLETS:
        if name not in times:
            raise KeyError(f"{name} is missing from the snapshot")
        bullet = f"- `{name}`: " + text.format(t=format_time(times[name]))
        lines.extend(textwrap.wrap(bullet, width=72,
                                   subsequent_indent="  "))
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", required=True)
    parser.add_argument("--doc", required=True)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the paragraph is stale; write nothing")
    args = parser.parse_args()

    with open(args.json, encoding="utf-8") as f:
        paragraph = render(json.load(f))
    with open(args.doc, encoding="utf-8") as f:
        doc = f.read()
    begin = doc.find(BEGIN)
    end = doc.find(END)
    if begin < 0 or end < begin:
        print(f"toolkit_paragraph: {args.doc} lacks the marker lines",
              file=sys.stderr)
        return 1
    start = begin + len(BEGIN) + 1  # the paragraph starts on the next line
    if doc[start:end] == paragraph:
        return 0
    if args.check:
        print(f"toolkit_paragraph: {args.doc}'s toolkit paragraph does not "
              f"match {args.json}; rerun without --check (or the bench_json "
              "target) to regenerate it", file=sys.stderr)
        return 1
    with open(args.doc, "w", encoding="utf-8") as f:
        f.write(doc[:start] + paragraph + doc[end:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
