"""A fixed reference task, timed between conversions to follow the host's speed.

On a shared host the same conversion can take 1.5x longer for seconds to
minutes at a time, in CPU time as much as in wall time, and every workload
slows by the same factor at the same moments. A run that catches more slow
spells than another would read as a regression. The benchmark therefore
times this task between its conversions, in the same kind of process as the
conversions: in the benchmark process for the library workloads, and as a
fresh interpreter (`python3 perfbench/reference.py`, timed from launch to
exit) for the CLI workload. It scales each conversion's time by the nominal
time over the task's local time (the mean of its two timings just before
and two just after), giving the time the conversion would have taken with the task
at NOMINAL_S or NOMINAL_CHILD_S.

The task is the benchmark's own code, never the program's: it does the same
kind of interpreter work as a conversion (string building, regex
tokenizing, dicts of small objects, sorting, JSON) on fixed input. Nothing
a change to rdfstar2pg does can make it faster or slower.
"""

from __future__ import annotations

import json
import random
import re

SIZE = 10_000
# the task's typical times on the 2-core host of the baseline
NOMINAL_S = 0.085        # in the benchmark process
NOMINAL_CHILD_S = 0.155  # as a fresh interpreter, start-up included
RESULT = 357_694         # what task() returns; any other value means it did other work

PREDICATES = ["ex:knows", "foaf:name", "ex:age", "ex:worksFor", "ex:title",
              "prov:wasDerivedFrom"]
WORDS = ("alpha", "bravo", "kilo", 'q"x')
TOKEN = re.compile(r'<[^>]*>|"(?:[^"\\]|\\.)*"(?:@[\w-]+)?|[A-Za-z][\w-]*:[\w-]*|\d+|[.;,]')


class Node:
    __slots__ = ("key", "props", "edges")

    def __init__(self, key: str) -> None:
        self.key = key
        self.props: dict = {}
        self.edges: list = []


def task(size: int = SIZE) -> int:
    """Write `size` triples as text, tokenize them, group them per subject,
    and serialize the sorted result; returns the length of the JSON."""
    rng = random.Random(7)
    lines = []
    for _ in range(size):
        subject = f"ex:e{rng.randrange(size // 4)}"
        predicate = rng.choice(PREDICATES)
        draw = rng.random()
        if draw < 0.4:
            obj = f"ex:e{rng.randrange(size // 4)}"
        elif draw < 0.7:
            words = " ".join(rng.choice(WORDS) for _ in range(3))
            obj = '"' + words.replace('"', '\\"') + '"@en'
        else:
            obj = str(rng.randrange(10 ** 6))
        lines.append(f"{subject} {predicate} {obj} .")
    tokens = TOKEN.findall("\n".join(lines))
    nodes: dict = {}
    for i in range(0, len(tokens) - 3, 4):
        subject, predicate, obj = tokens[i], tokens[i + 1], tokens[i + 2]
        node = nodes.get(subject) or nodes.setdefault(subject, Node(subject))
        if obj.startswith("ex:"):
            node.edges.append((predicate, obj))
        else:
            node.props.setdefault(predicate, []).append(obj)
    rows = sorted((key, sorted(node.props.items()), sorted(node.edges))
                  for key, node in nodes.items())
    return len(json.dumps(rows))


if __name__ == "__main__":
    print(task())
