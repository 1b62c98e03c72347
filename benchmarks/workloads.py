"""Seeded generator of Freebase-shaped graphs and planted multi-hop questions.

Every workload is a network of labeled nodes.  Each node has a few
outgoing *planted* edges to other nodes, each under a relation whose word
is unique in the whole graph, plus distractor edges to and from a shared
pool of labeled leaves and, on some workloads, unlabeled CVT mediators
whose own edges lead on to leaves.  A question is a walk along planted
edges; its text names the relation words in order, so a backend that reads
only the prompt can follow the path, and the gold answer is the label of
the walk's last node.

Relation ids look like Freebase's (``domain.type.property``) and always
carry two or more dots.  A planted relation repeats its word
(``film.kavelo.kavelo_of``) so that its candidate shares two tokens with
the step objective and always survives embedding pruning.

Usage: python3 benchmarks/workloads.py WORKLOAD SEED OUT_DIR
writes OUT_DIR/graph.tsv and OUT_DIR/questions.json (the engine's
``simple`` dataset format).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PARAMS_FILE = HERE / "workloads.json"

DOMAINS = (
    "people", "location", "film", "music", "book", "sports",
    "organization", "government", "education", "award",
)
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
PLANTED_OUT_PER_NODE = 4  # planted node -> node edges per node
LEAVES = 3000  # shared pool of labeled leaf entities
DISTRACTOR_RELATIONS = 60
MEDIATOR_LEGS = 2  # leaf edges out of each CVT mediator


def load_params() -> dict:
    with open(PARAMS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


class _Words:
    """Unique pseudo-words; no two uses share a word, so tokens never clash."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            word = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) for _ in range(3)
            )
            if word not in self.used:
                self.used.add(word)
                return word

    def name(self) -> str:
        return f"{self.fresh().title()} {self.fresh().title()}"


def generate(params: dict, seed: int, *, nodes: int | None = None,
             questions: int | None = None):
    """Return (triples, labels, examples) for one workload and seed.

    ``nodes`` and ``questions`` shrink the workload for smoke tests.
    """
    rng = random.Random(f"kgqa-bench:{seed}")
    words = _Words(rng)
    n_nodes = nodes or params["nodes"]
    k_out = PLANTED_OUT_PER_NODE
    node_ids = [f"m.0n{i}" for i in range(n_nodes)]
    leaf_ids = [f"m.0l{i}" for i in range(LEAVES)]
    labels = {e: words.name() for e in node_ids + leaf_ids}
    distractors = [
        f"{rng.choice(DOMAINS)}.{words.fresh()}.{words.fresh()}"
        for _ in range(DISTRACTOR_RELATIONS)
    ]
    triples: list[tuple[str, str, str]] = []

    # planted edges: node -> node, one globally unique word each
    planted: list[list[tuple[str, int]]] = []
    for i in range(n_nodes):
        targets = rng.sample([j for j in range(n_nodes) if j != i], k_out)
        edges = []
        for j in targets:
            word = words.fresh()
            triples.append((node_ids[i], f"{rng.choice(DOMAINS)}.{word}.{word}_of", node_ids[j]))
            edges.append((word, j))
        planted.append(edges)

    # distractors: leaf edges in both directions and CVT mediators.  Degrees
    # cover their range evenly and the seed only decides which node gets
    # which, so every seed has the same degree mix.
    low, high = params["degree_min"], params["degree_max"]
    degrees = [low + (high - low) * (2 * i + 1) // (2 * n_nodes) for i in range(n_nodes)]
    rng.shuffle(degrees)
    cvt = 0
    for node, degree in zip(node_ids, degrees):
        mediators = round(params["mediator_share"] * degree)
        fill = max(0, degree - 2 * k_out - mediators)
        for _ in range(fill):
            leaf = rng.choice(leaf_ids)
            if rng.random() < 0.6:
                triples.append((node, rng.choice(distractors), leaf))
            else:
                triples.append((leaf, rng.choice(distractors), node))
        for _ in range(mediators):
            mediator = f"m.0c{cvt}"
            cvt += 1
            triples.append((node, rng.choice(distractors), mediator))
            for _ in range(MEDIATOR_LEGS):
                triples.append((mediator, rng.choice(distractors), rng.choice(leaf_ids)))

    # questions: distinct walks along planted edges that never revisit a node
    hops = params["hops"]
    wanted = questions or params["question_pool"]
    seen: set[tuple] = set()
    examples = []
    for _ in range(wanted * 20):
        if len(examples) == wanted:
            break
        path = [rng.randrange(n_nodes)]
        hop_words = []
        for _ in range(hops):
            options = [(w, j) for w, j in planted[path[-1]] if j not in path]
            if not options:
                break
            word, nxt = rng.choice(options)
            hop_words.append(word)
            path.append(nxt)
        key = (path[0], *hop_words)
        if len(hop_words) < hops or key in seen:
            continue
        seen.add(key)
        topic = node_ids[path[0]]
        examples.append({
            "id": f"q{len(examples)}",
            "question": (
                f"Which entity is reached from {labels[topic]} by following "
                + " then ".join(hop_words) + "?"
            ),
            "topic_entities": [{"id": topic, "label": labels[topic]}],
            "answers": [labels[node_ids[path[-1]]]],
        })
    if len(examples) < wanted:
        raise ValueError(f"only {len(examples)} distinct questions, wanted {wanted}")
    return triples, labels, examples


def write(out_dir: Path, triples, labels, examples) -> None:
    """Write the graph as the in-memory store's TSV and the questions as JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "graph.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in triples)
        fh.writelines(f"label\t{e}\t{text}\n" for e, text in labels.items())
    with open(out_dir / "questions.json", "w", encoding="utf-8") as fh:
        json.dump(examples, fh)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seed, out_dir = argv
    params = load_params()[workload]
    write(Path(out_dir), *generate(params, int(seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
