"""The rep-level closure answered by position against the general closure.

A simulator history is chained (``EventIndex.chained``), so its rep-level
closure is a ``ChainClosure``: node sets bisect the members' places and
``preceding`` bisects a chain's places, where the general ``HbClosure``
reads successor masks.  Each suite that reads the rep closure (M, M+, L,
F, F+) runs twice on the same history, once with ``d.rep_hb`` and once
with an ``HbClosure`` built from the same rep intervals and
``rep_edges``; the violation lists must be equal, in order.  The histories
are seeded mutations of alg2 DFS leaves and of long alg3 walks that stay
chained (a dropped edge, an added forward edge, a flipped SC/VL outcome).
Each axiom that the positional queries decide must fire on at least one
of them, or the position path was never compared.
"""
import random
import sys
from pathlib import Path

import pytest

from snaplab import REP, History, OpScript, derive
from snaplab.checker import applicable_suites, run_suite
from snaplab.harness import DfsBounded, ExploreConfig, iter_sims
from snaplab.visibility import ChainClosure, ChainNodes, HbClosure

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from diff_checker import mutants, mutate  # noqa: E402

REP_SUITES = ("M", "M+", "L", "F", "F+")
POSITIONAL = ("M.nowrbetween", "M+.nowrbetween", "L4.1", "L4.2", "L4.3", "F+.sconuniq")
ALG2_MUTANTS = 400
ALG3_MUTANTS = 40  # of alg3 histories with 40 operations per thread


def _general(text: str):
    """The history ``text`` derived with the general closure over its rep
    events in place of the chain closure."""
    d = derive(History.from_json(text))
    intervals = {e.id: (e.start, e.end) for e in d.history.events if e.kind == REP}
    d._rep = HbClosure(intervals, d.rep_edges)
    return d


def _reports(d) -> dict:
    return {name: [(v.axiom, v.witnesses, v.note) for v in run_suite(d, name).violations]
            for name in applicable_suites(d.algorithm, REP_SUITES)}


def _chained_texts() -> list[str]:
    script = OpScript.from_lists([[("write", 0, 2)], [("write", 0, 3)], [("scan",)]])
    seeds = [sim.history().to_json() for sim in
             iter_sims(ExploreConfig("jayanti2", 1, script, DfsBounded(50)))]
    rng = random.Random(22)
    texts = []
    for _ in range(ALG2_MUTANTS):
        text = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        texts.append(text)
    texts += mutants("jayanti3", 40, ALG3_MUTANTS, seed=22)
    return [t for t in texts if derive(History.from_json(t)).idx.chained]


@pytest.fixture(scope="module")
def chained_texts():
    return _chained_texts()


def test_positions_answer_as_masks(chained_texts):
    fired: set[str] = set()
    for text in chained_texts:
        d = derive(History.from_json(text))
        assert isinstance(d.rep_hb, ChainClosure)
        ours = _reports(d)
        assert ours == _reports(_general(text)), text[:500]
        fired.update(axiom for found in ours.values() for axiom, _, _ in found)
    silent = [axiom for axiom in POSITIONAL if axiom not in fired]
    assert not silent, f"never fired on a chained history, so never compared: {silent}"


def test_node_set_queries_agree(chained_texts):
    """Every query of a node set, on lists with a node named twice too."""
    rng = random.Random(7)
    for text in chained_texts[::10]:
        chain, general = derive(History.from_json(text)).rep_hb, _general(text).rep_hb
        ids = chain.ids
        for _ in range(20):
            listed = rng.sample(ids, min(len(ids), rng.randint(1, 12)))
            if rng.random() < 0.3:
                listed.insert(rng.randrange(len(listed) + 1), rng.choice(listed))
            ours, theirs = chain.nodes(listed), general.nodes(listed)
            assert isinstance(ours, ChainNodes)
            assert (ours.chain, ours.rank) == (theirs.chain, theirs.rank)
            a, b = rng.choice(ids), rng.choice(ids)
            assert ours.after(a) == theirs.after(a)
            assert ours.between(a, b) == theirs.between(a, b)
            assert ours.window(a, b) == theirs.window(a, b)
            if ours.chain is not None:
                order = [listed[k] for k in ours.chain]
                assert chain.preceding(order)(a) == general.preceding(order)(a)
