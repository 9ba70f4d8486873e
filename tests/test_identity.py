import json

from qgames.arena import VertexId

import identity


def test_the_committed_digests_name_every_job_of_the_corpus_once():
    assert sorted(json.loads(identity.DIGESTS.read_text())) == sorted(identity.jobs())


def test_a_seeded_sample_of_the_identity_corpus_prints_the_committed_bytes():
    # about half a second; CI checks every job under two hash seeds
    # (python tests/identity.py)
    corpus = identity.jobs()
    assert identity.check(corpus, identity.sample(corpus, 150, 52)) == []


def test_the_cycle_check_passes_json_dumps_and_names_what_else_is_left_in_a_cycle():
    assert identity.cycles(lambda: json.dumps({"levels": [[1, 2]]}, indent=2))[1] is None

    def ring(*items):
        ring = list(items)
        ring.append(ring)

    assert identity.cycles(lambda: ring(VertexId("t", (1,))))[1] == "qgames.arena.VertexId"
    assert identity.cycles(ring)[1] == "builtins.list"
