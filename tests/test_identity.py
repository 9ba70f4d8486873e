import json

import identity


def test_the_committed_digests_name_every_job_of_the_corpus_once():
    assert sorted(json.loads(identity.DIGESTS.read_text())) == sorted(identity.jobs())


def test_a_seeded_sample_of_the_identity_corpus_prints_the_committed_bytes():
    # about half a second; CI checks every job under two hash seeds
    # (python tests/identity.py)
    corpus = identity.jobs()
    assert identity.check(corpus, identity.sample(corpus, 150, 52)) == []
