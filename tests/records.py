"""Output records: each function makes one commdetect call and returns its
record, which tests/identity.py pins by digest and tools/ladder.py times.

A record holds labels, merges and cuts with every float as .hex(), so its
repr, and with it `digest`, changes only when the output does. Only public
commdetect names are used, since the ladder runs this module against
another checkout's src.
"""

import hashlib

import commdetect


def graph(n, p, seed):
    return tuple(commdetect.random_graph(n, p, seed).edges())


def louvain(g, variant, seed):
    part, q, passes = commdetect.louvain(g, variant, seed)
    return part.labels, q.hex(), passes


def fastgreedy(g):
    dend, best, best_q = commdetect.fastgreedy(g)
    joins = [(m.left, m.right, m.merged, m.gain.hex(), m.q.hex(), m.step) for m in dend.merges]
    return joins, best.labels, best_q.hex()


def agglomerative(g, linkage, self_neighboring):
    merges = commdetect.agglomerate(g, linkage, self_neighboring).merges
    return [(m.left, m.right, m.merged, m.distance.hex(), m.step) for m in merges]


def girvan_newman(g, target, run=commdetect.girvan_newman):
    """`run` is girvan_newman or girvan_newman_static."""
    part, cuts = run(g, target)
    return part.labels, [(u, v, s.hex()) for u, v, s in cuts]


def digest(record):
    return hashlib.sha256(repr(record).encode()).hexdigest()
