"""Per-worker state for stateless map tasks.

A ``ray.put`` object deserializes on every ``ray.get`` in a task, so a
task-form stage keeps what it builds from a broadcast ref (a parsed
canonical map, a benchmark gram set, a weight vector) once per worker
process, keyed by the ObjectRef — what an actor ``__init__`` would do,
without an actor pool. A pool holds its Ray slots for the whole job, so on
a small cluster the tasks feeding it can wait forever for a slot (a
one-slot ``prepare_training_set`` never finished with its decontam pool);
the engine keeps pools for heavy model state only (``functions/knn.py``).
"""

from __future__ import annotations

import functools

import ray

# stage class -> (args key, built state). One slot PER CLASS: stages of
# different classes chained on one worker keep their own state instead of
# evicting each other every batch, while a new ref for the same class (the
# next build's canonical map) replaces the old one.
_STATE: dict = {}


def worker_state(cls, *args):
    """``cls(*args)`` with every ObjectRef argument replaced by its value,
    built once per worker process per argument set. Refs key by id, so
    the memo never pins a broadcast object."""
    key = tuple(a.hex() if isinstance(a, ray.ObjectRef) else a for a in args)
    hit = _STATE.get(cls)
    if hit is None or hit[0] != key:
        vals = (ray.get(a) if isinstance(a, ray.ObjectRef) else a for a in args)
        hit = _STATE[cls] = (key, cls(*vals))
    return hit[1]


def _apply(batch, cls, args):
    return worker_state(cls, *args)(batch)


def map_with_state(ds, cls, *args):
    """``ds.map_batches`` (pyarrow batches) as stateless tasks through
    ``worker_state(cls, *args)``. Pass large state as a ``ray.put`` ref:
    plain args travel pickled in every task."""
    return ds.map_batches(functools.partial(_apply, cls=cls, args=args), batch_format="pyarrow")
