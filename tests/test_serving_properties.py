"""Hypothesis property tests for the shared-plan-cache key discipline.

The :class:`~repro.serving.cache.SharedPlanCache` never *checks* staleness —
it relies entirely on its key: (program source, method, backend, optimizer
options, catalog fingerprint, schema epoch).  That makes the key discipline
the single load-bearing invariant of shared preparation, so it is pinned
property-style:

* the same program under the same schema always maps to one key (one global
  preparation, from any client);
* any schema-visible change — a format swap, a tensor or scalar added or
  dropped, a shape change — produces a *distinct* key;
* a cache populated under old epochs can never answer a fresh-epoch lookup
  with a stale plan, no matter the lookup/eviction interleaving.

The properties run over lightweight catalog stand-ins (the key functions
only read ``tensors``/``scalars``/``schema_version``), which keeps the
search space wide without paying storage-format construction per example.
"""

from dataclasses import dataclass, field

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.serving import (  # noqa: E402
    SharedPlan,
    SharedPlanCache,
    base_key,
    catalog_fingerprint,
    plan_key,
)

FORMAT_NAMES = ("dense", "coo", "csr", "trie")


@dataclass(frozen=True)
class FakeFormat:
    format_name: str
    shape: tuple


@dataclass
class FakeCatalog:
    """The slice of the catalog/snapshot surface the key functions read."""

    tensors: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    schema_version: int = 0


tensor_names = st.sampled_from(["A", "B", "X", "Y", "T0"])
shapes = st.lists(st.integers(min_value=1, max_value=64),
                  min_size=1, max_size=2).map(tuple)
formats = st.builds(FakeFormat, st.sampled_from(FORMAT_NAMES), shapes)
catalogs = st.builds(
    FakeCatalog,
    tensors=st.dictionaries(tensor_names, formats, max_size=4),
    scalars=st.dictionaries(st.sampled_from(["beta", "c0", "c1"]),
                            st.floats(allow_nan=False), max_size=3),
    schema_version=st.integers(min_value=0, max_value=50),
)

programs = st.sampled_from([
    "sum(<i, v> in A) v",
    "sum(<i, v> in A) v * beta",
    "sum(<i, Ai> in A) sum(<j, v> in Ai) { i -> v }",
])
methods = st.sampled_from(["greedy", "egraph"])
backends = st.sampled_from(["interpret", "compile", "typed"])
options = st.dictionaries(st.sampled_from(["iter_limit", "node_limit"]),
                          st.integers(min_value=1, max_value=10), max_size=2)


def snapshot_of(catalog: FakeCatalog) -> FakeCatalog:
    """What Catalog.snapshot() produces, as far as the key can see."""
    return FakeCatalog(tensors=dict(catalog.tensors),
                       scalars=dict(catalog.scalars),
                       schema_version=catalog.schema_version)


# ---------------------------------------------------------------------------
# same program + same schema ⇒ same key
# ---------------------------------------------------------------------------


@given(programs, methods, backends, options, catalogs)
def test_same_program_same_schema_means_same_key(source, method, backend,
                                                 opts, catalog):
    first = plan_key(source, method=method, backend=backend,
                     optimizer_options=opts, snapshot=snapshot_of(catalog))
    second = plan_key(source, method=method, backend=backend,
                      optimizer_options=opts, snapshot=snapshot_of(catalog))
    assert first == second
    assert base_key(first) == base_key(second)


@given(programs, methods, backends, catalogs)
def test_key_is_insensitive_to_option_and_registration_order(source, method,
                                                             backend, catalog):
    shuffled = FakeCatalog(
        tensors=dict(reversed(list(catalog.tensors.items()))),
        scalars=dict(reversed(list(catalog.scalars.items()))),
        schema_version=catalog.schema_version)
    assert (plan_key(source, method=method, backend=backend,
                     optimizer_options={"iter_limit": 3, "node_limit": 5},
                     snapshot=catalog)
            == plan_key(source, method=method, backend=backend,
                        optimizer_options={"node_limit": 5, "iter_limit": 3},
                        snapshot=shuffled))


# ---------------------------------------------------------------------------
# any schema change ⇒ distinct key
# ---------------------------------------------------------------------------


@given(programs, methods, backends, catalogs,
       st.data())
def test_format_change_changes_the_key(source, method, backend, catalog, data):
    name = data.draw(tensor_names)
    fmt = data.draw(formats)
    before = snapshot_of(catalog)
    if catalog.tensors.get(name) == fmt:
        fmt = FakeFormat(
            FORMAT_NAMES[(FORMAT_NAMES.index(fmt.format_name) + 1)
                         % len(FORMAT_NAMES)], fmt.shape)
    catalog.tensors[name] = fmt
    catalog.schema_version += 1          # every schema mutation bumps
    after = snapshot_of(catalog)
    assert (plan_key(source, method=method, backend=backend,
                     optimizer_options={}, snapshot=before)
            != plan_key(source, method=method, backend=backend,
                        optimizer_options={}, snapshot=after))


@given(programs, methods, backends, catalogs, st.data())
def test_drop_and_scalar_schema_changes_change_the_key(source, method, backend,
                                                       catalog, data):
    before = snapshot_of(catalog)
    if catalog.tensors and data.draw(st.booleans()):
        del catalog.tensors[data.draw(st.sampled_from(sorted(catalog.tensors)))]
    else:
        catalog.scalars["fresh_scalar"] = 1.0
    catalog.schema_version += 1
    after = snapshot_of(catalog)
    key_before = plan_key(source, method=method, backend=backend,
                          optimizer_options={}, snapshot=before)
    key_after = plan_key(source, method=method, backend=backend,
                         optimizer_options={}, snapshot=after)
    assert key_before != key_after
    assert base_key(key_before) == base_key(key_after)   # still the same query


@given(programs, catalogs)
def test_epoch_alone_distinguishes_identical_fingerprints(source, catalog):
    """Even a schema mutation that lands on an identical fingerprint (drop +
    re-add of the same tensor) is kept apart by the epoch component."""
    before = snapshot_of(catalog)
    after = snapshot_of(catalog)
    after.schema_version += 2
    assert catalog_fingerprint(before) == catalog_fingerprint(after)
    assert (plan_key(source, method="greedy", backend="compile",
                     optimizer_options={}, snapshot=before)
            != plan_key(source, method="greedy", backend="compile",
                        optimizer_options={}, snapshot=after))


# ---------------------------------------------------------------------------
# the cache can never answer a fresh epoch with a stale plan
# ---------------------------------------------------------------------------


@settings(max_examples=50)
@given(programs, catalogs,
       st.lists(st.sampled_from(["mutate", "lookup", "purge", "evict_pressure"]),
                min_size=1, max_size=12))
def test_cache_never_serves_a_stale_epoch_plan(source, catalog, script):
    """Under arbitrary mutate/lookup/purge/eviction interleavings, a lookup
    keyed by the current snapshot only ever sees a plan prepared under the
    current schema epoch."""
    cache = SharedPlanCache(maxsize=3)    # tiny: eviction pressure is real
    filler = 0
    for step in script:
        if step == "mutate":
            catalog.schema_version += 1
            catalog.scalars[f"s{catalog.schema_version}"] = 0.0
        elif step == "evict_pressure":
            filler += 1
            cache.put(("filler", filler), SharedPlan(
                key=("filler", filler), optimization=None, prepared=None,
                schema_version=-1))
        elif step == "purge":
            cache.purge_stale(catalog.schema_version)
        else:
            snapshot = snapshot_of(catalog)
            key = plan_key(source, method="greedy", backend="compile",
                           optimizer_options={}, snapshot=snapshot)
            entry, _ = cache.get_or_prepare(key, lambda: SharedPlan(
                key=key, optimization=None, prepared=None,
                schema_version=snapshot.schema_version))
            assert entry.schema_version == snapshot.schema_version
            assert entry.key == key
    # after the dust settles: one more lookup at the final epoch is also fresh
    snapshot = snapshot_of(catalog)
    key = plan_key(source, method="greedy", backend="compile",
                   optimizer_options={}, snapshot=snapshot)
    cached = cache.get(key)
    if cached is not None:
        assert cached.schema_version == snapshot.schema_version


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=20))
def test_purge_stale_leaves_exactly_the_current_epoch(entries):
    cache = SharedPlanCache(maxsize=64)
    for index, (epoch, variant) in enumerate(entries):
        key = ("q", variant, epoch, index)
        cache.put(key, SharedPlan(key=key, optimization=None, prepared=None,
                                  schema_version=epoch))
    current = entries[-1][0]
    dropped = cache.purge_stale(current)
    remaining = [cache.get(key) for key in cache.keys()]
    assert all(entry.schema_version == current for entry in remaining)
    assert dropped + len(remaining) == len(entries)
