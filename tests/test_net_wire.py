"""The wire codecs: lossless round-trips and honest size accounting.

Satellite of E25: every RPC payload shape and every failure type must
encode -> decode losslessly under the compact codec — varint
boundaries, empty deltas, unicode names, tombstoned members and all —
and the naive baseline must measure what it would really pickle.
Sizing never encodes, so the size-only pass is held to the encoder:
``message_size`` must equal the encoded length of the message with
canonical envelope ids, with or without the element-tuple memo, for
generated payloads and for every message a running world sends.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.errors as errors
from repro.errors import (
    ServerBusyFailure,
    SpecViolation,
    TimeoutFailure,
    WrongShardFailure,
)
from repro.net.address import Address
from repro.net.message import Message
from repro.net.wire import (
    DELTA_SCHEMA,
    EXCEPTION_TYPES,
    MEMO_LIMIT,
    METHODS,
    Blob,
    CompactCodec,
    NaiveCodec,
    WireFormat,
    codec_by_name,
    decode_uvarint,
    encode_uvarint,
    method_family,
    unwrap,
)
from repro.store import Repository
from repro.store.elements import Element
from repro.wan import PopulationEngine, PopulationSpec, Stage, default_behaviors
from repro.wan.workload import ScenarioSpec, build_scenario, member_plan
from repro.weaksets import DynamicSet

from helpers import CLIENT, drain_all, spy_sends, standard_world

COMPACT = CompactCodec()
NAIVE = NaiveCodec()
SRC = Address("client", "app")
DST = Address("n0.0", "store")


class Odd:
    """A schema-less value only the pickle fallback can carry."""

    def __init__(self, x):
        self.x = x

    def __eq__(self, other):
        return isinstance(other, Odd) and other.x == self.x


def call(payload, method="get_objects"):
    return Message(src=SRC, dst=DST, method=method, payload=payload)


def canonical(msg: Message) -> Message:
    """``msg`` with the envelope ids sizing measures against."""
    return replace(msg, msg_id=1,
                   reply_to=None if msg.reply_to is None else 1)


def encoded_size(msg: Message) -> int:
    return len(COMPACT.encode_message(canonical(msg)))


def roundtrip(msg: Message) -> Message:
    return COMPACT.decode_message(COMPACT.encode_message(msg))


def assert_roundtrip(payload, method="get_objects"):
    msg = call(payload, method)
    back = roundtrip(msg)
    assert back.payload == payload
    assert back.method == msg.method
    assert back.msg_id == msg.msg_id
    assert (back.src, back.dst) == (msg.src, msg.dst)
    return back


# -- varints ----------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2**7 - 1, 2**7, 2**14 - 1, 2**14,
                               2**21, 2**32 - 1, 2**32, 2**63])
def test_uvarint_boundaries(n):
    out = bytearray()
    encode_uvarint(n, out)
    back, pos = decode_uvarint(bytes(out), 0)
    assert back == n and pos == len(out)


@pytest.mark.parametrize("n", [0, -1, 1, 127, -128, 2**14, -2**14,
                               2**32, -2**32, 2**40, -2**40])
def test_signed_ints_roundtrip(n):
    assert_roundtrip(((n,), {}))


# -- payload leaves and containers ------------------------------------------

@pytest.mark.parametrize("value", [
    None, True, False, 0.0, -1.5, 3.141592653589793,
    "", "plain", "名前-ünïcode-☃", b"", b"\x00\xff raw",
    (), [], {}, set(), frozenset(),
    ("a", 1, None), ["nested", ["deep", {"k": (1, 2)}]],
    {"key": "value", 7: (True, False)},
    {"x", "y", "z"}, frozenset({1, 2, 3}),
])
def test_values_roundtrip(value):
    assert_roundtrip(((value,), {"kw": value}))


def test_set_encoding_is_deterministic():
    msg1 = call((({"c", "a", "b"},), {}))
    msg2 = Message(src=SRC, dst=DST, method="get_objects",
                   payload=(({"b", "c", "a"},), {}), msg_id=msg1.msg_id)
    assert COMPACT.encode_message(msg1) == COMPACT.encode_message(msg2)


def test_string_interning_pays():
    # the same long string repeated should cost far less than twice
    one = COMPACT.payload_size(("collection-name-aaaaaaaa",))
    two = COMPACT.payload_size(("collection-name-aaaaaaaa",) * 2)
    assert two < one + 8


# -- domain shapes ----------------------------------------------------------

def test_elements_roundtrip():
    fresh = Element("member-0", "member-0-17", "n1.2")
    weird = Element("名前", "oid:not/derived", "n0.0",
                    replicas=("n2.0", "n3.1"))
    back = assert_roundtrip(((fresh, weird), {}), method="add_members")
    got_fresh, got_weird = back.payload[0]
    assert got_fresh == fresh and got_fresh.oid == fresh.oid
    assert got_weird == weird and got_weird.replicas == weird.replicas


def test_tombstoned_member_in_delta_roundtrips():
    # the real sync_delta reply shape: ghosts are member names,
    # adds are (name, element, version), removes (name, version,
    # element) — the tombstone keeps the element for later purging
    member = Element("tombstoned", "tombstoned-3", "n1.0")
    fresh = Element("名前", "名前-4", "n2.1")
    delta = {"version": 9, "sealed": True, "ghosts": ("tombstoned",),
             "adds": (("名前", fresh, 8),),
             "removes": (("tombstoned", 9, member),), "epoch": 2,
             "active_iterations": (41,)}
    back = assert_roundtrip(delta, method="sync_delta!ok")
    assert back.payload == delta
    assert back.payload["removes"][0][2] == member


def test_delta_keyed_dict_with_foreign_shape_still_roundtrips():
    # a payload dict that merely shares the seven delta key names must
    # not crash the field-diff fast path — it takes the generic encoding
    impostor = {"version": "not-an-int", "sealed": 3, "ghosts": 7,
                "adds": None, "removes": "x", "epoch": (),
                "active_iterations": {}}
    back = assert_roundtrip(impostor)
    assert back.payload == impostor


def test_empty_delta_is_tiny():
    empty = {name: default for name, default in DELTA_SCHEMA}
    back = assert_roundtrip(empty, method="sync_delta!ok")
    assert back.payload == empty
    # all fields at schema defaults => presence bitfield only
    assert COMPACT.payload_size(empty) <= 3


def test_blob_roundtrips_and_declares_size():
    blob = Blob("stand-in", 2048)
    back = assert_roundtrip(((blob,), {}), method="put_object")
    assert back.payload[0][0] == blob
    assert unwrap(back.payload[0][0]) == "stand-in"
    # the declared size is what lands on the wire, not the stand-in's
    assert COMPACT.payload_size(blob) >= 2048
    assert NAIVE.message_size(call(blob)) >= 2048


@pytest.mark.parametrize("exc_type", EXCEPTION_TYPES)
def test_every_failure_type_roundtrips(exc_type):
    msg = call(exc_type("boom: ☃"), method="get_object!error")
    back = roundtrip(msg)
    assert type(back.payload) is exc_type
    assert str(back.payload) == "boom: ☃"


def test_failure_extras_roundtrip():
    for exc in (ServerBusyFailure("busy", retry_after=0.125),
                WrongShardFailure("moved", owner="n2.0"),
                SpecViolation("bad", invocation_index=7),
                TimeoutFailure("slow")):
        back = roundtrip(call(exc, method="get_object!error"))
        assert type(back.payload) is type(exc)
        for attr in ("retry_after", "owner", "invocation_index"):
            assert getattr(back.payload, attr, None) == \
                getattr(exc, attr, None)


def test_exception_types_covers_errors_module():
    # every exception the system can answer over the wire must have a
    # stable tag; this catches additions to errors.py that forget to
    # extend EXCEPTION_TYPES.  ProcessKilled is kernel-internal (it is
    # delivered into a killed process, never sent as a reply).
    wired = set(EXCEPTION_TYPES)
    internal = {errors.ProcessKilled}
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) \
                and obj.__module__ == "repro.errors" \
                and obj not in internal:
            assert obj in wired, name


# -- envelopes --------------------------------------------------------------

def test_reply_envelopes_roundtrip():
    request = call((("coll",), {}), method="list_members")
    for error in (False, True):
        reply = request.reply("payload" if not error
                              else TimeoutFailure("late"), error=error)
        back = roundtrip(reply)
        assert back.is_reply and back.reply_to == request.msg_id
        assert back.method == reply.method


def test_unknown_method_falls_back_to_string():
    assert "frobnicate" not in METHODS
    back = assert_roundtrip(((1,), {}), method="frobnicate")
    assert back.method == "frobnicate"
    assert method_family("frobnicate") == "other"


def test_pickle_fallback_for_schema_less_values():
    back = assert_roundtrip(((Odd(5),), {}))
    assert back.payload[0][0] == Odd(5)


# -- size accounting --------------------------------------------------------

def test_compact_message_size_is_encoded_length():
    msg = call((("coll", Element("m", "m-1", "n1.0")), {}),
               method="add_member")
    assert COMPACT.message_size(msg) == encoded_size(msg)


def test_compact_beats_naive_on_metadata():
    members = tuple(Element(f"member-{i:04d}", f"member-{i:04d}-{i}",
                            f"n{i % 4}.{i % 3}") for i in range(40))
    reply = call(members, method="list_members!ok")
    request = call((("collection",), {}), method="list_members")
    for msg in (reply, request):
        assert NAIVE.message_size(msg) >= 3 * COMPACT.message_size(msg)


def test_naive_roundtrips_too():
    msg = call((("coll", Element("m", "m-1", "n1.0")), {}),
               method="add_member")
    back = NAIVE.decode_message(NAIVE.encode_message(msg))
    assert back.payload == msg.payload and back.method == msg.method


def test_codec_by_name():
    assert codec_by_name("compact").name == "compact"
    assert codec_by_name("naive").name == "naive"
    with pytest.raises(ValueError):
        codec_by_name("gzip")


def test_method_families():
    assert method_family("get_objects") == "object"
    assert method_family("get_objects!ok") == "object"
    assert method_family("list_members!error") == "membership"
    assert method_family("sync_delta") == "sync"
    assert method_family("freeze_range") == "shard"
    assert method_family("acquire") == "lock"
    assert method_family("ping") == "control"


# -- derived oids ------------------------------------------------------------

@pytest.mark.parametrize("oid", ["a-٣", "a-²", "a-0", "a-007", "a-12"])
def test_derived_oid_roundtrips_exactly_and_sizes_exactly(oid):
    # "٣" (Arabic-Indic three) passes str.isdigit and int() reads it
    # as 3; "²" passes str.isdigit but int() rejects it.  Neither may
    # take the derived-counter shortcut, or the oid comes back wrong.
    for element in (Element("a", oid, "n0.0"),
                    Element("a", oid, "n0.0", replicas=("n1.0",))):
        msg = call(((element,), {}), method="add_members")
        back = assert_roundtrip(((element,), {}), method="add_members")
        assert back.payload[0][0].oid == oid
        assert COMPACT.message_size(msg) == encoded_size(msg)


# -- size pass exactness ------------------------------------------------------

#: strings that also appear in envelopes, so payload strings hit
#: header interns
HEADER_NAMES = (SRC.node, SRC.service, DST.node, DST.service)
names = st.sampled_from(HEADER_NAMES + ("m", "x", "名前")) | st.text(max_size=5)
texts = st.text(max_size=12)
ints = st.integers(min_value=-2**70, max_value=2**70) | st.sampled_from(
    [-64, -65, 63, 64, 2**63, -2**63 - 1, 2**64 + 1])


@st.composite
def elements(draw):
    name = draw(names)
    oid = draw(st.one_of(
        st.sampled_from(["-0", "-007", "-17", "-٣", "-²", "-", ""])
        .map(lambda suffix: name + suffix),
        st.integers(min_value=0, max_value=2**70).map(
            lambda n: f"{name}-{n}"),
        names))
    replicas = tuple(draw(st.lists(names, max_size=3)))
    return Element(name, oid, draw(names), replicas=replicas)


element_tuples = st.lists(elements(), min_size=1, max_size=6).map(tuple)

failures = st.one_of(
    st.builds(ServerBusyFailure, texts,
              retry_after=st.floats(min_value=0.0, max_value=10.0)),
    st.builds(WrongShardFailure, texts, owner=st.none() | names),
    st.builds(SpecViolation, texts,
              invocation_index=st.none() | st.integers(0, 2**20)),
    st.builds(TimeoutFailure, texts))


@st.composite
def deltas(draw):
    versions = st.integers(min_value=0, max_value=2**40)
    return {
        "version": draw(versions),
        "sealed": draw(st.booleans()),
        "ghosts": tuple(draw(st.lists(names, max_size=3))),
        "adds": tuple(draw(st.lists(st.tuples(names, elements(), versions),
                                    max_size=3))),
        "removes": tuple(draw(st.lists(st.tuples(names, versions, elements()),
                                       max_size=3))),
        "epoch": draw(versions),
        "active_iterations": tuple(draw(st.lists(versions, max_size=3))),
    }


#: more than 128 distinct strings, so later references take two bytes
many_strings = st.integers(min_value=129, max_value=200).map(
    lambda n: tuple(f"s{i}" for i in range(n)))

leaves = st.one_of(
    st.none(), st.booleans(), ints, st.floats(allow_nan=False), texts,
    st.binary(max_size=8), st.just({}), elements(), element_tuples,
    failures, deltas(), st.builds(Odd, st.integers()),
    st.sets(st.integers(), max_size=4), st.frozensets(texts, max_size=4),
    st.builds(Blob, texts | st.none(), st.integers(-5, 300)),
    many_strings)

payloads = st.recursive(leaves, lambda children: st.one_of(
    st.lists(children, max_size=4).map(tuple),
    st.lists(children, max_size=4),
    st.dictionaries(names, children, max_size=3),
    st.builds(Blob, children, st.integers(-5, 300))), max_leaves=10)


@st.composite
def messages(draw):
    is_reply = draw(st.booleans())
    method = draw(st.sampled_from(METHODS) | st.just("frobnicate"))
    if is_reply:
        method += draw(st.sampled_from(["!ok", "!error", ""]))
    return Message(src=Address(draw(names), draw(names)),
                   dst=Address(draw(names), draw(names)),
                   method=method, payload=draw(payloads), is_reply=is_reply,
                   reply_to=draw(st.none() | st.integers(0, 2**70)),
                   priority=draw(st.sampled_from([0, 1, 2, 200])),
                   msg_id=draw(st.integers(0, 2**70)))


@given(messages())
@settings(max_examples=300)
def test_message_size_is_encoded_length_of_canonical_message(msg):
    expected = encoded_size(msg)
    assert COMPACT.message_size(msg) == expected
    memo: dict = {}
    assert COMPACT.message_size(msg, memo) == expected      # memo misses
    assert COMPACT.message_size(msg, memo) == expected      # memo hits


def test_two_byte_intern_references_are_sized_exactly():
    strings = tuple(f"s{i}" for i in range(200))
    members = (Element("s150", "s150-3", "s199", replicas=("s0", "s180")),
               Element("s7", "oid:s7", "n0.0"))
    msg = call((strings, members, "s140"), method="list_members!ok")
    memo: dict = {}
    for _ in range(2):
        assert COMPACT.message_size(msg, memo) == encoded_size(msg)


# -- the element-tuple memo ---------------------------------------------------

def membership_reply(members, version=3):
    return call((version, members), method="list_members!ok")


def test_memo_hits_a_rebuilt_snapshot_of_unchanged_members():
    members = tuple(Element(f"m{i}", f"m{i}-{i}", f"n{i % 3}.0")
                    for i in range(5))
    memo: dict = {}
    first = COMPACT.message_size(membership_reply(members), memo)
    rebuilt = tuple(sorted(members, key=lambda e: e.name))
    assert rebuilt is not members
    assert COMPACT.message_size(membership_reply(rebuilt), memo) == first
    assert first == encoded_size(membership_reply(rebuilt))
    (entry,) = memo.values()
    assert entry[0] is members         # a hit: the first tuple stays


def test_memo_misses_when_a_member_is_replaced():
    members = [Element(f"m{i}", f"m{i}-{i}", "n0.0") for i in range(5)]
    memo: dict = {}
    COMPACT.message_size(membership_reply(tuple(members)), memo)
    members[2] = Element("replacement-with-a-long-name", "r-1", "n9.9")
    msg = membership_reply(tuple(members))
    assert COMPACT.message_size(msg, memo) == encoded_size(msg)
    assert len(memo) == 2


def test_memo_tells_equal_elements_with_different_replicas_apart():
    bare = Element("m", "m-1", "n1.0")
    placed = Element("m", "m-1", "n1.0", replicas=("n2.0", "n3.0"))
    assert bare == placed and hash(bare) == hash(placed)
    memo: dict = {}
    sizes = [COMPACT.message_size(membership_reply((e,)), memo)
             for e in (bare, placed)]
    assert sizes == [encoded_size(membership_reply((bare,))),
                     encoded_size(membership_reply((placed,)))]
    assert sizes[0] < sizes[1]


def test_memo_stays_within_its_bound():
    memo: dict = {}
    for i in range(MEMO_LIMIT + 10):
        msg = membership_reply((Element(f"m{i}", f"m{i}-1", "n0.0"),))
        assert COMPACT.message_size(msg, memo) == encoded_size(msg)
        assert len(memo) <= MEMO_LIMIT
    assert len(memo) == MEMO_LIMIT


def test_each_world_starts_with_an_empty_memo():
    kernel, net, world, _ = standard_world(members=6)
    drain_all(kernel, DynamicSet(world, CLIENT, "coll"))
    assert net.transport.wire.size_memo
    _, fresh, _, _ = standard_world(members=6)
    assert fresh.transport.wire.size_memo == {}
    assert WireFormat().size_memo == {}


# -- end to end: every stamped size is the encoded length ---------------------

def assert_sizes_are_encoded_lengths(net, sent, bytes_before):
    assert sent
    for msg in sent:
        assert msg.wire_size == encoded_size(msg), msg
    bytes_sent = net.kernel.obs.metrics.value("net.bytes_sent")
    assert bytes_sent - bytes_before == sum(m.wire_size for m in sent)


def test_population_world_stamps_encoded_lengths():
    scenario = build_scenario(
        ScenarioSpec(n_clusters=2, cluster_size=2, n_members=8), seed=7)
    net = scenario.net
    before = net.kernel.obs.metrics.value("net.bytes_sent")
    sent = spy_sends(net)
    PopulationEngine(scenario, PopulationSpec(
        behaviors=default_behaviors(scenario),
        stages=(Stage(duration=3.0, arrival_rate=20.0),))).run()
    assert_sizes_are_encoded_lengths(net, sent, before)
    assert any(m.method == "list_members!ok" for m in sent)


def test_sharded_wan_ingest_and_drain_stamp_encoded_lengths():
    spec = ScenarioSpec(n_clusters=4, cluster_size=3, n_members=0,
                        member_size=4096, replicas=1, object_replicas=1,
                        shards=4, bandwidth_preset="wan")
    scenario = build_scenario(spec, seed=3)
    net, world = scenario.net, scenario.world
    plan = member_plan(replace(spec, n_members=24), scenario.kernel)
    before = net.kernel.obs.metrics.value("net.bytes_sent")
    sent = spy_sends(net)

    def session():
        added = yield from Repository(world, scenario.client).add_many(
            scenario.coll_id, plan)
        ws = DynamicSet(world, scenario.client, scenario.coll_id)
        drained = yield from ws.elements().drain()
        return added, drained

    added, drained = scenario.kernel.run_process(session())
    assert len(added) == len(plan)
    assert set(drained.elements) == set(added)
    assert_sizes_are_encoded_lengths(net, sent, before)
