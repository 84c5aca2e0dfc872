"""Emission order of the join kernels and the emitters' checksum.

Algorithm 2 (and Algorithm 1's heavy values and the two-way joins'
equal-value groups) hand their results to the emitter as factorized
blocks: a fixed part crossed with memory-resident tuple lists.  The
digests below pin the *ordered* result sequence a
:class:`CollectingEmitter` sees on worst-case, skewed and line
instances, so the factorized representation is held to the
nested-loop order the per-result emit produced.  The remaining tests
pin the checksum: one result multiset has one signature whichever
emit path delivered it.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product

import pytest

from repro import Device, Instance
from repro.core import (CollectingEmitter, CountingEmitter, acyclic,
                        acyclic_join, line3_join, nested_loop_join,
                        sort_merge_join)
from repro.core.acyclic import end_chooser
from repro.core.emit import emit_block, emit_product, expand_product
from repro.obs import ProfiledEmitter, SpanProfiler
from repro.query import line_query, star_query
from repro.workloads import (schemas_for, skewed_instance,
                             star_worstcase_instance)

from test_em_blocks import LINE3_DATA, TWOWAY_DATA, TWOWAY_SCHEMAS

MBS = [(4, 2), (8, 2), (64, 8)]


def ordered_digest(results) -> str:
    """sha256 over the results in emission order (edge order within a
    result does not matter)."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr(sorted(r.items())).encode())
        h.update(b"\n")
    return h.hexdigest()


def _star(M, B):
    schemas, data = star_worstcase_instance([16, 16, 16])
    inst = Instance.from_dicts(Device(M=M, B=B), schemas, data)
    em = CollectingEmitter()
    acyclic_join(star_query(3), inst, em)
    return em.results


def _line3(ends: str):
    def run(M, B):
        q = line_query(3)
        inst = Instance.from_dicts(Device(M=M, B=B), schemas_for(q),
                                   LINE3_DATA)
        em = CollectingEmitter()
        acyclic_join(q, inst, em, chooser=end_chooser(ends))
        return em.results
    return run


def _skewed(q, size, seed):
    def run(M, B):
        schemas, data = skewed_instance(q, size, 5, seed=seed,
                                        hot_fraction=0.5, hot_values=1)
        inst = Instance.from_dicts(Device(M=M, B=B), schemas, data)
        em = CollectingEmitter()
        acyclic_join(q, inst, em)
        return em.results
    return run


def _algorithm1(M, B):
    q = line_query(3)
    inst = Instance.from_dicts(Device(M=M, B=B), schemas_for(q), LINE3_DATA)
    em = CollectingEmitter()
    line3_join(q, inst, em)
    return em.results


def _twoway(join, left, right):
    def run(M, B):
        inst = Instance.from_dicts(Device(M=M, B=B), TWOWAY_SCHEMAS,
                                   TWOWAY_DATA)
        em = CollectingEmitter()
        join(inst[left], inst[right], em)
        return em.results
    return run


CASES = {"star": _star, "line3_L": _line3("L"), "line3_R": _line3("R")}
for _seed in (1, 2, 3):
    CASES[f"L4_skewed_s{_seed}"] = _skewed(line_query(4), 16, _seed)
    CASES[f"star3_skewed_s{_seed}"] = _skewed(star_query(3), 14, _seed)

#: The other kernels that hand the emitter cross products: Algorithm
#: 1's heavy values and the two-way joins' equal-value groups.
KERNELS = {"line3_join": _algorithm1,
           "sort_merge_join": _twoway(sort_merge_join, "R", "S"),
           "nested_loop_cross": _twoway(nested_loop_join, "R", "T")}

#: "case/M,B" -> (result count, ordered sha256), recorded before any
#: kernel emitted factorized blocks.
DIGESTS = {
    "L4_skewed_s1/4,2":
        (500, "9c8668ec86889f592f8dec8a4487a04a262fd28ea46f49a87571991ab95fde33"),
    "L4_skewed_s1/8,2":
        (500, "9e33ae9acdd03f7e5a1ad21aadcfd5a08e28771f300033190eefc4a972aa25b8"),
    "L4_skewed_s1/64,8":
        (500, "c89eb209cce9ab7894df3fe76ad6616ffc09befc2ff52b42e2da71a98514df90"),
    "L4_skewed_s2/4,2":
        (480, "84c3c8c45d528629aa01db27bc72ebd5eea38c9f01b31d8a3772de7dee4170a1"),
    "L4_skewed_s2/8,2":
        (480, "64b82bc15c0379c527bae44c299b7339203cf8c7388b111a813a26c5203607ed"),
    "L4_skewed_s2/64,8":
        (480, "b5eb3d2a790be40155d0566121db77e5ffc0c59ad3e6602e293e4764c942c87f"),
    "L4_skewed_s3/4,2":
        (575, "1901d0cb20082aaf75a6ea6e3cb42fc60eb6ed6763b4c212330dce4b7a6b0d01"),
    "L4_skewed_s3/8,2":
        (575, "46456af99e2a52756e2f86fa90013248db7d05cd820a417ea0883ce29fceb8db"),
    "L4_skewed_s3/64,8":
        (575, "decca895ce33d72eb2acf118ed3f9548ea76112dd0e7fe8092307414cbaa7db4"),
    "line3_L/4,2":
        (45, "ba5d48e4e47e3afa5d556ab4c9436355de37df6dc0efe3f8967141d304811f38"),
    "line3_L/8,2":
        (45, "ee31c5294d63de5b5df24706b9c01a71802b90ccc38eb9c14313372ca4060f27"),
    "line3_L/64,8":
        (45, "0ab8ed808b209f5090daf0d5bd20e7b2f24960be5b369cd33d21116dc42e7184"),
    "line3_R/4,2":
        (45, "a33f9856f27772d92b38646fa6eddb1acc57b5478bc0be32b8f8d7ebfa87adbe"),
    "line3_R/8,2":
        (45, "571f387ffa5c322184301faa737b6bcd101ca6e564c72719916fa07190dc776e"),
    "line3_R/64,8":
        (45, "dd852648809bd946bc439c9e6e9af0a9be5504f4530d28eabe5fdfd8be92af43"),
    "star/4,2":
        (4096, "065add58cbb95276920b3662ec346c6e91da601eb5e5baefcbdf77b4599965ab"),
    "star/8,2":
        (4096, "5b539dc0be77278c43985dc5dfa921deab61887b76fd72903ee0087a004febe5"),
    "star/64,8":
        (4096, "8803151602974fd83a4c38564a562b3b887c7a6982b69922d9c3f9c62ae0fa46"),
    "star3_skewed_s1/4,2":
        (330, "fe497961572c60dad5f3d152dcbc975be75c1326db93e65d06bdf63bec114fe4"),
    "star3_skewed_s1/8,2":
        (330, "6d8365f5e013c8daa424bccf419b273bf15d9c7008b4b3575d20735037e8e28f"),
    "star3_skewed_s1/64,8":
        (330, "dc034107ec4c1c727ec5156882c83aa101ef7936516e9d0709e95b8c293f500f"),
    "star3_skewed_s2/4,2":
        (327, "ec9442909a2090d9ecf2c23b9702d35208a5821dafc79e333548787d04182ad3"),
    "star3_skewed_s2/8,2":
        (327, "698258d9a0a1d4773266fbfda28a859851635cc16689457d0c6da31108b1f409"),
    "star3_skewed_s2/64,8":
        (327, "a666331481b99d5c777541fcd4088232692f30116c710e89e7434ae07c07f800"),
    "star3_skewed_s3/4,2":
        (354, "fa10dabfc6ebe55cec98d687179006879aa7ecd420ea735ae9eb321bddadc4bf"),
    "star3_skewed_s3/8,2":
        (354, "f7c7766cbbad3efc7b6842e8773247c9d4a293143cdb443b6e3dd049f0add3e8"),
    "star3_skewed_s3/64,8":
        (354, "6e3fb8c764ebf9e31a3810309d45fab14543f63517614b44c3e35e4c4bfb2d4b"),
    "line3_join/4,2":
        (45, "ba5d48e4e47e3afa5d556ab4c9436355de37df6dc0efe3f8967141d304811f38"),
    "line3_join/8,2":
        (45, "e7f86318ac43aae84ccedd34f07ea6731fde7d863b6b6e06ab08d6f1deca3a0b"),
    "line3_join/64,8":
        (45, "75110b798794d5b1ab8e5bbd32bef5288d1e5916fe4f1c36fb7542abf9b97c61"),
    "nested_loop_cross/4,2":
        (126, "0a52e0d9eeaaab4414d9e2a5b25cef03a3c43733b67d7b8fe369fe6acb020ec5"),
    "nested_loop_cross/8,2":
        (126, "75e079a37c3ebcad51a91a89d309906997ba5a0069fc417835c03c907f720471"),
    "nested_loop_cross/64,8":
        (126, "188331f0e91d6d9c6b76074d809b7e3b66b2f43cec776f782ffa754876364c2b"),
    "sort_merge_join/4,2":
        (45, "379335a2247ac9b346177cef6139036004e5832085ad249c602ea7ff0f0ba412"),
    "sort_merge_join/8,2":
        (45, "0b49e0a5e4516beaf2ea1e93173ed5e0926979b490fd89907bf415156d595d15"),
    "sort_merge_join/64,8":
        (45, "734d3ded4e0ffeabc2f7cd69a9b3cd7cd19dd75e1a523bc2ebf051558f7f4ea5"),
}


@pytest.mark.parametrize("mb", MBS, ids=lambda mb: f"M{mb[0]}B{mb[1]}")
@pytest.mark.parametrize("name", sorted(CASES))
def test_ordered_emission_is_pinned(name, mb):
    results = CASES[name](*mb)
    key = f"{name}/{mb[0]},{mb[1]}"
    assert (len(results), ordered_digest(results)) == DIGESTS[key]


@pytest.mark.parametrize("mb", MBS, ids=lambda mb: f"M{mb[0]}B{mb[1]}")
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_emission_order_is_pinned(name, mb):
    results = KERNELS[name](*mb)
    key = f"{name}/{mb[0]},{mb[1]}"
    assert (len(results), ordered_digest(results)) == DIGESTS[key]


def test_pinned_cases_split_outer_and_inner_factors(monkeypatch):
    """The pinned cases split the probe factor both as the outermost
    factor with factors inside it and as an inner factor, the two
    places a split could reorder results."""
    positions = set()
    split = acyclic._per_probe_value

    def spy(emit_at, base, factors, probe, col):
        if probe not in base:
            k = next(i for i, (e, _) in enumerate(factors) if e == probe)
            if len({t[col] for t in factors[k][1]}) > 1:
                positions.add((k, len(factors) - 1 - k))
        split(emit_at, base, factors, probe, col)

    monkeypatch.setattr(acyclic, "_per_probe_value", spy)
    for name in CASES:
        CASES[name](64, 8)
    assert any(k == 0 and inner > 0 for k, inner in positions)
    assert any(k > 0 for k, _ in positions)


BLOCK = ({"e0": (0, 0)},
         (("e1", [(0, 1), (0, 2)]), ("e2", [(0, 7), (0, 8), (0, 9)])))


def _results():
    return list(expand_product(*BLOCK))


def test_expand_product_varies_last_factor_fastest():
    assert [(r["e1"][1], r["e2"][1]) for r in _results()] == list(
        product([1, 2], [7, 8, 9]))
    assert all(r["e0"] == (0, 0) for r in _results())


def test_one_multiset_one_signature_on_every_emit_path():
    results = _results()
    by_emit, by_block, by_product = (CountingEmitter() for _ in range(3))
    for r in reversed(results):
        by_emit.emit(r)
    emit_block(by_block, random.Random(7).sample(results, len(results)))
    emit_product(by_product, *BLOCK)
    assert (by_emit.signature() == by_block.signature()
            == by_product.signature())
    assert by_product.count == 6


@pytest.mark.parametrize("edit", ["drop", "duplicate"])
def test_dropping_or_duplicating_a_result_changes_the_signature(edit):
    results = _results()
    changed = results[1:] if edit == "drop" else results + results[:1]
    a, b = CountingEmitter(), CountingEmitter()
    emit_product(a, *BLOCK)
    emit_block(b, changed)
    assert a.signature() != b.signature()


def test_emitters_without_emit_product_get_the_block_in_order():
    em = CollectingEmitter()
    emit_product(em, *BLOCK)
    assert em.results == _results()


@pytest.mark.parametrize("inner", [CountingEmitter, CollectingEmitter])
def test_profiled_emitter_counts_every_algorithm2_result(inner):
    """Theorem 4's star reaches the emitter only as factorized blocks;
    the profiler's tuple counter must still see all 4096 results."""
    schemas, data = star_worstcase_instance([16, 16, 16])
    profiler = SpanProfiler()
    inst = Instance.from_dicts(Device(M=64, B=8, observers=[profiler]),
                               schemas, data)
    emitter = ProfiledEmitter(inner(), profiler)
    acyclic_join(star_query(3), inst, emitter)
    assert profiler.tuples_produced == emitter.count == 16 ** 3
