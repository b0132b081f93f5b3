"""Pinned SHA-256 digests of the abelianized complexes of loop-group
resolutions (absolute and relative) and of their derivation cochain
complexes, on all and on the nondegenerate generators, and of the
fallback resolution `z2res-basis.sres`.  Any change to how these are
built must leave every matrix, relation and rank as it is.  The
relations and maps, kept as sparse columns, are written out here as the
dense matrices the digests were taken on."""

import hashlib
import json
import os

import pytest

from aq.algebras import cyclic_group, klein_four, symmetric_3
from aq.beck import XModule
from aq.fixtures import load_algebra, load_sres
from aq.invariants import _coefficient, der_cochain
from aq.presented import Presentation
from aq.resolutions import abelianized_complex, loop_group_resolution
from aq.rings import CoefficientModule, Ring, _act_matrix
from aq.snf import cols_to_matrix

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

GROUPS = {
    "Z2": (lambda: cyclic_group(2), 3),
    "Z3": (lambda: cyclic_group(3), 3),
    "Z4": (lambda: cyclic_group(4), 3),
    "V4": (klein_four, 3),
    "S3": (symmetric_3, 2),
}


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _levels(levels):
    return [[lv.gens, cols_to_matrix(lv.rels, lv.gens)] for lv in levels]


def _complex_digest(v, over):
    cx, ranks, ring = abelianized_complex(v, over=over)
    diffs = [None] + [cols_to_matrix(d, cx.levels[n - 1].gens)
                      for n, d in enumerate(cx.diffs) if n]
    return _digest({"levels": _levels(cx.levels), "diffs": diffs,
                    "ranks": ranks, "zrank": ring.zrank()})


def _cochain_digest(v, k, x, cells):
    """The derivation complex on every generator (`der_cochain`), or, given
    `cells`, its levels and cofaces restricted to the generators cells[n]
    of each level n."""
    if cells is None:
        w = der_cochain(v, k, x=x)
        levels, cofaces = w.levels, w.cofaces
    else:
        coeff = _coefficient(k, x)
        face_mats, _ = v.abelianization(x is not None).columns()
        levels = [Presentation.from_moduli(list(coeff.moduli) * len(c))
                  for c in cells]
        cofaces = [[_act_matrix(fox, coeff, cells[n], cells[n + 1], dual=True)
                    for fox in face_mats[n + 1]]
                   for n in range(v.truncation)]
    return _digest({"levels": _levels(levels), "cofaces": [
        [cols_to_matrix(c, levels[n + 1].gens) for c in maps]
        for n, maps in enumerate(cofaces)]})


def _nondegenerate_tuples(v, g):
    """Per level, the indices of the generators t/x0/.../xn with no
    identity after the first entry."""
    ident = g.identity()
    return [[i for i, name in enumerate(lv.generators["g"])
             if ident not in name.split("/")[2:]] for lv in v.levels]


def _cases(g):
    """(x, coefficients): absolute Z/2, relative Z/3 and the group ring."""
    ring = Ring("ZG", group=g.group_table("g"))
    return [(None, XModule.trivial(g, [2])), (g, XModule.trivial(g, [3])),
            (g, CoefficientModule.group_ring(ring))]


def _all_digests(name):
    make, truncation = GROUPS[name]
    g = make()
    v = loop_group_resolution(g, truncation=truncation)
    out = {f"complex/{over is not None}": _complex_digest(v, over)
           for over in (None, g)}
    cells = _nondegenerate_tuples(v, g)
    for i, (x, k) in enumerate(_cases(g)):
        out[f"cochain/{i}/all"] = _cochain_digest(v, k, x, None)
        out[f"cochain/{i}/nondegenerate"] = _cochain_digest(v, k, x, cells)
    return out


def _fallback_digests():
    z2 = load_algebra(os.path.join(FIXTURES, "z2.alg"))
    v = load_sres(os.path.join(FIXTURES, "z2res-basis.sres"))
    out = {f"complex/{over is not None}": _complex_digest(v, over)
           for over in (None, z2)}
    for i, (x, k) in enumerate(_cases(z2)):
        out[f"cochain/{i}/all"] = _cochain_digest(v, k, x, None)
    return out


# taken before the abelianization became a free simplicial module
EXPECTED = {
    "S3": {
        "complex/False":
            "0ed6d8f1b771f3712fe15f67664bf98dab06ab6b3ff44b4427bc8c53dee8f41c",
        "complex/True":
            "8e2741d038d70a203e953180d59d1be52ec3acb45405793a6f6d76a429c07cc8",
        "cochain/0/all":
            "f4a606862a47795777203859a1f710ad5c293ac2c1ba16c9ee8a29dd50ef1371",
        "cochain/0/nondegenerate":
            "4632e0868176032e0830ba0ab7ae820a62c4f48403ef34de60f5c0ebb20c0e53",
        "cochain/1/all":
            "6640c7520f99b315adc186d55db09f00f7c91ab9b5bf3c7bd90590f6148cc7b1",
        "cochain/1/nondegenerate":
            "f2b6f281222ea5df8b092890dd1e73a1530df6d7f359bd0302e56b9ed9a547f2",
        "cochain/2/all":
            "7ef80c70b0ffa36bef4a33ba8d4081d59e41da1196803bc1d40ce6d188ae1cb7",
        "cochain/2/nondegenerate":
            "c4b51561bd2934633a1617badcf034e9fb4966b716448c5f9fbcb87d8cd96144",
    },
    "V4": {
        "complex/False":
            "5cb4d4727ce0325fd2dadceaeec9ff247d71eb6e4cfcdaec87dd377a15678572",
        "complex/True":
            "e1e96c9760ec956a842e8c694e9b710ce570f1134dc5c974ad614f543b71182c",
        "cochain/0/all":
            "9ee6750d9a6f5b3a155ac9306b8f8d56643169014cf93b7bb465287bd64e7f01",
        "cochain/0/nondegenerate":
            "e58f40be51d34aca9469068b084e465bc786dd1d344acd23ae58ebee570f718e",
        "cochain/1/all":
            "86e71cd1e4f4bf8e878e6ff29b2f6364006e9cff1b4abd264b274ce6d9f6d58b",
        "cochain/1/nondegenerate":
            "a2ee4c622f7ff5f643c49c061b1f1287a504d16d114711de35a114ccee098a89",
        "cochain/2/all":
            "a59c7b887d750b9126bc0eba44473b5a513893cac2645055fb1086dd3a5c6987",
        "cochain/2/nondegenerate":
            "2a8828a6bc7557ea687c653ba7c53dd9f49cee3f4d84034bf9dce3c204367fd4",
    },
    "Z2": {
        "complex/False":
            "31f170883b643b8851a2218ad4d7dffdf0fb4b54a191086f875f73837b0f66f0",
        "complex/True":
            "980e31d39976d2e45212d235e361399fcb6a61069265e1a137274ea2407c5bc0",
        "cochain/0/all":
            "f29c49f14b3d84da32dcd98f31fa9864809e56f7df5cecdaab3cdcc037423b92",
        "cochain/0/nondegenerate":
            "4b3690f43ff9bd420d4ce8155fddf5bc06e5eef40901aef6c322098835c61b95",
        "cochain/1/all":
            "f05fbe83c263dcfeb64f766c0633a66b8f5b1e7b1ee510f3365edb774ae90341",
        "cochain/1/nondegenerate":
            "ed7ae2a7ef4b8ab7b4039922be9ce15907650faebea1039d3e08e34e6d7a912d",
        "cochain/2/all":
            "b8d3d8473dde3d33b486a4a06ff6b66ea9fc2037266eef2064ce9bc3b1b9e499",
        "cochain/2/nondegenerate":
            "06f6e40006b8e85192a9fb2dcbdcca52405c14e4fa2e3011b07d76f043be942f",
    },
    "Z3": {
        "complex/False":
            "3363a23f384201968a79cb3e3abb7bff55dc78d37eb2b6f48d3dc6cfc5b4887e",
        "complex/True":
            "1192432c89bd82611180b5a857a27bd15053fcb50bf9df2583dc7f8a340c8cfc",
        "cochain/0/all":
            "51530ecf687719ac0f48d90ab4ee36f07fc22127947a57f8ceb731fe61476c39",
        "cochain/0/nondegenerate":
            "d9e2acc3c91789ba696b2b1268e9b25aa67dd3c9a07ddda0eb711f259457ab6e",
        "cochain/1/all":
            "14f0d3f949924a97aaa1c1a76d86a0d7f229bbc4c754f3f4233a090d5309b759",
        "cochain/1/nondegenerate":
            "d9e279e071532c53eecb444df100ec34221e848e1afcf417007bc1c713d4121a",
        "cochain/2/all":
            "e36142530893d907f9a38bd8d86fb5fdbf917588e7f0422272296b4b42729972",
        "cochain/2/nondegenerate":
            "fda230d193745520c1a43bb0c92432c874c581ed53a4d00ea6b45b7d0ef98a17",
    },
    "Z4": {
        "complex/False":
            "58f16d4f9f2905845ba48c4fb7f02ac2f4fe66e3da9f0b35ec9275b29b7763f8",
        "complex/True":
            "021ca6870be9eedca4dae4e48a8ce834490cbb8ff90942f6a74a43554f352c08",
        "cochain/0/all":
            "692d99b9be7bafdeb794e80e601dc0b07e6024b75ce034037cd3f881d1e99e51",
        "cochain/0/nondegenerate":
            "313cd3b8e1528081c3a939377d2cadb34bf0f2300a10a438eba16964cd3915c8",
        "cochain/1/all":
            "49856c02485615af9d81affb40abb148a99dbb31862d8f0788f8afe82502317f",
        "cochain/1/nondegenerate":
            "a15a09abf4f1f033cad8a3cd920320be6ba6d41e90452ae6e30af2e3213e5d15",
        "cochain/2/all":
            "11b5ec7101843736903727cc5bb9c75881927ccdfa2b6239a4b39293d103f94d",
        "cochain/2/nondegenerate":
            "dae0f498c2e19ebc33573e50a52ba1b56a242a595ee2614903db8dcecb71221c",
    },
    "z2res-basis": {
        "complex/False":
            "ca58432d6d1c4b3dc22fc4cac88d92a11b48f937f245813364c4e673cefd50e4",
        "complex/True":
            "d965f93d2859224c5a76554ee411dda11ac850458d5ac1659d6731909539e987",
        "cochain/0/all":
            "3898135e1ef616bc183b7d365cb7d9891d9c77775170b55e14bcc14340b319bd",
        "cochain/1/all":
            "516a10cdbd3a2a9381fe19d44373615bf77980e35add3f5fbfa2069fa610a9f0",
        "cochain/2/all":
            "3a7722348605704cd8777b91780e799f6b5b4f5514219afdd556f7e2bdf68cb9",
    },
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_loop_group_abelianization_digests(name):
    assert _all_digests(name) == EXPECTED[name]


def test_fallback_abelianization_digests():
    assert _fallback_digests() == EXPECTED["z2res-basis"]
