"""Pinned SHA-256 digests of Dold-Kan objects: the sparse columns, the
faces and degeneracies written out from them as dense matrices, the
summand offsets and the normalized complex read back, for seeded chain
complexes over Z, Z/4, Z/6, Z[C2] and Z[C3] (free resolutions and
complexes with zero differentials in every other degree) and for
presented complexes (K(A, n) and a boundary K + K -> K), at truncations
3-5.  Any change to how these objects are
built must leave every entry, column and offset as it is.  Also: sparse
column composition, the identity check's product, equals the plain
accumulation over the ring."""

import hashlib
import json
import random

from aq.abgroups import FGAbelianGroup
from aq.algebras import cyclic_group
from aq.presented import Presentation
from aq.rings import RModulePresentation, Ring, free_resolution
from aq.simplicial import (
    ChainComplex,
    PresentedComplex,
    _compose_columns,
    dold_kan,
    k_object,
    normalize_dk,
)
from aq.snf import _sparse_cols


def _rings():
    out = {"Z": Ring("Z"), "Z/4": Ring("Zmod", m=4), "Z/6": Ring("Zmod", m=6)}
    for m in (2, 3):
        out[f"Z[C{m}]"] = Ring("ZG", group=cyclic_group(m).group_table("g"))
    return out


RINGS = _rings()


def _entry(ring, rng):
    if ring.kind != "ZG":
        return rng.randint(-5, 5)
    return {g: c for g in ring.group.elements
            if (c := rng.choice([0, 0, 1, -1, 2]))}


def _alternating_complex(ring, seed):
    """Random differentials in odd degrees, zero ones in even degrees, so
    that d d = 0 whatever the entries."""
    rng = random.Random(seed)
    ranks = [rng.randint(0, 3) for _ in range(rng.randint(2, 5))]
    diffs = [None] + [_sparse_cols(
        [[_entry(ring, rng) if n % 2 else ring.zero()
          for _ in range(ranks[n])] for _ in range(ranks[n - 1])], ranks[n])
        for n in range(1, len(ranks))
    ]
    return ChainComplex(ring, ranks, diffs)


def _resolution_complex(ring, seed):
    """The free resolution of a cyclic module: Z/4, Z/2 over Z/4 and Z/6,
    the trivial module Z over a group ring."""
    rng = random.Random(seed)
    if ring.kind == "ZG":
        a = ring.group.elements[1]
        module = RModulePresentation(ring, 1, [[ring.add(ring.one(), {a: -1})]])
    else:
        module = RModulePresentation.cyclic(ring, 4 if ring.kind == "Z" else 2)
    ranks, diffs = free_resolution(module, rng.randint(3, 4))
    return ChainComplex(ring, ranks, diffs)


def _boundary_complex():
    """[K + K -> K] for K = Z/2 + Z in degrees 2 -> 1, zero below."""
    moduli = [2, 0]
    levels = [Presentation.free(0), Presentation.from_moduli(moduli),
              Presentation.from_moduli(moduli * 2)]
    diffs = [None, [[], []], [[(0, 1)], [(1, 1)], [(0, -1)], [(1, -1)]]]
    return PresentedComplex(levels, diffs)


def _dense(cols, rows, zero):
    mat = [[zero] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col:
            mat[i][j] = x
    return mat


def _dense_maps(v):
    """The faces and degeneracies of `v` as dense matrices over its ring,
    written out here from `columns()`."""
    zero = v.ring.zero()
    gens = [lv.gens for lv in v.levels]
    faces, degens = v.columns()
    return ([[_dense(c, gens[n - 1], zero) for c in maps]
             for n, maps in enumerate(faces)],
            [[_dense(c, gens[n + 1], zero) for c in maps]
             for n, maps in enumerate(degens)])


def _levels(levels):
    """Generator counts and the relations written out as dense rows."""
    return [[lv.gens, _dense(lv.rels, lv.gens, 0)] for lv in levels]


def _normalized(v):
    """The levels and differentials of normalize_dk(v); the sparse
    columns of the differentials are written out here as dense
    matrices."""
    back = normalize_dk(v)
    diffs = [None] + [_dense(d, back.ranks[n - 1], back.ring.zero())
                      for n, d in enumerate(back.diffs) if n]
    if isinstance(back, PresentedComplex):
        return [_levels(back.levels), diffs]
    return [back.ranks, diffs]


def _digest(v):
    faces, degens = _dense_maps(v)
    obj = {
        "normalized": _normalized(v),
        "columns": v.columns(),
        "levels": _levels(v.levels),
        "faces": faces,
        "degens": degens,
        "offsets": [sorted([list(s), k, off] for (s, k), off in level.items())
                    for level in v.dk_offsets],
    }
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _objects():
    for name, ring in RINGS.items():
        for t in (3, 4, 5):
            yield f"{name}/alternating/{t}", dold_kan(
                _alternating_complex(ring, 10 * t + len(name)), truncation=t)
            yield f"{name}/resolution/{t}", dold_kan(
                _resolution_complex(ring, t), truncation=t)
    for group, n, t in ((FGAbelianGroup(0, [2]), 1, 3),
                        (FGAbelianGroup(0, [3]), 2, 4),
                        (FGAbelianGroup(1, [4]), 2, 5),
                        (FGAbelianGroup(1, [2, 2]), 1, 4)):
        yield f"k({group},{n})/{t}", k_object(group, n, truncation=t)
    for t in (3, 4):
        yield f"boundary/{t}", dold_kan(_boundary_complex(), truncation=t)


DIGESTS = {
    "Z/alternating/3":
        "a3ae5747e61d291ecd6bca0eb5a8bdf3075de79ab8c189e2c7ec900694fdb412",
    "Z/resolution/3":
        "d4753d5b0fcdb82e2d9ecaecc53c6622cba9861d04fa2ce4b5c7a3a44f455127",
    "Z/alternating/4":
        "ab14f84b268e18abc3c6314d2f5d1a0144e33bd0d80588e76b6840e33bf23fc3",
    "Z/resolution/4":
        "eee02dac7aaa5e34de069144cf21a2e6c3a8409498bc23d7c470be017127c035",
    "Z/alternating/5":
        "f667a3b39e194d827b1a43e6dfb57aa2f95305422cd638a8e481d2402986d84f",
    "Z/resolution/5":
        "a9da65daa523315757d5ad85531255db1907dc6b71b9d49734169dfca2879a8f",
    "Z/4/alternating/3":
        "43e328434c6d81d567122ac2b3afff248fdeaa131e02552ad24ca0e6fe9e7938",
    "Z/4/resolution/3":
        "dfd41d197a227a6d00f62f4ab5255fa2033e75d7e3ba1059fee5b6a9e0554865",
    "Z/4/alternating/4":
        "190a7bd3a0c3009c7e3aa708be7a0a97fc89fab54edeea9403e944e51c96c0fe",
    "Z/4/resolution/4":
        "a696fb9aa28fc0c00e3a97ef35c6ff1a19c75ca8dbe5331ad64255f42a9bf89d",
    "Z/4/alternating/5":
        "cf8d4f2ca34854906761ef4468a74a53727a16057e537741eb28841bdbe84d25",
    "Z/4/resolution/5":
        "67372778483b84ff8cc91c0357419b65b995f80794faa71e0680b49f8ec9adc7",
    "Z/6/alternating/3":
        "43e328434c6d81d567122ac2b3afff248fdeaa131e02552ad24ca0e6fe9e7938",
    "Z/6/resolution/3":
        "d15945c460ceeebebd4037f18f40f424084db9e0d60d3d8138105600c57fbb54",
    "Z/6/alternating/4":
        "190a7bd3a0c3009c7e3aa708be7a0a97fc89fab54edeea9403e944e51c96c0fe",
    "Z/6/resolution/4":
        "641834cd6ffc34070bc777f1105310036b583cb7e1fef7dc6fdb2a27230e71bd",
    "Z/6/alternating/5":
        "cf8d4f2ca34854906761ef4468a74a53727a16057e537741eb28841bdbe84d25",
    "Z/6/resolution/5":
        "315e7c97f19bebdf80397ae35d33f2f8c262ad1a44b263811a28dc137c1bc8c7",
    "Z[C2]/alternating/3":
        "43d3c0c1e9cba3c3a64c14cbdc5556fafdb7312ea33d7479d3cdbdae953ae163",
    "Z[C2]/resolution/3":
        "5526b0657e4d3f7c1e36e79136ba10b011e0a884dc90bce0c02731a4dc733dfd",
    "Z[C2]/alternating/4":
        "115936423cfe3f22c428906923f7d9bad3e4cadef7d88f8be6793a8dbb23adf4",
    "Z[C2]/resolution/4":
        "1005e754e9967f0f7c99237328085bd298283c8ee5ac70aafaa6d347ea76035d",
    "Z[C2]/alternating/5":
        "8dd9efaf7c240b49ae1f087e143e2a4beae21d89f31b92a476effaf7d5272b34",
    "Z[C2]/resolution/5":
        "dcd6f1e7b5bf644b0ff1053bc3184bf9201554a0dd0d475ace576f2ba4e98565",
    "Z[C3]/alternating/3":
        "7d852b060934ede58a62bf0e076dcae1fe0eb5d9c897a0be7bb587d98fa8e5c1",
    "Z[C3]/resolution/3":
        "8ce8590a1c3e6e1c33e92badfd9dc89408373ad70887563cf5f316569136b650",
    "Z[C3]/alternating/4":
        "c8dbccaf13ab25a3744f9cd614bd98faa96bfa466df7b1032e4482f3d35a60a5",
    "Z[C3]/resolution/4":
        "51a2b380b439809cbe9270f9cf2faadae6c7d048e69924af19c09226455e311a",
    "Z[C3]/alternating/5":
        "8dd9efaf7c240b49ae1f087e143e2a4beae21d89f31b92a476effaf7d5272b34",
    "Z[C3]/resolution/5":
        "cf55afb05d54a2bb82d18290f0d84ba8620963d7735caf60f07124b173b49a00",
    "k(Z/2,1)/3":
        "876fee392386ea48687ccc35243afff2602a830f7c21df25c55b6d9f43839b45",
    "k(Z/3,2)/4":
        "7e8eeaec1825319c2be43b5644494c8ac59b876e55fe4a76b3700310d2ddacfa",
    "k(Z/4 + Z,2)/5":
        "1647881b87f1d866e280fe7159ee3b96e78181ffba42b175abcafac28cafedaa",
    "k(Z/2 + Z/2 + Z,1)/4":
        "108a86975144c76ee6ddacd62a8dabe1abe4d426e61884d820e529b74aae9e93",
    "boundary/3":
        "bd9f1b012bb4c689c959d32dcedbc7241872b0e2f51831e19319c77cfba4b351",
    "boundary/4":
        "741242da2fa971d19adafcd827157e95b895e58e1fe0ad3c0fcb623482cda5d1",
}


def test_dold_kan_objects_are_unchanged():
    assert {key: _digest(v) for key, v in _objects()} == DIGESTS


def _accumulated(outer, inner, ring):
    """outer . inner entry by entry in the ring, with no shortcut."""
    out = []
    for col in inner:
        acc = {}
        for t, a in col:
            for i, b in outer[t]:
                acc[i] = ring.add(acc.get(i, ring.zero()), ring.mul(a, b))
        out.append({i: x for i, x in acc.items() if not ring.is_zero(x)})
    return out


def _sparse_entry(ring, rng):
    """A nonzero stored entry; over Z/m it may be >= m, negative or a
    multiple of m, as an edited matrix can hold."""
    while True:
        if ring.kind == "ZG":
            x = _entry(ring, rng)
        elif ring.kind == "Zmod":
            x = rng.choice([rng.randint(-2 * ring.m, 2 * ring.m), ring.m,
                            -ring.m, ring.m + 1])
        else:
            x = rng.randint(-5, 5)
        if x:
            return x


def _sparse_columns(ring, rows, cols, rng, unit_share):
    """Columns with each row at most once; a `unit_share` of them are one
    entry equal to the ring's one."""
    out = []
    for _ in range(cols):
        if rows and rng.random() < unit_share:
            out.append([(rng.randrange(rows), ring.one())])
            continue
        picked = sorted(rng.sample(range(rows), rng.randint(0, min(rows, 3))))
        out.append([(i, _sparse_entry(ring, rng)) for i in picked])
    return out


def test_unit_columns_compose_as_the_plain_accumulation():
    rng = random.Random(7)
    for ring in RINGS.values():
        for _ in range(40):
            a, b, c = (rng.randint(0, 6) for _ in range(3))
            outer = _sparse_columns(ring, a, b, rng, 0.3)
            inner = _sparse_columns(ring, b, c, rng, 0.7)
            assert _compose_columns(outer, inner, ring) == \
                _accumulated(outer, inner, ring), ring
