"""Build goldens: the incremental build must produce the very same tree.

Every digest below hashes a whole declustered tree — for each page, in
page-id order: its level, disk, cylinder, MBR ``repr``, subtree object
count and its entries in order (``oid@point`` for leaves, child page ids
above).  These are the fields of ``perfbench/workloads.py:tree_digest``
plus the MBRs and counts, so a change to any split choice, reinsertion
order, page id, bounding box or placement moves a digest.

The digests were recorded before the insertion hot paths (R* split,
ChooseSubtree, MBR caching) were optimised; speed-ups to those paths
must leave every digest unchanged.
"""

import hashlib
import random

import pytest

from repro.datasets import gaussian, uniform
from repro.extensions.xtree import ParallelXTree
from repro.parallel import ParallelRStarTree
from repro.rtree import LinearSplit, QuadraticSplit

NUM_DISKS = 5
POINTS = 400


def tree_digest(tree) -> str:
    """SHA-256 over every page of a declustered tree (see module doc)."""
    digest = hashlib.sha256()
    pages = tree.tree.pages
    for page_id in sorted(pages):
        node = pages[page_id]
        digest.update(
            f"{page_id}:{node.level}:{tree.disk_of(page_id)}:"
            f"{tree.cylinder_of(page_id)}:{node.mbr!r}:"
            f"{node.object_count}:".encode()
        )
        if node.is_leaf:
            for entry in node.entries:
                digest.update(f"{entry.oid}@{entry.point!r};".encode())
        else:
            for child in node.entries:
                digest.update(f"{child.page_id};".encode())
    return digest.hexdigest()


def _data(kind, dims, n=POINTS, seed=3):
    generate = uniform if kind == "uniform" else gaussian
    return generate(n, dims, seed=seed)


def _build(points, dims, tree_class=ParallelRStarTree, **kwargs):
    tree = tree_class(dims, NUM_DISKS, seed=11, **kwargs)
    for oid, point in enumerate(points):
        tree.insert(point, oid)
    return tree


MATRIX = [
    (kind, dims, page_size)
    for kind in ("uniform", "gaussian")
    for dims in (2, 3, 5, 8, 16)
    for page_size in (1024, 2048, 4096)
]

#: (kind, dims, page_size) -> digest of the default R*-tree build.
RSTAR_DIGESTS = {
    ('uniform', 2, 1024): 'd4115cd30d397e54c4d832307ec105276deeb990bce3c7589e5823526c2421b3',
    ('uniform', 2, 2048): 'd398a42ff0bb7f088ea742208ab96dbfb72650e66bc54fcd6bc8023f561f866e',
    ('uniform', 2, 4096): 'a12b19978e8d7bccfba4acea032c068714e4b62a75090c505f24858451c0af1a',
    ('uniform', 3, 1024): 'e296a8a6b4a8bd37bf5ae23961d39e16b1acdc1e3f0853ea7e86b6e3a448ed4d',
    ('uniform', 3, 2048): '92d795acb80b614c56c9614ca88039960d4a264c1c2cdf983c3b8c70b79663bb',
    ('uniform', 3, 4096): '7d1242881b9fe9c79fc36f851106d54b4b569b13cd0cb77873e8a6650a9ffcad',
    ('uniform', 5, 1024): '0931a6964e6af2cbafb354fc5bf9c0aa1b44f5103e423ec3b46a4e421102b02e',
    ('uniform', 5, 2048): '00a6dfa2685c500de7170b511e83ec8cacfe2d293020550e942cd12aaaf28b55',
    ('uniform', 5, 4096): 'a2ac2ec135f11763273b90563f8e425b68a5a63e5db9c4ba56355e4c40c6cacc',
    ('uniform', 8, 1024): '99d6aa0d9a2446dd6394ee543a40e6d7a1424364158f74782208585bf026004b',
    ('uniform', 8, 2048): '24d993c56fcc835259b0b51607f7be4bfd1079485a93f420bbf9765c87aeec43',
    ('uniform', 8, 4096): 'beba82210a4b58ac3361e865fd5162ba628889cb0c6c68e498f7fc95fbd2c16e',
    ('uniform', 16, 1024): '46881460b71ecd6d4ad1e7208d71a0387a847a43296b375fe2f5f5de2e8900f3',
    ('uniform', 16, 2048): '6cf08c442bc4e8b3456a193831abbd7bb20e02871b56b37c736d7761a96e807f',
    ('uniform', 16, 4096): '0921efa27a4340a68a595040eec8d782cde73fd66ea109bbce34ef692190874a',
    ('gaussian', 2, 1024): '218a55e4dc8b51b08e44b315aea6ec2d8775717117f9017392d52968dd047e54',
    ('gaussian', 2, 2048): '2177a68dc31500f8261af4f61e3ff942d3f13701cd78b2a09a1fc6f759effaa2',
    ('gaussian', 2, 4096): '4ca0ee425e8c4d5c6b72b55cf34107d4c7dc467f87908b1e463af14a1d677d29',
    ('gaussian', 3, 1024): '1d6bcd67bf42a074359c48dc1b512a313026f59773582e7e9af9147562c0054c',
    ('gaussian', 3, 2048): 'edfc4ab69ca200facf52ae6d4943566c8e7df7294564542f68126b1975a30296',
    ('gaussian', 3, 4096): '6af0ccb55587304c5ea906856c42098a791db7237daa9c8aea33a35f16d28ef7',
    ('gaussian', 5, 1024): '11300ecfd4ff49864185da18a732a520414a3c616fceb389dd8805f992f7e6a7',
    ('gaussian', 5, 2048): '58cb578cd98d57c4ee1692e4e7be5f22bdd9751bf985a3be944d8ee360cb79ad',
    ('gaussian', 5, 4096): 'c6de8700524e0db137032b48606b49ab63e6408cddf3af939c322b5eeffc1c6c',
    ('gaussian', 8, 1024): 'cdc57fa4613bfaccc1f7328c12954e08d55eaa9892eb9ebba5919c2b5c9005a5',
    ('gaussian', 8, 2048): '8b8af9e9da68b1648dd024af463c830e95b69859bbbbd535f151e12138931ae9',
    ('gaussian', 8, 4096): 'd2622d9553070bbd594681962dd6750a768a1b13e86fa3262e215709ae0c7c57',
    ('gaussian', 16, 1024): 'bf47fe1ad40a42a18e91100697f54aa3156fba8efac552c9720daf3adffc19f7',
    ('gaussian', 16, 2048): '4f323304525d4f99b5c0203ec857285bf2e2b595316c821aec1b94deaff1775a',
    ('gaussian', 16, 4096): '530f17b2c6fb351d5e56ddcb367c55fdb2c3f46590a9fb3b5946999ce302c59d',
}

#: (policy, dims) -> digest of a 1 KB-page build with a Guttman split.
GUTTMAN_DIGESTS = {
    ('quadratic', 2): '4eb2f98f8a364adb60a5d6f40a74ec6de6fadea976ecaf6ce02b7a7ef56d1e85',
    ('quadratic', 5): '320e1f07c0428b05c5c0f5ce9984fdf0c7ceb6a849269e7351c6615c45bf9f62',
    ('linear', 2): 'ad481705eb4f3cbc9d28604a58f5a40cc3e4170a4d5ddfe7540cc3fd66cf3b36',
    ('linear', 5): '946e561e43e7ba69caf29133e3ced3ce247b3a8ec4e21d0085867a72599d1549',
}

#: (dims, page_size) -> digest of an X-tree build (supernodes included).
XTREE_DIGESTS = {
    (5, 1024): 'ecf082e0bd51ea0c1929e0524c5a49090b3c32052c0796ea653078c4f86b2bc2',
    (8, 1024): '39e9d340d09e6665e613714b0ae35275d501b2ddfbf28a5ad191b84bc28d3e73',
    (16, 2048): '5e0d53952e5c59b672497a15bbd84c432267f3584efdeb873b508863d84cffd6',
}

#: stage -> digest along one insert / delete / insert sequence.
CONDENSE_DIGESTS = {
    'built': '11300ecfd4ff49864185da18a732a520414a3c616fceb389dd8805f992f7e6a7',
    'deleted': 'e322312a8e43ea75077948f48487783b132afde2de00193456a84a289dc3ec9f',
    'reinserted': '9c948853e23fb878a299f5c736fa3ca4ce48f9e3b89370e16628250e0a3cbca9',
}


@pytest.mark.parametrize("kind,dims,page_size", MATRIX)
def test_rstar_build_digest(kind, dims, page_size):
    tree = _build(_data(kind, dims), dims, page_size=page_size)
    assert tree_digest(tree) == RSTAR_DIGESTS[(kind, dims, page_size)]


@pytest.mark.parametrize("policy", ["quadratic", "linear"])
@pytest.mark.parametrize("dims", [2, 5])
def test_guttman_split_build_digest(policy, dims):
    split = QuadraticSplit() if policy == "quadratic" else LinearSplit()
    tree = _build(
        _data("gaussian", dims), dims, page_size=1024, split_policy=split
    )
    assert tree_digest(tree) == GUTTMAN_DIGESTS[(policy, dims)]


@pytest.mark.parametrize("dims,page_size", [(5, 1024), (8, 1024), (16, 2048)])
def test_xtree_build_digest(dims, page_size):
    tree = _build(
        _data("uniform", dims), dims, tree_class=ParallelXTree,
        page_size=page_size,
    )
    assert tree.tree.supernode_count() > 0
    spans = ",".join(
        f"{page}={tree.pages_spanned(page)}" for page in sorted(tree.tree.pages)
    )
    digest = f"{tree_digest(tree)}:{spans}"
    assert (
        hashlib.sha256(digest.encode()).hexdigest()
        == XTREE_DIGESTS[(dims, page_size)]
    )


def test_insert_delete_condense_digests():
    dims = 5
    points = _data("gaussian", dims)
    tree = _build(points, dims, page_size=1024)
    stages = {"built": tree_digest(tree)}

    victims = list(range(len(points)))
    random.Random(5).shuffle(victims)
    for oid in victims[: len(points) * 2 // 3]:
        assert tree.tree.delete(points[oid], oid)
    stages["deleted"] = tree_digest(tree)

    extra = _data("uniform", dims, n=200, seed=9)
    for offset, point in enumerate(extra):
        tree.insert(point, len(points) + offset)
    stages["reinserted"] = tree_digest(tree)
    assert stages == CONDENSE_DIGESTS
