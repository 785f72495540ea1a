"""Pinned digests of the derived simplicial and bisimplicial sets.

Each construction's output is hashed with everything a later step can
read: the serialized document, the levels, the flags and every operator
dict with its items in order.  The digests were recorded from the
cell-by-cell constructions these now replace; any change to an id, an
image, a flag or an order shows here."""

import functools
import hashlib

import pytest

from kanforge import simplicial as sp
from kanforge import nerves as nv
from kanforge import determinants as dt
from kanforge import examples as ex
from kanforge import serialize as io

from reference import box, diag, disjoint_union, shift


def fingerprint(obj):
    """sha1 of serialize.dumps(obj) (where it serializes) and, for a
    simplicial or bisimplicial set, the levels, the flags and each
    operator dict's items in order, all of its named rendering (a Segal
    nerve and the objects derived from it hold their cells as places)."""
    if isinstance(obj, sp.TruncatedSSet):
        obj = sp.named(obj)
    elif isinstance(obj, nv.BisimplicialTrunc):
        obj = nv.named(obj)
    h = hashlib.sha1()

    def put(value):
        h.update(repr(value).encode("utf-8"))
        h.update(b"\n")

    try:
        h.update(io.dumps(obj).encode("utf-8"))
    except io.ParseError:
        put("not serialized")
    if isinstance(obj, sp.TruncatedSSet):
        put((obj.dim, obj.levels, obj.coskeletal_at, obj.base))
        tables = [obj.face, obj.degen]
    elif isinstance(obj, nv.BisimplicialTrunc):
        put((sorted(obj.region), list(obj.levels.items())))
        tables = [getattr(obj, name)
                  for name in nv.BisimplicialTrunc.OPERATORS]
    else:
        tables = []
    for table in tables:
        put([(key, list(mp.items())) for key, mp in table.items()])
    return h.hexdigest()


def _examples():
    return [(name, lambda name=name: ex.build(name))
            for name in ex.example_ids()]


def _standard():
    out = []
    for n in range(4):
        for dim in range(max(n - 1, 0), 5):
            out.append(("simplex-%d-%d" % (n, dim),
                        lambda n=n, dim=dim: sp.standard_simplex(n, dim)))
            out.append(("sphere-%d-%d" % (n, dim),
                        lambda n=n, dim=dim: sp.sphere(n, dim)))
            out.append(("boundary-%d-%d" % (n, dim),
                        lambda n=n, dim=dim: sp.boundary_simplex(n, dim)))
            for k in range(n + 1 if n else 0):
                out.append(("horn-%d-%d-%d" % (n, k, dim),
                            lambda n=n, k=k, dim=dim:
                            sp.horn_complex(n, k, dim)))
    return out


PAIRS = [("delta1", "delta1"), ("delta2", "s1"), ("nerve-z2", "t11")]
# reduced complexes of dim >= 2, with their dims: shift, csq' at every
# m < dim and both loop spaces
SPACES = [("s1", 3), ("delta2-reduced", 3), ("t11", 3), ("t12", 4),
          ("nerve-z2", 3), ("nerve-z3", 3), ("nerve2-oneobj-z2", 3)]


def _space(name):
    if name == "nerve2-oneobj-z2":
        return nv.nerve_2group(ex.build("oneobj-z2"), 3)
    return ex.build(name)


def _csq(name, m):
    return sp.csq_prime(_space(name), m)[0]


def _derived():
    out = []
    for a, b in PAIRS:
        out.append(("product-%s-%s" % (a, b), lambda a=a, b=b: sp.product(
            ex.build(a), ex.build(b))))
        out.append(("union-%s-%s" % (a, b), lambda a=a, b=b:
                    disjoint_union(ex.build(a), ex.build(b))))
    for name, dim in SPACES:
        out.append(("shift-%s" % name,
                    lambda name=name: shift(_space(name))))
        for m in range(dim):
            out.append(("csq-%s-%d" % (name, m),
                        lambda name=name, m=m: _csq(name, m)))
        for variant in ("plain", "reduced"):
            out.append(("loop-%s-%s" % (variant, name),
                        lambda name=name, variant=variant: sp.loop_space(
                            _space(name), variant)))
    out += [
        ("truncate-nerve-z2-2", lambda: sp.truncate(ex.build("nerve-z2"), 2)),
        ("truncate-t12-1", lambda: sp.truncate(ex.build("t12"), 1)),
        ("truncate-segal-column1-2", lambda: sp.truncate(
            _segal().column(1), 2)),
        ("enriched-hom0-s1-oneobj-z2", lambda: dt.enriched_hom0(
            ex.build("s1"), nv.nerve_2group(ex.build("oneobj-z2"), 3), 2)),
        ("enriched-hom0-delta2-reduced-nerve-z2", lambda: dt.enriched_hom0(
            ex.build("delta2-reduced"), ex.build("nerve-z2"), 2)),
        ("hom1-enriched-s1-oneobj-z2", lambda: dt.hom1_enriched(
            nv.p2_star(ex.build("s1"), 2),
            nv.segal_nerve(ex.build("oneobj-z2"), 2, 3), 2)),
        ("box-delta1-delta1", lambda: box(sp.standard_simplex(1, 1),
                                          sp.standard_simplex(1, 1))),
        ("box-s1-delta2-mu3", lambda: box(
            ex.build("s1"), ex.build("delta2"), nv.mu3_region())),
        ("box-delta2-s1-cut", lambda: box(
            sp.standard_simplex(2, 2), sp.sphere(1, 3),
            nv.rectangle(2, 3) - {(2, 3)})),
        ("diag-box-delta2-s1", lambda: diag(box(
            sp.standard_simplex(2, 3), sp.sphere(1, 3)))),
        ("diag-segal", lambda: diag(_segal())),
        ("p2star-s1-2", lambda: nv.p2_star(ex.build("s1"), 2)),
        ("p2star-t11-3", lambda: nv.p2_star(ex.build("t11"), 3)),
        ("segal-restrict-mu3", lambda: nv.restrict_region(
            _segal(), nv.mu3_region())),
        ("segal-restrict-rect", lambda: nv.restrict_region(
            _segal(), nv.rectangle(1, 2))),
    ]
    out += [("segal-row-%d" % p, lambda p=p: _segal().row(p))
            for p in range(3)]
    out += [("segal-column-%d" % q, lambda q=q: _segal().column(q))
            for q in range(4)]
    return out


@functools.lru_cache(maxsize=None)
def _segal():
    return nv.segal_nerve(ex.build("oneobj-z2"), 2, 3)


def _nerves():
    out = [("nerve-category-%s" % name,
            lambda name=name: nv.nerve_category(ex.build(name), 3))
           for name in ex.CANNED_GROUPOIDS]
    out.append(("nerve-category-poset-interval", lambda: nv.nerve_category(
        ex.build("poset-interval"), 4)))
    for name in ex.CANNED_TWO_GROUPS:
        out.append(("nerve-2group-%s" % name,
                    lambda name=name: nv.nerve_2group(ex.build(name), 3)))
        out.append(("segal-nerve-%s" % name,
                    lambda name=name: nv.segal_nerve(ex.build(name), 2, 3)))
    out.append(("nerve-2group-oneobj-z2-4", lambda: nv.nerve_2group(
        ex.build("oneobj-z2"), 4)))
    return out


def constructions():
    return _examples() + _standard() + _derived() + _nerves()


PINNED = {
    "boundary-delta2":
        "80c73b8563edd6a4100881cb7bb76f3ad877d787",
    "constant-3":
        "64056949690bcedee9f276c9ce4b7c41b0b4ee9e",
    "delta1":
        "4e23c595601a224e1c79a77197d810c4692e1d4a",
    "delta2":
        "2ea5ab31793ccc1e6646ed29d6c0d9a71a8a7d98",
    "delta2-reduced":
        "b5ced5eeaebabe77487a2403531888f74e24edad",
    "disc-z2":
        "9c68a940dcaf54cb646d2f2e0d00afe0c14cdb9a",
    "disc-z2-x-oneobj-z2":
        "b79359b67b68000e541aed165ca52e674f276b94",
    "disc-z3":
        "bcc2867364d49fb788f47834945ed09f46e877a5",
    "disc-z4":
        "875066aaaabf8887a4a7f0b9034e73455049a9c0",
    "groupoid-z2":
        "4a111c4f2bc4b2c2e127b8f26525818ee9c80000",
    "groupoid-z3":
        "c48b9265e0bb33e26cc24a7cf7ecd322b8db9477",
    "horn-2-1":
        "7021974d9f59d9544ac1aa2a6798c6800d8038f6",
    "indiscrete-2":
        "0ece50613089f35f5083bb6171ee0b6881813f4f",
    "indiscrete-3":
        "72c7c2e7742614c6af74ac0c39697736aa920dc4",
    "inflated-disc-z2":
        "95f95d491eb70f21938d91088af0fe4ac5e3d6df",
    "nerve-indiscrete2":
        "9e30a2dba7a9425d148d7e2431022878032936ea",
    "nerve-indiscrete3":
        "84ae09bd6e88ec899492470a07bcdc30c7a6a7d3",
    "nerve-z2":
        "5745bd62b9cdf5a8e4f0569293cc99a60276015f",
    "nerve-z3":
        "ac20a33c5ff4e428ba8ddb132d69ce393b87b095",
    "oneobj-z2":
        "c58bd158fb9a94b7ed77ceb270785d777636f1f1",
    "oneobj-z3":
        "798a5cf754204890db369dde50523404bda8d89a",
    "poset-interval":
        "cf26653f2912da9263dc60a5ee350092a2486e01",
    "s1":
        "fcfd5eef79c25511c228e95767a51b7ade0ea243",
    "s3":
        "eae6750d74fccdce2497bdbc26d11d8835887a7e",
    "t11":
        "667ddd25b0f1419bff931f21a1d4311ee0660a8b",
    "t12":
        "c98eefb1fb6367ff0abccd650991af430fc02cd7",
    "z2":
        "fb1e03473b61acce33d92d833525b91c2c0fed2d",
    "z3":
        "0f6773c1f860b1ab025f2fb102236d0e05ac4241",
    "z4":
        "f763f320839de100909e7625fbbf93e5cfe52a8f",
    "simplex-0-0":
        "f019422b1aa54879e1a8ea82d339412b6f95998e",
    "sphere-0-0":
        "f019422b1aa54879e1a8ea82d339412b6f95998e",
    "boundary-0-0":
        "396ee4f623894ed0024cc5704a88baa5881d92a9",
    "simplex-0-1":
        "6bb51dbc33b3d99d58e409ee4baec2fb609f4e69",
    "sphere-0-1":
        "6bb51dbc33b3d99d58e409ee4baec2fb609f4e69",
    "boundary-0-1":
        "71564dce8497a0995e24450cce4fa9e951f333ed",
    "simplex-0-2":
        "9b402d6777847b017204cb08f0a5e7993d941a39",
    "sphere-0-2":
        "9b402d6777847b017204cb08f0a5e7993d941a39",
    "boundary-0-2":
        "caf3c1641531033be91d93d66ad6b421194eec0c",
    "simplex-0-3":
        "e625e35d34be5db40d0cdd9ee594b4e858dce866",
    "sphere-0-3":
        "e625e35d34be5db40d0cdd9ee594b4e858dce866",
    "boundary-0-3":
        "927c0939c1149b06efc7f184a1296a3e13ed64bc",
    "simplex-0-4":
        "b5a6ddc5359a7d0db31c2bd8efc6d70d5297abcd",
    "sphere-0-4":
        "b5a6ddc5359a7d0db31c2bd8efc6d70d5297abcd",
    "boundary-0-4":
        "842470c45c8f86fd7061d1a970bfdd037d3e35cf",
    "simplex-1-0":
        "8ce0a3428c6a4b36c2a818a257cf2e16bf533d4a",
    "sphere-1-0":
        "244ce477da106ba088e4470fa1d18da6f836dc27",
    "boundary-1-0":
        "da76c19abbdc6e2c9ecc8933cb5cc492e24cc537",
    "horn-1-0-0":
        "5d1163901cbef2c8d610d9ca4d7920cd9f33e6e3",
    "horn-1-1-0":
        "714d6102fbaa76a71a799d4c00b689e8eb0393e3",
    "simplex-1-1":
        "2f5ba0688f53b60247d173bb3e7055fe6511e691",
    "sphere-1-1":
        "86191d1e92d5b52d2eaba0db7f7b75a9fa721885",
    "boundary-1-1":
        "711b7996b230cad289375750f39dca6e833c250e",
    "horn-1-0-1":
        "cd09080161c751eb1b7502452709f5392abcd89b",
    "horn-1-1-1":
        "aa6af9930641359642001f11d69a3b14c58d6c56",
    "simplex-1-2":
        "dafb762677f4f2506fa5d6bbf8d4eab4b86aea07",
    "sphere-1-2":
        "758376bc062006c4a824e7b04e26799fad0f9a0d",
    "boundary-1-2":
        "d6417332f16e6e282b44ebe0fa604837b17bc1fd",
    "horn-1-0-2":
        "83f1226d68f7eed7a1f33847e5705b14a42b0c80",
    "horn-1-1-2":
        "14185dc2fc7f6c607aa0042669d5298a3e574b98",
    "simplex-1-3":
        "4e23c595601a224e1c79a77197d810c4692e1d4a",
    "sphere-1-3":
        "fcfd5eef79c25511c228e95767a51b7ade0ea243",
    "boundary-1-3":
        "3b16c4f289be25460b0fcad4298a1651ce96641b",
    "horn-1-0-3":
        "819d2fc110ae5effe66e64ff67c6c668dee097d6",
    "horn-1-1-3":
        "479919d8e6c44a3dee5beba0db009c888702f476",
    "simplex-1-4":
        "e408f0c6bcbf8cfea0d346b855ad63d9980ad83d",
    "sphere-1-4":
        "0a70e5e3e4b89cf30f13e8ffe326b774f304e98f",
    "boundary-1-4":
        "1068786f0d99404648810d1ab35368357c14237f",
    "horn-1-0-4":
        "acde1594a844ba5ef8c1421d43319b9d4981d7b3",
    "horn-1-1-4":
        "24cd1725a6ecf99b2d853257583223a7ce9edbe2",
    "simplex-2-1":
        "e223524c10ae8be35907092a498b770862df3db3",
    "sphere-2-1":
        "68b1c9ffb6f95e5d024b84bc7d876b4a89f5a52f",
    "boundary-2-1":
        "9df90415107a66d59abec2dc2e6e537cf560c6ea",
    "horn-2-0-1":
        "1db885c4cea258707f425d9a8e622099795edd3f",
    "horn-2-1-1":
        "c62b749d3a448b44f963d506e1a7b93dd19567db",
    "horn-2-2-1":
        "fd76d307fe619a07cbba5af4e779f0f42a570481",
    "simplex-2-2":
        "eeb4564ba555d822b7aff476b931429243c9b3a0",
    "sphere-2-2":
        "cb99295b04d065f83e00fd1d57a67f9f7574a8fe",
    "boundary-2-2":
        "6fa478e7eac2fa63d13766218b704fe45f4c82aa",
    "horn-2-0-2":
        "db8447f153ae49be3f81e63520261d3efe0a89e8",
    "horn-2-1-2":
        "f2354a28ba7e1e8d4a33c4075e9c65c5d7332781",
    "horn-2-2-2":
        "7a135fd06f55cd74353f299a980a4b23ff50efd4",
    "simplex-2-3":
        "2ea5ab31793ccc1e6646ed29d6c0d9a71a8a7d98",
    "sphere-2-3":
        "d926bf23dda15e62a9fd4619325abd4ad655a760",
    "boundary-2-3":
        "80c73b8563edd6a4100881cb7bb76f3ad877d787",
    "horn-2-0-3":
        "c82416d8d8ad979f529222bb604256ced4a0b719",
    "horn-2-1-3":
        "7021974d9f59d9544ac1aa2a6798c6800d8038f6",
    "horn-2-2-3":
        "12821685565fd7c8d65e95d4bd7f1fc4e4aab7a6",
    "simplex-2-4":
        "149ecf8daa73191e0f03a6685bbaba4c9e57501b",
    "sphere-2-4":
        "c377180c78749708c41e8a90c30679ef06ef830c",
    "boundary-2-4":
        "e239d940dbbaf9fbdf000ce012bf230b1016891a",
    "horn-2-0-4":
        "a3a2271968ec14128414d88fc81b3278645c9e75",
    "horn-2-1-4":
        "a912fe57def9bd2aa79d16efee99a7c79d43bfbb",
    "horn-2-2-4":
        "58055d8b26ea8745c1cd935b1e669d428f59561f",
    "simplex-3-2":
        "04ff8b34e768bead8e1588153e37dd9f1970368c",
    "sphere-3-2":
        "8bcc315a59306bcf4b0a2d694bd43f808f2949a9",
    "boundary-3-2":
        "5548735ae9e704b91f811d4607dd9af5d1b6e8f4",
    "horn-3-0-2":
        "10134b27b7c702e2630f98a09fda17ce8cf237e1",
    "horn-3-1-2":
        "bf4d349207e33e8eb30743de7279a35b79745ba5",
    "horn-3-2-2":
        "8da857db161bad1e803ecd09f0bb4eaf614181b7",
    "horn-3-3-2":
        "0fb51620bd415017f9c801eff077c91755e8fff1",
    "simplex-3-3":
        "d87bf0cc2714a9ef1580a8ca3ab2f7ace002d1b0",
    "sphere-3-3":
        "da61952bab55706447798a5aa6b4d4d859bf2da7",
    "boundary-3-3":
        "e212714f0370ce7cd87e0a211070e1af8dc80653",
    "horn-3-0-3":
        "57b083d117feeb600e5c13e603444e430fafb1e3",
    "horn-3-1-3":
        "174f5dc011f511d68c4408728433d703454531b6",
    "horn-3-2-3":
        "5bd55006dbbdd7760ef428d0adca13e707a5b3ec",
    "horn-3-3-3":
        "5a64d73408a9c53c1954dac99f99ac891fa78348",
    "simplex-3-4":
        "a9b2ecefec7a227e9d7f3416b437bb8aa3da6424",
    "sphere-3-4":
        "abe53c22e3886b1b86dcb7c0cbc7a8f36eb5714a",
    "boundary-3-4":
        "eb06d9b56a40471534e9cebb3750c60f9f952ab8",
    "horn-3-0-4":
        "7476b73e834a3a175e978066d1ea8a31c306720e",
    "horn-3-1-4":
        "f396661dd7d493b929e89ac28eee3dc7b3df59c3",
    "horn-3-2-4":
        "85078d1bf476b161f8257c128a5015eea40608ea",
    "horn-3-3-4":
        "80951201fca32b966a73ab31ff463d7697cf735a",
    "product-delta1-delta1":
        "ec2cbbef50ee4b995a2c4501508e2292cc60b6ee",
    "union-delta1-delta1":
        "2988de9010fe11b01be412ff2edac26c7d4f35c8",
    "product-delta2-s1":
        "bb4cdb717e70e25552099dd412281732430d4411",
    "union-delta2-s1":
        "f6a457adde16cb0209f76655dd365a4c055a13a0",
    "product-nerve-z2-t11":
        "187abf136fe0cbfde189086d848c87834467673c",
    "union-nerve-z2-t11":
        "90280a67654308daf47dbc1f6a823f2d33e9bf31",
    "shift-s1":
        "cad200d9fdc5523cd28a5b6352a87e3128ebe215",
    "csq-s1-0":
        "ee50cb31f34cf45316e5d0f48ac5055cbd9f9314",
    "csq-s1-1":
        "1cd71488a89b405f5cf7ad11f739a1becb58283d",
    "csq-s1-2":
        "15d839f38a87dec11d46459ec3727e563ab8845c",
    "loop-plain-s1":
        "31252811f018aa9412efbbeaf33ab3aa956d68bb",
    "loop-reduced-s1":
        "0ac6b416bd91cad48a91f0e3f62cf86776325b3d",
    "shift-delta2-reduced":
        "2d991051a62a767a014ff4e9c984ef426624a0ec",
    "csq-delta2-reduced-0":
        "ee50cb31f34cf45316e5d0f48ac5055cbd9f9314",
    "csq-delta2-reduced-1":
        "cc6f3be786a6405fc33d03e15ed9a085437998f3",
    "csq-delta2-reduced-2":
        "5d8abeb580c6aeb06b6820fc2aa12cbcfded0a87",
    "loop-plain-delta2-reduced":
        "60fa9c5bbca416fbf2b9c55428a41bdf429b5bed",
    "loop-reduced-delta2-reduced":
        "0ac6b416bd91cad48a91f0e3f62cf86776325b3d",
    "shift-t11":
        "cb14b66920c1a326187891e457644abb71a7a059",
    "csq-t11-0":
        "52992910f6fb13ee2cb0423a6b8f3b2abf719a78",
    "csq-t11-1":
        "37a227427780f1dac65208c6ec80dad3f161684a",
    "csq-t11-2":
        "f326ca6d017b2d4fb9f3bd97c4ccdb80fd1193fd",
    "loop-plain-t11":
        "dafb9c4356d81ca6d56596a6cadb463628d25012",
    "loop-reduced-t11":
        "597ac09e4b4f492b0687b5ccf75faa308ca18887",
    "shift-t12":
        "d85af5a96d91dda8e24a41e85139985a95bf116f",
    "csq-t12-0":
        "a6513773b9836de4100f8505241fdd99444278ce",
    "csq-t12-1":
        "e6ad03fb330be6e769fb6b5ada75de9a6e8a44af",
    "csq-t12-2":
        "904d1f7a50191fe4af60ff6b5c7b22975c4aa1cd",
    "csq-t12-3":
        "dbda00e04a3f60e31ba5990169b14ed5e0a69a65",
    "loop-plain-t12":
        "6cddb673114743d8cb0a5160067df0ed84d6193d",
    "loop-reduced-t12":
        "ee4b5a90851b639a290434759f1f0f78e54852a8",
    "shift-nerve-z2":
        "358f0e522f8211080d3afccea4fbc3b666ea16df",
    "csq-nerve-z2-0":
        "c23792ee2788e64a6357e32b3060b62eb67e0f0e",
    "csq-nerve-z2-1":
        "409a4a2220ffbcdc4f9c64f9b0751a2269f172a0",
    "csq-nerve-z2-2":
        "4925a8ec5b8e2c2485224483331714792eba321e",
    "loop-plain-nerve-z2":
        "3a936d63cea6dbdd29271ea42cf9dcfc105b9a98",
    "loop-reduced-nerve-z2":
        "29a410f7fccc151c361d23a391ef8d7371c85ba0",
    "shift-nerve-z3":
        "5f7c22471dc92516cefd8ae2b91844b13cfe4757",
    "csq-nerve-z3-0":
        "c23792ee2788e64a6357e32b3060b62eb67e0f0e",
    "csq-nerve-z3-1":
        "f14004b67647d31a5adab36ae04a8e8dea10da1f",
    "csq-nerve-z3-2":
        "336b96ac887b524acb08f412dc56421e945c9bee",
    "loop-plain-nerve-z3":
        "1459e2fd48a0b73525f987f6ba9c3fd252c3060e",
    "loop-reduced-nerve-z3":
        "29a410f7fccc151c361d23a391ef8d7371c85ba0",
    "shift-nerve2-oneobj-z2":
        "8df6466ab4b9e100f7806916be69ca0af2233299",
    "csq-nerve2-oneobj-z2-0":
        "2c2b63911b3c363acf9713bf8958a7185e02228e",
    "csq-nerve2-oneobj-z2-1":
        "19e1292ee226e0caac1e7e9d67d7361d043ba396",
    "csq-nerve2-oneobj-z2-2":
        "b2076f3e2643ec1e5c8eebdcfd1bc6eba6e1e33c",
    "loop-plain-nerve2-oneobj-z2":
        "885b8f857d8a5e77b043e21a88a7011efe6c6219",
    "loop-reduced-nerve2-oneobj-z2":
        "885b8f857d8a5e77b043e21a88a7011efe6c6219",
    "truncate-nerve-z2-2":
        "c6dce2f2c65037407af5a631b34c42a4df107855",
    "truncate-t12-1":
        "4b4ce47d0f173f7c337d3aa4cc4b873fdb92773a",
    "truncate-segal-column1-2":
        "c32039b189006212ffa66d1946efd2a4555001e9",
    "enriched-hom0-s1-oneobj-z2":
        "4dd49a64fdec9f58b242c7f1b904824c14d66639",
    "enriched-hom0-delta2-reduced-nerve-z2":
        "2bb40ab94fed37a07deaaf0d80fe53199555aa01",
    "hom1-enriched-s1-oneobj-z2":
        "5fcac2bb4d5acd89c7c2721f66f796edefc00b41",
    "box-delta1-delta1":
        "bb43bf90f1eb5145eb613983400f8639102c6195",
    "box-s1-delta2-mu3":
        "f30be1b4255ffa3dd28610db73491ff6acbd3b69",
    "box-delta2-s1-cut":
        "ed73fc00c3cd9aea85c5ce3d3fc3683281b49f27",
    "diag-box-delta2-s1":
        "b729174f7b75b3f8f82f4bf55af8f227e80ca4b0",
    "diag-segal":
        "93191c8fffca4b6125ed64d58aee726c076ce9c7",
    "p2star-s1-2":
        "578cce094849e4f05cd6df4186dea847d1562129",
    "p2star-t11-3":
        "16159f26d779d4ca521f288e904f74c5a96a91b6",
    "segal-restrict-mu3":
        "47faa5945ea92dfb61d6b19c96c2cb82cb044fc3",
    "segal-restrict-rect":
        "a8b42200de97d184ceddaca395b588ca12aa3322",
    "segal-row-0":
        "a9038165c7329553c91b775347a5aa000e193534",
    "segal-row-1":
        "74024ece371b111c9f6b509136edbcf4b253b4d2",
    "segal-row-2":
        "fe2e3c318752d04504452209845d4136cebeb7b3",
    "segal-column-0":
        "ff6006dd6f0bbadfe2c6a54eda81946b46b000c8",
    "segal-column-1":
        "c32039b189006212ffa66d1946efd2a4555001e9",
    "segal-column-2":
        "2fd50c91ce278fd727734bf7a1ba255d328a1883",
    "segal-column-3":
        "5839a6672a1ea6dad130197e989d9c9cc890df9e",
    "nerve-category-groupoid-z2":
        "5745bd62b9cdf5a8e4f0569293cc99a60276015f",
    "nerve-category-groupoid-z3":
        "ac20a33c5ff4e428ba8ddb132d69ce393b87b095",
    "nerve-category-indiscrete-2":
        "9e30a2dba7a9425d148d7e2431022878032936ea",
    "nerve-category-indiscrete-3":
        "84ae09bd6e88ec899492470a07bcdc30c7a6a7d3",
    "nerve-category-poset-interval":
        "112d18eba0dcff398d540d390d6dcc68cae837f1",
    "nerve-2group-disc-z2":
        "a18d34b638ec0bc0809671793573501bedd7387e",
    "segal-nerve-disc-z2":
        "7bf7e7cf33e8fe52cc19ee1008cf5b0311ff0092",
    "nerve-2group-disc-z3":
        "5886613be64b27e64e328c9478d36fef87301ec0",
    "segal-nerve-disc-z3":
        "7ab0a27cc57f62fdab855df728c5c25883ff368b",
    "nerve-2group-oneobj-z2":
        "5786090cb9f612115ad3e65e0d0102cc6bd7c3d8",
    "segal-nerve-oneobj-z2":
        "4f72b96463cfb6a08da96e5041989faead768075",
    "nerve-2group-oneobj-z3":
        "b456433e4ef4ec431215617d3767edb1cfe08f73",
    "segal-nerve-oneobj-z3":
        "aa96209007617a24ec4143205d7c2e73f3b23989",
    "nerve-2group-disc-z2-x-oneobj-z2":
        "1a5f2de39e49f21ec7db365336992e064b694917",
    "segal-nerve-disc-z2-x-oneobj-z2":
        "1d7d1f1482f52659c40f9a2acd46731f324898d3",
    "nerve-2group-oneobj-z2-4":
        "9dbe0fc582f5cd96b8622c0f014a44f1d899c2d3",
}


@pytest.mark.parametrize("name,build", [
    pytest.param(name, build, id=name) for name, build in constructions()])
def test_construction_matches_pinned_digest(name, build):
    assert fingerprint(build()) == PINNED[name]


def test_every_construction_is_pinned():
    assert sorted(PINNED) == sorted(name for name, _ in constructions())
    assert [(name, _space(name).dim) for name, _ in SPACES] == SPACES
