"""Generator images of every group built from a point map, pinned.

The digests were recorded before the hand-written point-map constructions
were folded into Permutation.from_map; any change to a point order, a
generator or its position in the generator list changes a digest.
"""

import hashlib
import json

import pytest

from mergedjohnson import catalog, classify, complement, nearfields
from mergedjohnson.fields import build_field, prime_power_decomposition

PINNED = {
    "complement 0":
        "7513298cee5942f7987bb2425ca025aafe4a7befddfa8e697cf94f2b1f220247",
    "complement 1":
        "a66a78aefd56769ee96dd270822b21ac54ebd3a0a499174604fc8560b68c9e56",
    "complement 2":
        "47c4063339a9ab708043e237f86757e35d1bca20dc250bf9d12aaef22a8ec17b",
    "complement 3":
        "12841532770955ce2998dc1684a7e48acf5a79e7fd08aa685b591a389142d64b",
    "dickson 3 2 AGL":
        "a18235c29556eda74cced9da3ff32a96552c8432ebeb08b8b9b53bec2532e737",
    "dickson 5 2 AGL":
        "17a45955fd7ea7fd4b594429dde9fb87a7cc7d5ac6375693b3f4a4a10f155d57",
    "dickson 7 2 AGL":
        "f19aa62d90dec15df2ccc49b6c60b8fbffa7cf3b8df0099ccfd9de13142c7d00",
    "dickson 7 3 AGL":
        "cd09c8aee7ba539581e00c1f7d72da8b845d322c07d3dd311baec29c81cce62e",
    "dickson 7 3 AHL":
        "2e0a546b8eec9c7beff45f75f4ad3f1dba6c259a707c617bb429a84f6cd26a00",
    "exceptional 11 1":
        "ec932fcbd222b3b3a8998a7d3355a0f72653f6d88e884db6060d0aa60c0a85eb",
    "exceptional 11 2":
        "7ce4a9a23011e883bac0dc8baa34f28f65623654f00354d28f3c229ea13673b3",
    "exceptional 23 1":
        "62dcb558ae4c641ad4328ce4739e77c0dc91ddca93b6ff264bcd6d24d3f99eab",
    "exceptional 29 1":
        "0118cba579cc32012bd55f69a4ea937eaca57b9f176fbc84814fb58649855933",
    "exceptional 5 1":
        "6d2881ca49189cecf7a793fd29ac0fb261718e39b4e563ef86f67a6b762936fb",
    "exceptional 59 1":
        "fa3bba7be3eef1568ef633b90273bde0b205c8b2f8890f9df43c5942be635d0b",
    "exceptional 7 1":
        "0a06550c1abe5f484ea06b495247a60a74df2ea56ce44a81c6f31649063bb0a0",
    "field 11 AGL":
        "15423002cd408d81f6b55206655b8e3014c912fee0b37f16223aeec2a68dcc83",
    "field 11 AGammaL":
        "f3f20fadbbc6d5093d07dd90142a78f1be1f014a76952fefa34982bcfa7d3dd9",
    "field 11 AHL":
        "16bf1e355c6b50b2ee09f5017e09744dfc5cfb0ab5d1af8db55a525d3900d72c",
    "field 16 AGL":
        "e6ea726d4b367fdbda42447528a871af1c649072db7415bbe73bf807d82511d6",
    "field 16 AGammaL":
        "705d399e489379124c3f8631176adf48198d7d5ffde7f9b60afd77ba362bd52f",
    "field 27 AGL":
        "391b1deecad41024206aad3456731d998d4ee4361eee2412a449e2ad7f1b8c35",
    "field 27 AGammaL":
        "ed6abc43b505c6d416c5c9566f849e3e30f43f587397e01fd3f1ac365292bb66",
    "field 27 AHL":
        "47bc000f110ce79a8a7b91498070deac8fbaf8f98c68f0ad894f45da918a31e9",
    "field 32 AGL":
        "5cfecf0c90de081ea8d2b5d8ea051e71aaf061532cd204ede980064e59f1f26a",
    "field 32 AGammaL":
        "ec57ecf002f22a54199f2b556953d2694696aad8cc63d01645c5fb898ed99a01",
    "field 4 AGL":
        "2a627e9d472812b7eaec75f11fe2081a9c32f6901e834c966f3ae3d0deda9d85",
    "field 4 AGammaL":
        "c52e3f10f8487c9090e0f6d8510f46969d930e785fe884e5cc5c8b54dce88fd3",
    "field 5 AGL":
        "5f81a8b468d4fe47197ed37eef1798f771b127205c9b2e7c4837f1aa72bd1851",
    "field 5 AGammaL":
        "e9da43bb8147cb29dc1bf32283326e96c266c9481d9f1595c33136ced1afce0f",
    "field 7 AGL":
        "4094cfba5a31205efd9303a895a49b874e24b493b56f524d708e3559bb4a2eba",
    "field 7 AGammaL":
        "53f10cc300cd241bb88dfdc1d5401426abaf5b0013879d94e7bbd7dd568ea401",
    "field 7 AHL":
        "dd94c423fb4c0a21c2ee507c409333fb7e2de8c7c46cf01952c18ddfcb9dbe07",
    "field 8 AGL":
        "565be2385252a6588fcfc8a10e00fcc4f2b636d5bc30451e60de8a484220446a",
    "field 8 AGammaL":
        "90f170cf1d1ba2d1f8d28151eaddf936d149082aefde459a7819a18d1d16130f",
    "field 9 AGL":
        "d223db6e900c05ac88ed63e0eed36e96a5c0f9bfd1865e9bde41f4c7da3b3a9c",
    "field 9 AGammaL":
        "49684fd13a2155189da9cc20f201a00916b26fcff06d6bfc9bf4177e1ea3545c",
    "frobenius":
        "7d0deeead0903a7c69860888b93c58187ee8772e1c7d52964ca1eb33c6f9d786",
    "pgammal2 2":
        "2c1c97a71752108ebaa5d4073836b429585b04135c2bbb7b0d05cc710aab2aea",
    "pgammal2 3":
        "e3c1be5fdbb6e0e545a772144a4641104fe68f0e0b67437e9ca527de304b2ad4",
    "pgammal2 4":
        "899023a4100f140c5596c2f7add9d176bbcd592a06ae9a165ead9719f1fa996c",
    "pgammal2 5":
        "70e235bdae8b35b011bc6b10004178c0fb014f6822825eb2cee628a4db15c36a",
    "pgammal2 7":
        "eaf7ef5bfb6b3c0b7262820ca2f2b9ecf5bb8aed16440722782f261004467f4e",
    "pgammal2 8":
        "43daf40658fe109c2a9085ded72125bcb56a9485aa7207905d869205255103a4",
    "pgammal2 9":
        "ae9fb324f7bc8678ce88485ce01ce68300d55eea8d18551d46c4b7a50e39a007",
    "pgl2 2":
        "45fc757df5993b617cd460a691db120d9d78da7f3bc8820ade2359543d68ffb8",
    "pgl2 3":
        "57fe1ae6c9dd364e6ab65bf32107a34ad0087f447c7a222afd54cc6caa624996",
    "pgl2 4":
        "1687d841f6ed6ad5cb9982ddf838d18af678eefb9e181601aaad32486d8ce1d6",
    "pgl2 5":
        "a22547831f2af4952caa3af44012fe275df545d996449c4a8cb76723897e4b6f",
    "pgl2 7":
        "4c1c56457017b3b5b1fe774573557465bd84b9e6d3e9b68ac98f759561bb6061",
    "pgl2 8":
        "3bd41e575030252ba6dd84709c54eeb1e31592316ea4f5e6270d366d74b4ba38",
    "pgl2 9":
        "c6495d14c6c4d84c34b29d1b694cbe498ea7598191501bcca9a38e61d85d61f8",
    "pointed_psl28":
        "193bf2116861bc16077d733ca995a3121c3eeea12db6dfdc275656ae4cded447",
    "projective_line6":
        "0520ea164884d640b542663b234dad8b94f0cb8128b62a03284c3583c4def350",
    "psigmal2 2":
        "2c1c97a71752108ebaa5d4073836b429585b04135c2bbb7b0d05cc710aab2aea",
    "psigmal2 3":
        "51406a8757fd6fa2221333791fd4b55a968f7185b4657091353133d2c325592e",
    "psigmal2 4":
        "899023a4100f140c5596c2f7add9d176bbcd592a06ae9a165ead9719f1fa996c",
    "psigmal2 5":
        "a28e2e4cc8fbf3c258cc4d3231246a7ebdc1396a074156294ba0ae621e7744b0",
    "psigmal2 7":
        "946ab6bc0fe2a969561c1cb770fdbc44e7a040d94f9707a88b912070a03b61cb",
    "psigmal2 8":
        "43daf40658fe109c2a9085ded72125bcb56a9485aa7207905d869205255103a4",
    "psigmal2 9":
        "a865e70ced93ad596d0e8e1de26c941dffcc0ac5157736835b20131b99cea186",
    "psl2 2":
        "45fc757df5993b617cd460a691db120d9d78da7f3bc8820ade2359543d68ffb8",
    "psl2 3":
        "6e3fefa04657331159879eaf39295522392b382e3762ffc7bb981d18a9f43569",
    "psl2 4":
        "1687d841f6ed6ad5cb9982ddf838d18af678eefb9e181601aaad32486d8ce1d6",
    "psl2 5":
        "51f46dc7ec88c4e031c51b5a39fc3d60731d4d1fd63ac9f7b1c5e0a266e0d37c",
    "psl2 7":
        "9e773ccb32ea8ede2856180918325621edc6140b651dc81e8efda5aa05259390",
    "psl2 8":
        "3bd41e575030252ba6dd84709c54eeb1e31592316ea4f5e6270d366d74b4ba38",
    "psl2 9":
        "de971601be4c217c5af0e88c5c664e5ed607d0a1ab555750e389ce7745ee9fe1",
}


def digest(perms):
    images = json.dumps([list(p.images) for p in perms])
    return hashlib.sha256(images.encode()).hexdigest()


def build(key):
    kind, *args = key.split()
    if kind == "pointed_psl28":
        return complement.build_pointed_psl28().group.generators
    if kind == "frobenius":
        return [complement.build_pointed_psl28().frobenius]
    if kind == "projective_line6":
        return classify._projective_line6_group().generators
    if kind == "field":
        p, e = prime_power_decomposition(int(args[0]))
        return nearfields.affine_group(build_field(p, e), args[1]).generators
    if kind == "dickson":
        nf = nearfields.build_dickson(int(args[0]), int(args[1]))
        return nearfields.affine_group(nf, args[2]).generators
    if kind == "exceptional":
        spec = nearfields.exceptional_spec(int(args[0]), int(args[1]))
        return nearfields.exceptional_group(spec).generators
    if kind == "complement":
        data = complement.build_cocycle_data(int(args[0]))
        return complement.complement_vertex_group(data).generators
    return getattr(catalog, kind)(int(args[0])).generators


@pytest.mark.parametrize("key", sorted(PINNED))
def test_generator_images_pinned(key):
    assert digest(build(key)) == PINNED[key]
