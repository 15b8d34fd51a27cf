"""Generated code pinned byte for byte.

The sha256 of `pretty` and of `to_sexp` for every registry example and for
the scaling generators `clgib`, `cack`, `cpoly` and `clet_chain`; the last two
make the longest names. A change that moves a digest
changes the code stagelet generates, so a refactor must leave them all alone.
"""

import hashlib

import pytest

from stagelet import lookup, pretty, registry, show, to_sexp
from stagelet.examples import ExampleKind

from helpers import cack, clet_chain, clgib, cpoly, poly_coeffs

# name: (sha256 of pretty, sha256 of to_sexp)
GOLDEN = {
    "t1": (
        "545136b536339922d5a112e928fd2ef9efaca8cd53f64cc40a1737f8bbd31294",
        "da9cd90cb3559c518fc71714c2950dd3bd28b45990890c2bb1930647624f4468",
    ),
    "sq": (
        "6f8830d91e0c1a50ea707ff70d0e68e6735901bcf95062d96b2a163bcfbf4230",
        "6b28f1df6290b32fcae2eb660dd821c598c05f5d6bf6487cc124e78f873e6a4b",
    ),
    "gib5": (
        "34514cdd7f8ee5232a0e03f4aa971f990d2befade17dc6e09200fb09aa86e1fb",
        "d45c708dea00deca07b1b9b35ea43397c2bbf114a21f1264b48449c58ee6a6ce",
    ),
    "ack2": (
        "d7b3dcf90de104b50c4a324541f11255b2200083f5f1df89cad7f60be4f1bd40",
        "a90c2510d2b14d821145c94f483e87b1d9a9c890f3b850ed5b79a069fd9832d4",
    ),
    "ct1": (
        "545136b536339922d5a112e928fd2ef9efaca8cd53f64cc40a1737f8bbd31294",
        "da9cd90cb3559c518fc71714c2950dd3bd28b45990890c2bb1930647624f4468",
    ),
    "csq": (
        "0e9575204f2a5602a49f2a44a2b8901c74ed15cdfee2789c427703aa50cd083d",
        "f64c63890d264ae9ff99dc7963496eacbbffea27a7165fe78f7142feb5a2c57e",
    ),
    "cgib5": (
        "712433adea2703dd287ba38703576440763be417a025055b0644b57530955a1d",
        "795cfc9fd39f362a105c0d7f7268755749f29598d7d4ec18e00a1eb81ae32b22",
    ),
    "clet-intro": (
        "f7376b341d6f9460477621b621aaf46307285193dd87a519ed0daeb75371a2af",
        "fc82dd5321157958207030d7593c8d82bd1c52774c5061fe9ee50ea75e4b3964",
    ),
    "clgib5": (
        "bbd1d91b1064d82df9169e83613dd33e9263095ed90bd300e742d775d75094d8",
        "a1a1ac2448c7b0846abfcc92230f7b27eded211034640b8b039186ca3fb8cf0a",
    ),
    "shared-sums-plain": (
        "c28748693b03fbb1c5a0ee6ee45621c42162a6a945e4ef34b159bc15bb7b4790",
        "21034dc7e947459435261c71ef8676dc7d361004288208648ead34cf45f3d5b0",
    ),
    "shared-sums": (
        "83fc2754ccaee207ee2c04815983a198bb04ebdfc36173576c77db86133d74df",
        "8329c329edca146bd5d3e2a9ebc83951e9b97052996cac26961153af2fec1dbf",
    ),
    "cack2": (
        "e10f8abed777760c620cc3b69867c85f07c37292a556a8c94e2b1eab719231ca",
        "38dd4bc333846072b47899a1ac315d2d2e2df849382a1fadb87b2f259275a334",
    ),
    "clgib5-extruded": (
        "fae3ac5a0e9180b548367ac1f55a7c410d054829aa2eb505df5cac4c4df3af4c",
        "f8425f57cf282ceee3d6e6287c450d8f922be8ba013005d77a3009fe63425690",
    ),
    "clgib(8)": (
        "1a304dfbb026b97202aff28f1aa4e264030767c7ddb83c1224016f3d1722db89",
        "14e2f7f18d61358c2a86256f2639e0c5d22235efe0c6fdb1b727ae037931b7be",
    ),
    "clgib(11)": (
        "1054127e28935e2afd0befa652d5415e7b58bb158629474a6b96df66dd76bc49",
        "7e85041da3d8cb8cabcf47dcea255ef33df8ac276fbdfd7215687971de846070",
    ),
    "clgib(14)": (
        "f223cbd164d1693096e45472a4d0bb15c9ad58359ba79f84d7c8f6ea71ce754a",
        "7ab2e6022de2426bfb1ac5c17ab0eab6e6d9a8bb2a4d198eb3cbecfb934cb0e6",
    ),
    "cack(8)": (
        "bf7a60435e1ba320a45e2b1933b76dc2faea4a4a2c1903f8a53e3de992d9776b",
        "b014818c83f96e643c6ecec57a398bdf406b6fd556e70340dade341d43ce005d",
    ),
    "cack(32)": (
        "b305ebaf27aa3c133d4a39d2edfd0de18e226270fca9f69bd50389b725582802",
        "36fffacbdc79f3a952e30a0e336ccf45847429610afb86cb61f071ddb5a54e51",
    ),
    "cack(48)": (
        "fbfff876db5099a3ede6fe7ee9b6b5c7e77fc14ec79763635a7443cb788c6235",
        "b32a340a0cb0248e2f5270d507984952bf7e8e1a782ab5cb429558f675e63d8d",
    ),
    "cpoly(8)": (
        "ab9a5b00e219ef9c3a8ec52f67e5042d48a61cb09acb3a26c2b5389627d94276",
        "608dcab99772fdd9df19220e25e95c335f8cf1076135159871a1130174996c83",
    ),
    "cpoly(64)": (
        "82550528a5b3809b2eb27acc942a473e4108b377787cf5f12eb758112dd384ce",
        "4f5e6872e21a7c20e6b92ab9c8010b2d3690a449735d423c651b230abb03565c",
    ),
    "clet_chain(900)": (
        "6b45a9f510945733ed83bf7148ff20d52397cbff71bc55c9bff50f28f2309509",
        "ba4d8d8e8bb0acc68328ab35532357a056c1daa1668288a004d25d9799900504",
    ),
}

SCALING = (
    {f"clgib({n})": (clgib, n) for n in (8, 11, 14)}
    | {f"cack({n})": (cack, n) for n in (8, 32, 48)}
    | {f"cpoly({n})": (lambda n: cpoly(poly_coeffs(n)), n) for n in (8, 64)}
    | {"clet_chain(900)": (clet_chain, 900)}
)


def _tree(name):
    if name in SCALING:
        make, n = SCALING[name]
        return show(make(n))
    entry = lookup(name)
    built = entry.builder()
    return built if entry.kind is ExampleKind.BASE_PROGRAM else show(built)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_example_and_scaling_size_is_pinned():
    assert set(GOLDEN) == {e.name for e in registry()} | set(SCALING)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_generated_code_is_byte_identical(name):
    tree = _tree(name)
    assert (_sha(pretty(tree)), _sha(to_sexp(tree))) == GOLDEN[name]
