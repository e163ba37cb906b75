"""Byte-for-byte pins on every ``balpack construct`` route and on ``derive``.

Each case writes a packing through the CLI and compares the sha256 of the
file (exactly ``core.to_json`` of the packing) with a digest frozen from
the output of an earlier release.  A refactor of any construction or of
the field arithmetic under it must keep every digest.  The parameters are
the ones the other tests already use.
"""

import hashlib

import pytest

from balpack import babai_frankl, factorization, sumcode, transversal
from balpack.cli import latin_dispatch, main
from balpack.core import to_json

GOLDEN = [
    (("babai-frankl", "--q", "5", "--k", "3", "--t", "2"),
     "594eab31939027092d378e321a043da6110723c1f5570407672d2a23955c94e9"),
    (("babai-frankl", "--q", "5", "--k", "4", "--t", "2"),
     "ca1eb5239fc39f830ca734f5b87e4d42dba660618c4b82706e461d80f268a3f7"),
    (("babai-frankl", "--q", "7", "--k", "4", "--t", "2"),
     "6ed5b3c3463d91ff358d877ae99382e037673f680c00f9abfcf1d017209b7b9f"),
    (("babai-frankl", "--q", "8", "--k", "5", "--t", "2"),
     "c818ca92ae0ec5cab9b4f4d441247a4e87447c4d9eaa1a0b97aad49132b16702"),
    (("babai-frankl", "--q", "9", "--k", "4", "--t", "3"),
     "8768fb90cc4f99e3f06a18ec32fe5d107bd33a186d160ade1a23af868dfe62d3"),
    (("td", "--t", "2", "--k", "2", "--q", "2"),
     "9a797276afc011a744ab7b2d81d9532aac5af81778ab1c53a1f0cbc937143748"),
    (("td", "--t", "2", "--k", "3", "--q", "3"),
     "cb7cb9770bba16b5e43139a99e42ddd5f221f372c7737ceefe254c46765d566e"),
    (("td", "--t", "3", "--k", "4", "--q", "4"),
     "237156639c1d462a87df6a42bdb6df02478baa86ed26eb2cadeed561dab69067"),
    (("td", "--t", "2", "--k", "4", "--q", "5"),
     "a26f20d3cfaf419266d31e63bfa9553c566f26c69830dce2a56d7e3469f3a898"),
    (("td", "--t", "3", "--k", "3", "--q", "5"),
     "a6342b917547bcf7de0a7420bf89346bc8b77b0af941333b17c3ca3d88756b54"),
    (("td", "--t", "3", "--k", "4", "--q", "5"),
     "2432a35f6850a81c593270e9c31e8bb86c8d3863d99e40e7423cb955f988d341"),
    (("td", "--t", "4", "--k", "6", "--q", "7"),
     "7a6f578ecbc763c10fa75b5c38ac544d13838e403bca9837c8d5a09bea8c8a40"),
    (("td-augment34", "--v", "16"),
     "543f53d7baac8a3107d85d6be84c9cb70635b9f4190afc8e8c98a876efb55997"),
    (("td-augment34", "--v", "16", "--char2"),
     "533db34019664fdbf366b426a7406acf869585249591eed0e0fc51adc050e2d0"),
    (("td-augment34", "--v", "8"),  # m = 2: a one-pair factorization
     "ae6079495999847eb05ea19144c9d3e34c0cc5e08fd3f318484da205d2b08541"),
    (("td-augment34", "--v", "24"),
     "69dc723d8fcb77625fa4812f2a1e1493c4058d674b011bfac382196c8e30b3cd"),
    (("latin", "--v", "16"),  # v = 4m: square rectangle
     "ccdeda77103eee2bc0bb4e6c0033d2f2963f83244675bf11a0e0bf50e5a9d862"),
    (("latin", "--v", "17"),  # 4m+1: rectangle plus a column
     "78e66d4d9898216be6ea83adb11a79561e84ab33eb36495c5e2acdfdb9b2e02f"),
    (("latin", "--v", "18"),  # 4m+2: off-by-two matching triples
     "f734adbc56aa763d3274a3bbc36d34882af0fe476d218bfba2caa424c3f3edb7"),
    (("latin", "--v", "19"),  # 4m+3: near-balanced matching triples
     "ffc028ea1d9552f466a163cf53242845f09d913c131e65ad6e7c0011a320a1ce"),
    (("sum", "--v", "12", "--k", "3"),
     "01b3e05e949acb87cf664c93e411bfc02d25adaee7990abbb29ca2386bf9643d"),
    (("factorization", "--p-plus", "6", "--p-minus", "3"),
     "ca3916c803bb23b5e26a8d11a3a6ae5f7cd732f098204e847174b9a4cf9b29ed"),
    (("factorization", "--p-plus", "2", "--p-minus", "1"),
     "0455dac9fe64c73d692414417f723e91299e4aaba4a53ed9b0e5868e0fb98350"),
    (("factorization", "--p-plus", "12", "--p-minus", "5"),  # a prefix of the rounds
     "b7798d5a9d9e5d540d61b3e75ce103795df4be78cbc872b99d8bd476a1e0c91c"),
    (("factorization", "--p-plus", "12", "--p-minus", "11"),  # every round
     "127552374852f93a9429d502ddf803aa5674b7cf3491c44f45a6bccbf627a948"),
    (("mds", "--source", "lts:9"),
     "2150dfe0ea3b82cf8aaeb4234c6762deaa109cb35c753824c98749d6ba10f748"),
    (("mds", "--source", "lts:9", "--variant", "45"),
     "5e384bb0a33e04de4f6b8cf371a93052bdf45cc731ce30b62f53418cc296203f"),
    (("product", "--first", "onefact:4", "--second", "singletons:3"),
     "369385559ae4ca5adc71cb7b32947062cfd197e2fcde51223d09be7382455ebc"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_construct_output_is_byte_identical(tmp_path, capsys, argv, digest):
    out = tmp_path / "out.json"
    assert main(["construct", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# derive on a constructed family: (construct argv, e1, e2, digest of the
# derived file)
DERIVED = [
    (("td-augment34", "--v", "16"), "0", "15",  # seven 2-blocks
     "8646d33029c90c90a50ef82a45b29d67b6c4c454d74d9941b4fa0dd8342308cb"),
    (("latin", "--v", "16"), "0", "15",  # the one triple through the pair
     "ed1659213249c9d6d3dc22f92ccb5ebe09b310b5e398a6a31c35800cea443384"),
]


@pytest.mark.parametrize("argv,e1,e2,digest", DERIVED,
                         ids=[f"{' '.join(a)} {e1} {e2}" for a, e1, e2, _ in DERIVED])
def test_derive_output_is_byte_identical(tmp_path, capsys, argv, e1, e2, digest):
    src, out = tmp_path / "src.json", tmp_path / "derived.json"
    assert main(["construct", *argv, "--out", str(src)]) == 0
    assert main(["derive", str(src), e1, e2, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_matching_and_sum_routes_are_byte_identical_over_a_grid():
    # One digest over the sum code and its failure rates, every matching
    # route (the triples at every split, augment_34, mds_45_product) and the
    # Latin dispatcher, which reaches the triples at v = 2, 3 (mod 4).
    digest = hashlib.sha256()
    for v in range(8, 41, 2):
        for k in range(3, 7):
            digest.update(to_json(sumcode.construct(v, k)).encode())
            digest.update(repr(sumcode.failure_rate(v, k)).encode())
    for p_plus in range(2, 41, 2):
        for p_minus in range(1, p_plus):
            packing = factorization.triples_from_factorization(p_plus, p_minus)
            digest.update(to_json(packing).encode())
    for m in range(2, 13, 2):
        digest.update(to_json(transversal.augment_34(m)).encode())
    packing = factorization.mds_45_product(factorization.large_set_sts(9), 8)
    digest.update(to_json(packing).encode())
    for v in range(8, 80):
        digest.update(to_json(latin_dispatch(v)).encode())
    assert digest.hexdigest() == (
        "04887dcce1812b98446206df27657a9aba90a66ad454b2ab862a2e6608133810")


def test_field_routes_are_byte_identical_over_a_grid():
    # One digest over both polynomial-code routes at 163 points: every
    # 1 <= t <= k <= min(q, 6) with q^t <= 4096, for prime and prime-power q.
    digest = hashlib.sha256()
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32):
        for k in range(1, min(q, 6) + 1):
            for t in range(1, k + 1):
                if q**t <= 4096:
                    digest.update(to_json(babai_frankl.construct(q, k, t)).encode())
                    digest.update(repr(transversal.construct_td(t, k, q).blocks).encode())
    assert digest.hexdigest() == (
        "cc69373558304971b22db5175ae69252ba12dfa4db4ddd8c632fe5cffc937079")
