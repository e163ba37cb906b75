"""Frozen reference values that every benchmark job is checked against.

Block counts and sha256 digests were taken from the output files that
``balpack construct`` / ``balpack derive`` write at the commit that
introduced this benchmark (Python 3.11; the files do not depend on the
seed).  ROADMAP aim 2 requires every construct route to keep writing
byte-identical JSON, so any later change to these bytes is a failure.
The 84 small base families of ``verify-batch``, which the benchmark
builds by calling the construct functions, are pinned the same way, by
the sha256 of each one's document text at that commit.

The exact values A(t,k,v) come from ``balpack oracle`` at the same commit;
A(2,3,9) = 10 and A(2,3,8) = 8 agree with the acceptance tests.  The
baseline's reference count and retained-set count are recomputed here
independently of the package.
"""

from __future__ import annotations

import random
from fractions import Fraction

# output file -> (blocks, sha256 of the file bytes)
CONSTRUCT_OUTPUTS = {
    "latin-120.json": (
        1800, "c79e4d9d0b1393ae20f05e5dd306c4f586787c2095ef7b8e38a5090800e61700"),
    "latin-121.json": (
        1830, "03f6921b545fa08af14e9efe6e3ac1c4c342582b881762cea5b7d88d3af7a6e5"),
    "latin-122.json": (
        1860, "5d7cd419c2d10acbedc8ff8c0fb9870198b5c0d9b6bdbdc60d379a91daabf798"),
    "latin-123.json": (
        1891, "b09324bd83e09db5eebcc2b0fa01857b123de9cf8e776da2c8ca03e1d9a4d6d9"),
    "augment34-48.json": (
        3312, "aa9ed807cba6e2f648cf421288217114e4b2bbd4d627ae9aea1bcae3ade1629a"),
    "augment34-char2-32.json": (
        960, "c25c7ca01095f9b518f5d9c0238a2b8db0eeec8b6c189793ba84f5256a2c9133"),
    "babai-frankl-13-5-3.json": (
        2197, "7a62866c0676ae635134d95869ff18d9646b6e556191828521c78cdd34d8b398"),
    "td-3-5-11.json": (
        1331, "5c7335c49944cf46e72f1caed7a62390a2f79b9d46e05aeeca0c490fa25284e3"),
    "sum-24-5.json": (
        1210, "ac28305e0b5e5e031b58cbf792ab39f3b75deab766b2da6f7f2c756868e912cd"),
    "mds-lts9.json": (
        1008, "2150dfe0ea3b82cf8aaeb4234c6762deaa109cb35c753824c98749d6ba10f748"),
    "L.json": (
        84, "7e43c498bc064958f16ee00fbeca33d273c5aea6c6a92d837116e0a809d9b382"),
    "derived.json": (
        23, "1a48936fe7c09e73b1aa6b40975396ae9ed039435579adceb4f3e2720d69bb98"),
}

# verify-batch base name -> sha256 of its document text (families.write_document)
BATCH_BASES = {
    "latin-8":
        "b4673eb411921c9fa3a76d7bb060ceaf2b8bd8436aa9d08efe87f2978117031c",
    "latin-9":
        "ed55d95d7f11a74042a9fdc9a13f25b558277e6692e6a44c3c5002b0fa2ca373",
    "latin-10":
        "a15cca59f18a699cc5e7c63dff80403de4fcab5876f44405122916c32459ebad",
    "latin-11":
        "49ae0e175e57d2c26624e52ef085cbb9998b791435336c3a3b2d3afea6c28499",
    "latin-12":
        "ff1f9956c88711aab6738817ececc91a591b6777c71f2b10de71ecb049da7844",
    "latin-13":
        "23c5712866defebd33e13065db3ab3e10481f3d270675b276b3829a87bc9f9b0",
    "latin-14":
        "1867f1839155facf88b0bcbc163db3f633a719d70a7f63326e58dcce218e9f71",
    "latin-15":
        "3cd6970564d4937647dd23530583b0b6951c35f129e0fb94b3d15d47506559a3",
    "latin-16":
        "ccdeda77103eee2bc0bb4e6c0033d2f2963f83244675bf11a0e0bf50e5a9d862",
    "latin-17":
        "78e66d4d9898216be6ea83adb11a79561e84ab33eb36495c5e2acdfdb9b2e02f",
    "latin-18":
        "f734adbc56aa763d3274a3bbc36d34882af0fe476d218bfba2caa424c3f3edb7",
    "latin-19":
        "ffc028ea1d9552f466a163cf53242845f09d913c131e65ad6e7c0011a320a1ce",
    "latin-20":
        "de98b174b67b1ebd19007e865e999b1c543c26837a91efb7998a63610e94de02",
    "latin-21":
        "c508087c11745ddf706851a466ced554622602f4c4d2d8e39f80842cc9c2eb71",
    "latin-22":
        "323692dfa292de4b3dd32e520a071b4946d965b58f96a8ca0e7de183071d780c",
    "latin-23":
        "127552374852f93a9429d502ddf803aa5674b7cf3491c44f45a6bccbf627a948",
    "latin-24":
        "120b9f32e0fd28ceb87cba513383de9539ebd89adac2cc8bcbbe969457adde42",
    "latin-25":
        "4abc3616c0e1caf728501b08502bb29063d09762d327762b9a043512c2c56f1f",
    "latin-26":
        "74e579ea7f6d9c9871c6b4b9f210e4292241b81e2d384159f6e45e274a7aa8ea",
    "latin-27":
        "bbefa8a1098b03971c82961b05bd9efa925acb3b72f3a5d31f44d9a69e1e128d",
    "latin-28":
        "83d1d01fcfa5a8cfbe1a2bbf2d6e572c03e72a810685441ec8877f45ea11a0fe",
    "latin-29":
        "ec63f314656f3e8b64a873fa9a33d3e18c50882f270fe264604fc307b1cf276c",
    "latin-30":
        "8562e943603228255ae1d27351a7cd35c7d22f581dd2659cb6069983ff2e4bf9",
    "latin-31":
        "ebbf8059eedf554e6e7fac5ed4c9b2b20b5e01eeee14f05963c3324dc354c1c2",
    "latin-32":
        "f4ab554162af0ca93106897a8be5587475045d63d13898370ed048c1f50b33de",
    "latin-33":
        "25e80e82aa697e2d6a5783bb3f84bcd3182ed00c751ed46f5c6d0ad52c948496",
    "latin-34":
        "db35997c472575b35ea06685198e5bb0f04597fca57c215f0ba7e1e49478fafc",
    "latin-35":
        "da4d631c539fe0277fe4b0ccca8d39800da2bcffc398a0c6a182f5137a197954",
    "latin-36":
        "90884b827a17906749ad06840993ac0539dd1d12e92434036a37beab68381316",
    "latin-37":
        "7e090b506526265ebf176c14b6520e581791512586ff777d78876c8c79d367f2",
    "latin-38":
        "4e214efacebe7382fd4e835fc050301a75689be25da4ae41e6aaa87469324700",
    "latin-39":
        "dfcfdd8d2fa73147a019c34c52c9ddd119d38f6f050efb993a68d8f1fbadb9a6",
    "latin-40":
        "516927f1e1f1c1aa6a340913378026ad1b0de615deafaf618f00758f1b5c3462",
    "augment34-m2":
        "ae6079495999847eb05ea19144c9d3e34c0cc5e08fd3f318484da205d2b08541",
    "augment34-char2-m2":
        "ae6079495999847eb05ea19144c9d3e34c0cc5e08fd3f318484da205d2b08541",
    "augment34-m4":
        "543f53d7baac8a3107d85d6be84c9cb70635b9f4190afc8e8c98a876efb55997",
    "augment34-char2-m4":
        "533db34019664fdbf366b426a7406acf869585249591eed0e0fc51adc050e2d0",
    "babai-frankl-3-3-2":
        "ab8eb04da2b2aab53bb59fe10c5f6a6bbd646e0fac1bd390fbe23f9a674e2452",
    "babai-frankl-5-4-2":
        "ca1eb5239fc39f830ca734f5b87e4d42dba660618c4b82706e461d80f268a3f7",
    "babai-frankl-7-4-2":
        "6ed5b3c3463d91ff358d877ae99382e037673f680c00f9abfcf1d017209b7b9f",
    "babai-frankl-8-4-2":
        "d344bbc61911a85255aea13c382d944a6bf9ae4fb21bdbd88a36dcee1d85fdeb",
    "babai-frankl-9-4-2":
        "af4440f5c66549dccf128fe2c34b8c5acaa30b2e800fa4383a0366ed811eb83c",
    "babai-frankl-7-5-2":
        "d5b7637f3c6b0a9be47aadf98ed709b76fff0c2f0b8635bbd834ef71041fcb7f",
    "babai-frankl-4-4-3":
        "8900eb7618d55e10451971040d4859f5da9ab1020362a73bf3e7656af120cd0f",
    "babai-frankl-5-5-3":
        "c9762cff6245710e28d355e5d78e3a327ec4dde53835f522174e8bdd0a22dd49",
    "td-2-3-9":
        "816023a509fa38009007f2b0355c3ad957e0f3feed4a8d2310a26550563db86f",
    "td-2-4-7":
        "77d144a59eb0316befc116609fa6b503a9ae7ff6304a342825671246a4dbf104",
    "td-2-5-8":
        "c1ef2cee9759f79ed48633a8841396c358719546d6f6f5e0dbdf8aa89f75736b",
    "td-3-4-4":
        "237156639c1d462a87df6a42bdb6df02478baa86ed26eb2cadeed561dab69067",
    "td-3-4-5":
        "2432a35f6850a81c593270e9c31e8bb86c8d3863d99e40e7423cb955f988d341",
    "sum-8-3":
        "cc340f06a953ebe3609c31f41dcd93c5f4ffa5066255770eba39b9645865d9a1",
    "sum-10-3":
        "c1c6ee8cd0b3f97a7060a574027e2d7e676b2f9a6b767d4e8e2244304400b8c7",
    "sum-12-3":
        "01b3e05e949acb87cf664c93e411bfc02d25adaee7990abbb29ca2386bf9643d",
    "sum-14-3":
        "4ebec3aee317d20fed2f13b11180c654ac323a635ac9f7461ef7157e3049a731",
    "sum-16-3":
        "a6b277d9e72c818e4cb39fef714136a86082dfc295ffa7e063bba633d3413bdd",
    "sum-18-3":
        "851191c0b57985419b1f8e861f33ff9b85384fff5b3c6e135a85a08fa90cee29",
    "sum-20-3":
        "8b49bd0bd2211a51a9e1b4205211b4ebce1cec5789ae3f1e221eeef4e4454705",
    "sum-22-3":
        "2be029299852d379fc9a40d2ffebff262364b235b1eca7bc78fffeb579ffc99e",
    "sum-24-3":
        "2aaf24bb9c3dc6cfd85fabb4bd8cfa7c61c38df3aed8004b1dd34d0b937c645f",
    "sum-26-3":
        "58a145c2923f68fc43d960de14b32a8e575ca8bd30e1f19521dac048d6530efa",
    "sum-28-3":
        "090c9f747d1c2b949820cbec7ce3319d583f065c21a42e584ad70b5eeec37a07",
    "sum-30-3":
        "63a240310be51d6ddc659226820fbf7754eafff719ec2615be65b884b80447e2",
    "sum-32-3":
        "dcf559b0bac95f2f80837247b59d5bb96c78f00614875b0b10304b8dfd3cee82",
    "sum-34-3":
        "ffa5b21d13f10a2abe9241f90f1ff11f7306a7bc5d3b064f2c38e16222925b9a",
    "sum-36-3":
        "dbb1f0ddb33c1a0f3258d448b58b5b1bea4ce98c88ff757f949e168c93ba0b85",
    "sum-38-3":
        "b5c6a4f9edbd8d6fc2968f8284e9f8570f526de0b427feb8dca9986f36129a19",
    "sum-40-3":
        "d675e3ff4e1b3515a04506a07c963f78189784e0b78741c4eea683e39d75bb0c",
    "sum-8-4":
        "c9e3041d3805e5562bfe51f72eabd06ce623a5d72c81ee8b624728740e57270f",
    "sum-10-4":
        "9977b5ba98f8d4c54dc3c1665d73a761c08af1f7e20ac0ce8534cc3d22767c5f",
    "sum-12-4":
        "e41ca123f6ced312ad4c1d34025492f035fb3ec0c45873e91eaa5dabd2e21a83",
    "sum-14-4":
        "a00775e28cfbc33ecfc71ec1b66f7632f22652d7a81a1c193bc6bae00bcb2cc4",
    "sum-16-4":
        "ac4d37d43e73d4b833979ccfd1a8c69c6ee1cec0229c069c65523d37915d78c3",
    "sum-18-4":
        "d2fb2a5677cb237ab83faaed462c56c24842251067830b47e0f7dab3b0351d7f",
    "sum-20-4":
        "65b1ef9f43b3b2f05ef4de48e587cd7cc7e4f581611b2a27c86205316a071e53",
    "sum-22-4":
        "32d4f97ccdbcc8461631825006cc63c935700fde996eb9a0c97a295490547546",
    "sum-8-5":
        "358a7dda8bb4cc2052b0a89e50a6c94b8818ceb6ee50a9d484d7e55ae9ef6711",
    "sum-10-5":
        "4526e09362f0239dad74c434a036f76573f76b10743580c37c66a7d6521fd86d",
    "sum-12-5":
        "810099752f381a7411f75932abb813998c80564fe354c53a4b4c831ffba916bd",
    "sum-14-5":
        "1c9aafeba8b05fe72b2ab14f53678947d7d98a62ce83d83254109b69d264f3d9",
    "sum-16-5":
        "a19734b767f3166f4b2aa894caa7c685f1b5affd3b937aa44087f87998dad3e4",
    "mds45-lts9-8":
        "5e384bb0a33e04de4f6b8cf371a93052bdf45cc731ce30b62f53418cc296203f",
    "product-1f4-singletons3":
        "369385559ae4ca5adc71cb7b32947062cfd197e2fcde51223d09be7382455ebc",
    "product-1f6-1f6":
        "be01b276ada34bc69ea5b23cac4c69779b735937895a64fcc63e1cbf62590838",
    "derived-augment34-m4-0-15":
        "8646d33029c90c90a50ef82a45b29d67b6c4c454d74d9941b4fa0dd8342308cb",
}

# (t, k, v) -> exact maximum size of a balanced packing
ORACLE_EXACT = {
    (2, 3, 8): 8,
    (2, 3, 9): 10,
    (3, 4, 9): 12,
    (3, 5, 10): 6,
    (4, 5, 9): 16,
    (2, 4, 12): 9,
    (4, 6, 11): 10,
}


def fraction_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def existence_reference(v: int, k: int, t: int) -> Fraction:
    """(v*t/k^2)^t, the count the randomized baseline is compared with."""
    return Fraction(v * t, k * k) ** t


def baseline_retained(v: int, k: int, t: int, trials: int, seed: int) -> int:
    """Number of sets the interval baseline keeps: one uniform point per
    width-v/k interval from ``random.Random(seed)``, kept when it meets
    every kept set in at most t points."""
    width = v // k
    rng = random.Random(seed)
    kept = []
    for _ in range(trials):
        mask = 0
        for i in range(k):
            mask |= 1 << (i * width + rng.randrange(width))
        if all((mask & m).bit_count() <= t for m in kept):
            kept.append(mask)
    return len(kept)
