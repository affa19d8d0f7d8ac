"""Every check of the CI workflow that needs no network: ``python tests/ci_steps.py``.

Each check runs a child ``python -O`` with ``src`` on its path and no ``CUSPDIM_*`` variable but
its own, and prints ``PASS name`` or ``FAIL name: why``; a child that outlives its timeout is
killed and fails.  Exits 1 if any check fails, else 0.  Standard library only.
"""

import functools
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 600  # seconds, for a check that names no bound of its own

# SHA-256 of stdout for fixed runs.  The bytes are part of the interface,
# so a refactor that changes any of them is a regression.
FROZEN_STDOUT_SHA256 = {
    ("classify", "1..2000", "--format", "json"):
        "ad495eac5c7b1e48b1679c27fd672893d59dbe0b702e3b6af06f36396000abfe",
    ("classify", "1..2000", "--format", "tsv"):
        "f4712e2687fa54643e356a75467bea8ed2cee0f4d12a589a742b0a4999d36ec7",
    ("classify", "1..2000"):
        "72cb63ce6ccd8bf8b6300527d8c030aa0251bd707caeb4dd065d164dbf5ea675",
    ("cusps", "5040", "--format", "json"):
        "dcf102f9118cae269788409a7c1d73dcb47a0c9131adcfb7ca0238c5da9b2763",
    ("cusps", "120", "--oracle"):
        "769225b59246f30e389dbe734c895a8cec05f7b94df52c72e102e2238ca02e7a",
    ("qexp", "etaq", "4", "1:-8,2:16,4:-8", "120"):
        "2889cd5a95b5c448f91701f46921dc45daa66d170c68d0b5a8ef6b414b41b340",
    ("qexp", "etaq", "1", "1:-1", "400", "--format", "json"):
        "8f3b9ccead8a6bf00b19662f683a7f5e01c5b584cda8c2e30ccec64d48366791",
    ("qexp", "etaq", "6", "1:5,2:-2,3:-2,6:1", "100", "--format", "tsv"):
        "d04891fbbf00ef25f472e1046b2b31d55e74bbbe6bac8b6717eb2cbc701f12f8",
    # Negative powers other than -1 and -8, recorded from a reciprocal raised
    # by squaring: -3 and -2 spread onto a grid of step 3, and -2 alone.
    ("qexp", "etaq", "18", "3:-3,6:1,9:-2", "100", "--format", "tsv"):
        "f27d1d50ab581a86b1ccdadca0714d52d839a352abdf438fb40b93a28244a622",
    ("qexp", "etaq", "49", "49:-2", "40"):
        "286dbcd266916102c2cdbd72796c85fb66a0d8fe3ff5ec3a5ad5a462fe4ea5be",
    ("qexp", "theta", "3", "1", "60"):
        "c6ef95562c2152470a9f0a5a1cca46a865ecc9f47cb48d58e53873c833f49efd",
    ("verify", "eta-law", "--seed", "3"):
        "890af94887a67782c7a290fb94c7a02e1430770bddbfbb0e9b7a83fcdee176d4",
    ("cusps", "360", "--format", "tsv"):
        "c4c1a6a5696d2b9d531727b60ebc78598752a9b5cae36c039c5c715514b4738d",
    ("cusps", "301", "--oracle", "--oracle-cutoff", "310"):
        "e7f7dc15c4153f08c23a9845d736e41d2ede7f0cd7f263180c2cb8be7e64818f",
    ("qexp", "eta", "--precision", "64", "--format", "tsv"):
        "752171d8e6775cfb0f2e9c050b2c1f3f941ce6bd533c66305f6ceeb43f05713d",
    ("verify", "cocycle", "--seed", "2", "--tolerance", "1e-11"):
        "c5ee69c6393683474a0f6860cd36443a8fb1210ab94b30d3a04360e93667b7b4",
    ("verify", "euler-identity", "--precision", "64", "--format", "json"):
        "f88c833a43efce2fe13a4460dd9cdc752846009da13b0ed06869c966f1d4c6c4",
    ("classify", "23", "--format", "json"):
        "11ec203891c0991cd10a7885a3108ee268b01fc393249a3a6a33f5f920b5c639",
    ("cusps", "393216", "--format", "json"):
        "6b2e37fef92bfe0059793cb03c4b06e5eaf74e4be84be9f9c5ef1e4783781232",
    ("cusps", "6469693230", "--format", "json"):
        "a6f1f27b86fe82df015a3e8a0a2cd54f2af7d731cea88e3a4ba9d40c707bc6ed",
    ("cusps", "393216"):
        "bded1529b58eca6e742cd524eaab4c6ff556db90bae7b8f968472398269d49a6",
    ("cusps", "6469693230", "--format", "tsv"):
        "3ab05814d4a13faacfc04616818217569fe7e47ec0d7b76f8134d0bc1fdfee39",
    ("cusps", "5040"):
        "5e2c4388cac93c7495ba2805e82f0c65a1badb4b48e332abefc4de37e495ac67",
    ("cusps", "5040", "--format", "tsv"):
        "db7444a216744219f9407fc40c3ae191f09fd0a461766f5adcd357753cedff0b",
    ("cusps", "120", "--oracle", "--format", "json"):
        "87306f81341c41a275b6dea239a7850a234416d5c5bcdc5aa2375ba624c5924b",
    ("verify", "character", "--seed", "1"):
        "2bfd54391b97db71effbfe9ffb79066b5aabb8b0173b7dbb36c26f89f60684c6",
    ("verify", "character", "--format", "json"):
        "d07fcc2de7f7fb7b6447ad6ce7c8d0b7ee9579e147bf8f7f97bc1ee8d23964db",
    ("verify", "cocycle", "--seed", "4", "--format", "tsv"):
        "f305e2e240e3585ca7b3e0c9ef3c9b3d8bb2136733095c71394c38c5f7774322",
    ("verify", "rr-identity"):
        "230798e620150e6a284bab2eb31003111d7ea030b2ed583bf55678f2e788413e",
    ("cusps", "288", "--oracle", "--format", "tsv"):
        "2dab6d0eb311e1c2c91e65d11b2635f17dfd69c71553e80bad8d8ce0c13515e6",
    # 501 levels below isqrt(999500) = 999: the point-query path, not the sieve.
    ("classify", "999000..999500", "--format", "tsv"):
        "3d11289c6b1f077f1d1603f3930a97eaaafdae01f63ecb3ffa6640aadebcbf46",
    ("classify", "1..30000", "--format", "tsv"):
        "589b7ef202f1e9a70667667ce495083bb49bd2cfb9faa03dcf377e5cd6b8aca6",
    ("classify", "999000..999500", "--format", "json"):
        "053b7693bca51d93748ac1c85b137fcfa097bf6e952b5d3e3f441dcfee7b4f7e",
    ("classify", "999000..999500"):
        "00c02bffaf31097969ef91ebf4a3cf455441b4967846356d55b5a518c420e996",
    # A text table with no M23 line.
    ("classify", "24..40"):
        "e30cb99587d97fa00e201a3c635009ad60219e427648046bce5192690a100086",
    # Full-size series, recorded from the term-pair product loop.  Their
    # products take the packed path with lanes on both sides of 64 bits,
    # and 1:-1 at 2000 terms is one long reciprocal: Euler's pentagonal
    # recurrence, recorded with a product per term and now summed by sign.
    ("qexp", "etaq", "1", "1:24", "500"):
        "709ec2064b11cd319dccb1ec02dd8ab2e27020c27d24af0ad7449ce727938b21",
    ("qexp", "etaq", "1", "1:-1", "2000", "--format", "json"):
        "5f43c91483b8e97d65ed789128f5cdf17e3b315ef7e670cbde3cb379c4dcf30a",
    ("qexp", "etaq", "4", "1:-8,2:16,4:-8", "300", "--format", "tsv"):
        "050ed9cd5b35fb740d44b81fd8370df2d548d65f1ad85a3bd36c7dfb88fc93fa",
    ("qexp", "eta3", "1024"):
        "e96b50628f0107593249700f6928d54401b039081d9fc6e0b2eaa92f22bd199a",
    ("cusps", "393216", "--format", "tsv"):
        "d5d78f745b4442e1c82d745dc4cfae35abb36aadb29e0a6f47431089cf6fd5c9",
    ("cusps", "6469693230"):
        "bdff2d3655059b0576acf80e49ba5912b30078aa78ec4ccb4bcaa7af4bb49527",
    # 2^10 3^4 5^2 7: 6,912 classes, and for 6,582 of them the numerator is
    # searched for, because d has a prime that gcd(d, n/d) lacks.
    ("cusps", "14515200", "--format", "tsv"):
        "e5029a5ced95fabb7c41362786bfce891848bb14ac9f311a25fa2e45f0b27ddf",
    ("cusps", "14515200"):
        "488b634398f788c8663cb0f16acdcae50ec9faf19e3a059582e40768f6d8e8d3",
}

# Too slow or too large for Tier-1: the verify suites at their default sizes, the largest cusp
# table (524,288 classes), seven 16,384-level sieve blocks (the text table prints each level's
# index, cusps, mu2 and mu3), three eta factors of both signs on lanes wider than 64 bits, and
# the partition numbers at the term cap, recorded with a product per term of the reciprocal.
# Two smooth tables (32,928 and 23,328 classes), where most numerators need a prime of d that
# gcd(d, n/d) lacks, recorded with one gcd search per numerator.
CI_STDOUT_SHA256 = {
    ("verify", "character"): "2bfd54391b97db71effbfe9ffb79066b5aabb8b0173b7dbb36c26f89f60684c6",
    ("verify", "eta-law"): "f9cc68c44dbb7aa291ebcfbb4b620e9acfedbabd526a548a27934d5ed9396ced",
    ("verify", "cocycle"): "06c333f2ae3ee2b6463e1136e7d6ef8a8da444cdf489ee102f540d8a2f101439",
    ("verify", "euler-identity", "--precision", "4096"):
        "c8aef864e4f921e9a935d226f10ae21784247bb95c6e0929fb7d8b5c5fdfae2e",
    ("cusps", "7858321551080267055879090", "--format", "tsv"):
        "79b16a38bd2236dc617052172573b7630b5efed99426075aa8c3027243f6d9ef",
    ("classify", "1..100000", "--format", "tsv"):
        "d7e185e3c9eceda6aa2862790167443c874ccc3e61d3968c2bdca31c07c03b98",
    ("classify", "1..100000"): "0f90f79d5eb928a98b9d64516771afdb6a9afcf4b7c1902faf8c5c79a948b917",
    ("qexp", "etaq", "12", "1:-4,6:3,12:-2", "3000", "--format", "tsv"):
        "22d715ab84b8e10a53c73f0b9465eedb0b6e2e31cdce3fe4b212e7309c65b07f",
    ("qexp", "etaq", "12", "1:-4,6:3,12:-2", "6000", "--format", "tsv"):
        "421e6b6526841c4e16e2495b9674a4a3338f017ae538a51cf8073bebb5f07cb7",
    ("qexp", "etaq", "1", "1:-1", "15000", "--format", "tsv"):
        "4ef991b84a56ff2faa0c557794aca810b931c5043712f1a4eb7748df977888f0",
    ("cusps", "207532836", "--format", "tsv"):
        "7504ebbe4bbe398b62147ccf391527d9166a13ae166a4d944f50b206d0f394ae",
    ("cusps", "255091680", "--format", "json"):
        "ae46dc86218f3b7434187ffbaa0b905c2d040c594839b5ae1493b5909ef2d45d",
}

# Leading VAR=value words set variables.  A variable read nowhere in the call changes nothing, nor
# does a zero exponent: each prints bytes of the sha256, or what the argv it maps to prints.
SAME_STDOUT = {
    ("CUSPDIM_SEED=x", "CUSPDIM_TOLERANCE=-1", "CUSPDIM_PRECISION=abc", "CUSPDIM_ORACLE_CUTOFF=0",
     "classify", "1..30", "--format", "tsv"):
        "fc76442cac5a2b6ced81e8632834f720ac4d0f4393316a2ea5580e8093f4db90",
    ("CUSPDIM_ORACLE_CUTOFF=0", "cusps", "12"): ("cusps", "12"),
    ("CUSPDIM_PRECISION=abc", "qexp", "eta", "24"): ("qexp", "eta", "24"),
    ("qexp", "etaq", "12", "6:1,3:0", "10"): ("qexp", "etaq", "12", "6:1", "10"),
}

# Each ends within 10 s with one of its statuses.  A flag that would change nothing is refused,
# and so is a variable where it is read; eta^r takes no loop of r steps, and a quotient of
# negative powers whose coefficients no str() can print is refused before it is expanded.
EXIT_STATUS = {
    ("verify", "character", "--tolerance", "1e-300"): {2},
    ("cusps", "12", "--oracle-cutoff", "5"): {2},
    ("qexp", "eta", "24", "--precision", "16"): {2},
    ("CUSPDIM_ORACLE_CUTOFF=5", "CUSPDIM_PRECISION=16", "cusps", "12"): {0},
    ("CUSPDIM_ORACLE_CUTOFF=0", "cusps", "12", "--oracle"): {2},
    ("CUSPDIM_PRECISION=abc", "qexp", "eta"): {2},
    ("qexp", "etaq", "1", "1:1000000000000", "5"): {0, 2},
    ("qexp", "etaq", "1", "1:-1000000000000", "15000"): {2},
}

# name: (timeout, what follows -O); it exits 0 when its check holds.
PROGRAMS = {
    "rr_identity_suite(100_000) across six sieve block edges": (TIMEOUT, ("-c", """
from cuspdim import rr_identity_suite
result = rr_identity_suite(100_000)
raise SystemExit(None if result.ok else result.summary())
""")),
    "oracle_cusps(n, 600) for n <= 600: the closed forms, reduced (det 1)": (TIMEOUT, ("-c", """
import math
from cuspdim import cusp_count, cusps, oracle_cusps
for n in range(1, 601):
    orbits = oracle_cusps(n, 600)
    widths = sorted(o.width for o in orbits) == sorted(c.width for c in cusps(n))
    reduced = all(o.denominator >= 0 and math.gcd(o.numerator, o.denominator) == 1 for o in orbits)
    infinity = [(o.numerator, o.width) for o in orbits if o.denominator == 0]
    if not (widths and reduced and infinity == [(1, 1)] and len(orbits) == cusp_count(n)):
        raise SystemExit(f"oracle disagrees with the closed forms at level {n}")
""")),
    "import cuspdim.cli loads neither dataclasses nor inspect": (TIMEOUT, ("-c", """
import sys
import cuspdim.cli
raise SystemExit(sorted({"dataclasses", "inspect"} & set(sys.modules)) or None)
""")),
    "unary_theta(2, 1, 4) ** 10**12 is refused: A overflows": (10, ("-c", """
from cuspdim import unary_theta
try:
    unary_theta(2, 1, 4) ** 10**12
except ValueError as exc:
    raise SystemExit(None if "overflows" in str(exc) else str(exc))
raise SystemExit("not refused")
""")),
    "bench/selftest.py": (TIMEOUT, ("bench/selftest.py",)),
    # 99-102 MiB under 3.10-3.13 with the table checked by moments; 150-154 MiB with the width
    # multiset counted down.  ru_maxrss is in KiB on Linux.
    "cusps 7858321551080267055879090 --format tsv peaks below 120 MiB": (TIMEOUT, ("-c", """
import os, resource, sys
from cuspdim.cli import main
sys.stdout = open(os.devnull, "w")
status = main(["cusps", "7858321551080267055879090", "--format", "tsv"])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
raise SystemExit(status or (f"peak RSS {peak:.1f} MiB" if peak >= 120 else None))
""")),
}


def _check(args, env, timeout, statuses=(0,), stdout=None):
    """Why ``python -O *args`` with the variables ``env`` did not exit with one of ``statuses`` and
    print ``stdout`` (bytes of that sha256, what ``cuspdim *stdout`` prints, or any), or None."""
    environ = {k: v for k, v in os.environ.items() if not k.startswith("CUSPDIM_")}
    environ["PYTHONPATH"] = os.path.join(ROOT, "src")
    run = functools.partial(subprocess.run, cwd=ROOT, capture_output=True, timeout=timeout)
    proc = run([sys.executable, "-O", *args], env={**environ, **env})
    if proc.returncode not in statuses:
        return f"exit {proc.returncode} {proc.stderr.decode(errors='replace')[-200:]!r}"
    if isinstance(stdout, tuple):
        expected = run([sys.executable, "-O", "-m", "cuspdim", *stdout], env=environ)
        stdout = hashlib.sha256(expected.stdout).hexdigest()
    digest = hashlib.sha256(proc.stdout).hexdigest()
    return None if stdout in (None, digest) else f"stdout sha256 {digest}"


def cuspdim_check(words, timeout=TIMEOUT, statuses=(0,), stdout=None, what=""):
    """(name, check) of ``cuspdim`` with ``words``; leading ``VAR=value`` words set variables."""
    env = dict(w.split("=", 1) for w in words if w.startswith("CUSPDIM_"))
    argv = ("-m", "cuspdim", *words[len(env):])
    name = " ".join((*words[: len(env)], *argv[1:], what)).rstrip()
    return name, functools.partial(_check, argv, env, timeout, statuses, stdout)


def run(checks):
    """Run each (name, check) and print its line; 1 if any failed, else 0."""
    failed = 0
    for name, check in checks:
        try:
            why = check()
        except subprocess.TimeoutExpired as exc:
            why = f"no end within {exc.timeout} s"
        print(f"FAIL {name}: {why}" if why else f"PASS {name}", flush=True)
        failed |= why is not None
    return failed


if __name__ == "__main__":
    tables = (FROZEN_STDOUT_SHA256, CI_STDOUT_SHA256, SAME_STDOUT)
    sys.exit(run([
        *(cuspdim_check(words, stdout=out) for table in tables for words, out in table.items()),
        *(cuspdim_check(words, 10, s, what=f"exits {s}") for words, s in EXIT_STATUS.items()),
        *((name, functools.partial(_check, args, {}, t)) for name, (t, args) in PROGRAMS.items()),
    ]))
