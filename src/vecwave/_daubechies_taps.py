"""Minimal-phase Daubechies low-pass taps ``h[0..2N-1]`` for N = 2..10.

Generated by ``tools/gen_daubechies.py``; do not edit.  Each tap is the
float64 value written with ``float.hex``, so it reads back bit for bit.
"""

DAUBECHIES_H = {
    2: (
        "0x1.ee8dd4748bf15p-2", "0x1.ac4bdd6e3fd71p-1", "0x1.cb0bf0b6b7109p-3",
        "-0x1.0907dc1930690p-3",
    ),
    3: (
        "0x1.54a796e50d264p-2", "0x1.9d20e247d28bbp-1", "0x1.d6ea20bf0f744p-2",
        "-0x1.1480a85c59629p-3", "-0x1.5df7ab50d483cp-4", "0x1.2092e373789b9p-5",
    ),
    4: (
        "0x1.d7d052af15ec0p-3", "0x1.6e005ea45d748p-1", "0x1.4302cdd3de43ap-1",
        "-0x1.ca7c6f9db5bfbp-6", "-0x1.7f0c1b7c604d4p-3", "0x1.f94e2196383a9p-6",
        "0x1.0d60ac768117bp-5", "-0x1.5b41730b72e29p-7",
    ),
    5: (
        "0x1.47e3c41a7b911p-3", "0x1.35291c2c4b00cp-1", "0x1.72d89143b54f5p-1",
        "0x1.1b80373befcc6p-3", "-0x1.f0384d3f81474p-3", "-0x1.0826648a8dc74p-5",
        "0x1.3dbb9b52515aap-4", "-0x1.990ad4579f2e8p-8", "-0x1.9c3eff3294128p-7",
        "0x1.b5385e04e3c09p-9",
    ),
    6: (
        "0x1.c8def24dc3952p-4", "0x1.fa7eaf64539a9p-2", "0x1.80949fa3bc0bbp-1",
        "0x1.42d0fcfa92f21p-2", "-0x1.cf63dd26916f1p-3", "-0x1.09c33622722ebp-3",
        "0x1.8f5dd7f4e1752p-4", "0x1.c2ef43d612549p-6", "-0x1.02b856404e8cep-5",
        "0x1.225f71210a7c1p-11", "0x1.391514c62a31bp-8", "-0x1.1a6873b7a6466p-10",
    ),
    7: (
        "0x1.3ee1cba38b6b0p-4", "0x1.960e674303003p-2", "0x1.7550cd294c1fep-1",
        "0x1.e10e9ba294ddcp-2", "-0x1.26b830e491e33p-3", "-0x1.cad37bbd5ab97p-3",
        "0x1.241522ca7821cp-4", "0x1.4a30727f2fa53p-4", "-0x1.378a8eecf45ccp-5",
        "-0x1.0f8eaa8ffe709p-6", "0x1.9b45682a50d72p-7", "0x1.c271f584373c9p-12",
        "-0x1.d84a0f9cb2f41p-10", "0x1.72e5533fa10bcp-12",
    ),
    8: (
        "0x1.bdc64ada308dcp-5", "0x1.4061690b4c31ep-2", "0x1.59ec459923760p-1",
        "0x1.2bb39bedb5e28p-1", "-0x1.03581459a95bcp-6", "-0x1.22d4f8724d56fp-2",
        "0x1.ef6f9caf662ecp-12", "0x1.07acbb163ba09p-3", "-0x1.1c9420f07509dp-6",
        "-0x1.692bc518a7fe3p-5", "0x1.ca215cd5b85b6p-7", "0x1.1e978df35f5fdp-7",
        "-0x1.3f2ef6d3ac750p-8", "-0x1.9ac501798e626p-12", "0x1.622148e2ef37bp-11",
        "-0x1.ecbbbc88e3f33p-14",
    ),
    9: (
        "0x1.37ef3e540da7dp-5", "0x1.f35f9808bc2a1p-3", "0x1.35ab60603a288p-1",
        "0x1.5088101e8fe35p-1", "0x1.10c9ca803fb27p-3", "-0x1.2c4ff66fd53eep-2",
        "-0x1.8ca8ebcdc98fep-4", "0x1.303621e43e771p-3", "0x1.f768d94677996p-6",
        "-0x1.1506294f451a2p-4", "0x1.07231a6b6c9ebp-12", "0x1.6e5f9be058887p-6",
        "-0x1.358a39f783bbdp-8", "-0x1.1897b64b3bfb7p-8", "0x1.e4597bbfc7115p-10",
        "0x1.e3276a3bc5155p-13", "-0x1.0833da803975ap-12", "0x1.4a11ba1ad321dp-15",
    ),
    10: (
        "0x1.b4f6549dc7ae3p-6", "0x1.8162d69198cfep-3", "0x1.0ded5071bf874p-1",
        "0x1.607db4062d770p-1", "0x1.1feba4923f56cp-2", "-0x1.ffaf7b6c111e2p-3",
        "-0x1.914c47c1ca803p-3", "0x1.04da377a0ae84p-3", "0x1.7d29b819fd18dp-4",
        "-0x1.246e307349ac4p-4", "-0x1.e2a1dd5152b27p-6", "0x1.1014069cb8f3cp-5",
        "0x1.d8b7db3e2172fp-9", "-0x1.5fb466d770edfp-7", "0x1.6dc8787ae38c3p-10",
        "0x1.0526072a98cebp-9", "-0x1.67962098c50e1p-11", "-0x1.e87f555dc53cep-14",
        "0x1.888a11cfae201p-14", "-0x1.bd12a2a1a479cp-17",
    ),
}
