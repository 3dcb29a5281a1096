"""Seeded draws, bit for bit numpy 2.4's ``default_rng`` stream, without ``numpy.random``.

``Draws(entropy, spawn_key)`` gives exactly what
``np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))``
gives for the three calls the package makes: ``standard_normal(n)``,
``gamma(shape, size=n)`` with shape > 1 and ``uniform(low, high[, size])``.
Loading ``numpy.random`` for them would add about 5.5 MB to a seeded
command's peak RSS, 3.4 MB of it OpenSSL's libcrypto (``secrets`` imports
``hmac``, which loads ``_hashlib``).  The package imports this module on its
first draw, so commands that draw nothing never load it.

The stream is numpy's.  ``SeedSequence``'s hash mixes the entropy into four
32-bit words and expands them into the seed and increment of a PCG64
generator (O'Neill 2014: a 128-bit LCG whose output word is the XOR of its
two halves rotated by its top six bits).  A uniform is the top 53 bits of
one word, a normal is numpy's 256-layer ziggurat, and a Gamma(shape > 1) is
Marsaglia & Tsang (2000) on those normals and uniforms.

An array of more than ``_SCALAR_DRAWS`` draws is made in blocks of at most
``_BLOCK`` words.  The state j steps on is ``A_j s + G_j inc`` mod 2^128,
with A_j = a^j and G_j = 1 + a + ... + a^(j-1) tabulated as 64-bit halves,
so a block is wrapping ``uint64`` array arithmetic plus 64x64 high products
from 32-bit limbs.  Every word of a block starts an attempt: one ziggurat
try, or one Gamma try on a whole normal and a uniform.  The ziggurat's fast
path and wedge test run for every word at once and its rare tails one at a
time; a Gamma try's normal is the ziggurat chain from its word to the
first taken try.  Where an attempt ends does not depend on whether it is
taken, so the attempts made are the chain of ends from the block's first
word, followed from one attempt of irregular length to the next, and
Gamma's squeeze and log test run on that chain only.  Every decision that
needs ``log``, ``log1p`` or ``exp`` takes it from ``math`` (libm, as numpy's C
code does), one value at a time.
"""

from __future__ import annotations

import binascii
import bisect
import functools
import math
import operator

import numpy as np

from .errors import InvalidParameter

# numpy/random/bit_generator.pyx: SeedSequence's hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32 = 0xFFFFFFFF
_M52 = (1 << 52) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_MULT = (2549297995355413924 << 64) + 4865540595714422341
#: Most words one block makes; its arrays are 32 KiB each.
_BLOCK = 4096
#: Most draws an array is made of one draw at a time: below this a block's
#: fixed cost of about 60 numpy calls exceeds the scalar path's 1-2 us per draw.
_SCALAR_DRAWS = 48
#: The end given to a draw that runs past its block.
_PAST = 1 << 62
#: The ziggurat's rightmost layer edge and its inverse (numpy's distributions.c).
_ZIG_R = 3.6541528853610087963519472518
_ZIG_INV_R = 0.27366123732975827203338247596

# numpy's ziggurat tables fi_double, wi_double and ki_double, 256 entries each,
# little-endian, copied from numpy 2.4.6: numpy/random/lib/libnpyrandom.a, member
# src_distributions_distributions.c.o, .rodata offsets 0x3000, 0x3800 and 0x4000,
# 2,048 bytes each (sha256 of the 6,144 bytes e3811c13...0905da48cd1c).  They are
# copied, not recomputed: fi matches exp(-x^2 / 2) at 254 of its 256 entries.
_TABLES = binascii.a2b_base64(
    "AAAAAAAA8D+H8HnJakTvPxWpbFtUt+4/d/An4BE/7j+V3gSnb9PtP/K8VwaScO0/3BmheEkU7T/rLaeoM73sP394"
    "qc5eauw/6rru2Rwb7D+C3OFO687rP1L1jzplhes/EN00gjo+6z+i6Gw/KvnqPwQlevH+teo/4clQ1Yt06j8Pr/X9"
    "qjTqP9gfZe479uk/gQYkjSK56T/BemFXRn3pP0d6G8KRQuk/T3ExvfEI6T+oCuZPVdDoPwLfukitmOg/rLw3/Oth"
    "6D9uz1YPBSzoP8viIEvt9uc/WGicd5rC5z/VsKA8A4/nP1bYcAcfXOc/Em0/9OUp5z/ueuq6UPjmP4laY55Yx+Y/"
    "KjtRXveW5j8j45IqJ2fmPxgMVZjiN+Y/ZSaAmCQJ5j9q/0pv6NrlP4lcyKwpreU/j41MJuR/5T9Gno3wE1PlP9Vs"
    "ZVq1JuU/Z7Yg6MT65D/ATklPP8/kP3hS3HIhpOQ/ElDfX2h55D95NklKEU/kP+NfNYoZJeQ/gltYmX774z+jMa8Q"
    "PtLjPw7NYqZVqeM/1QDaK8OA4z/pUPWLhFjjPzU6cMmXMOM/7zhk/foI4z/uO+pVrOHiP0qV1xSquuI/Fc2TjvKT"
    "4j/tBAUphG3iP4TbkFpdR+I/8vcvqXwh4j8glpKp4PvhP2mZVP6H1uE/EdE/V3Gx4T9QPJtwm4zhP9o5hhIFaOE/"
    "nKleEK1D4T84HzFIkh/hPxNZMqKz++A/oEJBEBDY4D+u2XCNprTgP4FdmR12keA/NjzwzH1u4D8uP6avvEvgPyqC"
    "i+ExKeA/xMq4hdwG4D+hvXuMd8nfP8oAqaedhd8/83ovyylC3z+Vj35xGv/eP1QfvSBuvN4/xcNOaiN63j+Fm1/q"
    "ODjePwk6dket9t0/sVYLMn+13T8z3iZkrXTdP4AQAqE2NN0/bVuutBn03D9IqMBzVbTcP8fXALvodNw/uCwdb9I1"
    "3D8XamF8EffbP5FtcdakuNs/GxMHeIt62z/KMbNixDzbP1KFoZ5O/9o/nlpfOinC2j+A2KRKU4XaP03AIOrLSNo/"
    "PoRGOZIM2j/fkx5epdDZP8bAGIQEldk/k5/g265Z2T8XyzObox7ZPxXxufzh49g/iJHeP2mp2D+2WqyoOG/YP9kN"
    "qn9PNdg/Edm4Ea371z+wFPSvUMLXP+tSkq85idc/7bHHaWdQ1z9MYak72RfXP6pMEoaO39Y/Id6IrYan1j/iyyUa"
    "wW/WPxXlezc9ONY/yNKAdPoA1j9EwnZD+MnVP77u1hk2k9U/AAE9cLNc1T/tO1PCbybVP5Jtv45q8NQ/opwQV6O6"
    "1D/Uaq2fGYXUP/4kw+/MT9Q/GXo10bwa1D/b0o7Q6OXTP65D8XxQsdM/eRMIaPN80z+e0fkl0UjTPy/2Wk3pFNM/"
    "Zgchdzvh0j/dP5Y+x63SPx6xTUGMetI/id4XH4pH0j+ezPd5wBTSPxaBGPYu4tE/UPDCOdWv0T/oVFTtsn3RP2fu"
    "NLvHS9E/IyTPTxMa0T/ECYdZlejQP9pCsohNt9A/NkOQjzuG0D/Z6UIiX1XQP350x/a3JNA/xZPfiYvozz81MriM"
    "EIjPP9KY6Wz+J88/RJzJpFTIzj/dPCiyEmnOP4RxRRY4Cs4/CpDHVcSrzT9PUbL4tk3NP8xvXooP8Mw/U99xmc2S"
    "zD9Hndi38DXMP6EYvnp42cs/qjGHemR9yz860cxStCHLPwcYV6Jnxso/fiYZC35ryj89fi0y9xDKP1r+0r/Stsk/"
    "J3xqXxBdyT9p+nS/rwPJP1uBkpGwqsg/OJqBihJSyD91cR9i1fnHPyOjaNP4occ/prV6nHxKxz8WR5Z+YPPGP1zy"
    "IT6knMY/nPGtokdGxj/5g/h2SvDFP2wd84ismsU/NWjIqW1FxT/BH+OtjfDEPy3O9WwMnMQ/1XUDwulHxD+uMWmL"
    "JfTDP+7X6Kq/oMM/iKu0BbhNwz9lKnyEDvvCPxoHehPDqMI/t16DotVWwj80PBglRgXCP0J9dZIUtME/Yy2o5UBj"
    "wT+5bqIdyxLBP7oJUj2zwsA/hb+4S/lywD8qfQZUnSPAPywia8s+qb8/HA5SKf8Lvz9LpZrye2++P4/odmG1070/"
    "5ZG9uas4vT8KdDtJX568PxUQC2jQBLw/M+LyeP9ruz8z9srp7NO6P4Zi6jOZPLo/GVud3ASmuT+roKR1MBC5P1Io"
    "v50ce7g/1u8+Acrmtz92EapaOVO3P0xKaXNrwLY/GE2FJGEutj+kZnRXG521P64r+gabDLU/EyIbQOF8tD+GmiYj"
    "7+2zP3A+2eTFX7M/ETGbz2bSsj+RDd1E00WyP32Jl74MurE/nRfy0BQvsT8llhUs7aSwP5fkMJ6XG7A/NW5sKywm"
    "rz+BUbJH1RauP2Lxrf4uCa0/LCooDz79qz9wXziQB/OqP2NVKfmQ6qk/q7VoKuDjqD8eJ693+96nP2TQmLPp26Y/"
    "1K3yPLLapT9dJxEOXdukP8vumM7y3aM/l/Q96Hzioj+8ah+fBemhPxGAli6Y8aA/xKUY14H4nz91jILbGhKePxoJ"
    "zYMZMJw/+OsiTp9Smj8KwQC20XmYP4K/C/TapZY/ZLD78urWlD8TXquNOA2TPxIwYDQDSZE/Sd1yTyoVjz+sj08n"
    "jaSLP3ikjQ0EQYg/4M8aQpbrhD+SL5UpkqWBPzdo7Phg4Xw/XbgM2aiedj/9sbADH4pwP2ewwUOfX2U/D/e5tgWm"
    "VD952RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08"
    "w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88ozwvsaLBnr2jPFWb"
    "/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQ"
    "rZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdi"
    "qjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8"
    "SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj2"
    "2FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE"
    "fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuo"
    "sTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI8"
    "2i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSy"
    "sm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae"
    "33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndY"
    "tTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8"
    "Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYU"
    "aVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8595zjNbqtzwf6oak"
    "Zwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8J2pEUUnk"
    "uDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8"
    "EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71"
    "Ws14yLo8NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXb"
    "a7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+q"
    "vDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08"
    "Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqn"
    "EHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjB"
    "Wfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeW"
    "wDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8"
    "Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM"
    "BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1eKmx"
    "De7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8dfRgqtvy"
    "wzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8"
    "G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMG"
    "CVaVecc8jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmC"
    "tDvNPGrvJYA98w4AAAAAAAAAAACoxvuYvggMAEKBvfpUow0A6u7BfvZRDgB+99PpVbIOALnKfoFL7w4AqkT6CkcZ"
    "DwAYy/9h7TcPAFwlYZVGTw8AlqMb5KVhDwCkllN1enAPAJpEKOyyfA8A01djDPGGDwDeJYNXpo8PANrQTccklw8A"
    "CfXbB6mdDwB0+oH1YKMPAPhLW95vqA8A3FTTYPGsDwAPuRhn+7APAMZ0U42ftA8Ad/5mI+y3DwAO5aHp7LoPAO0L"
    "BJ2rvQ8AV2z/YDDADwBIojcQgsIPANFb4nqmxA8AMe56l6LGDwCkliipesgPAIXeS14yyg8AGiMC6czLDwDEOfgS"
    "Tc0PAJnsj021zg8AMMkdvwfQDwDmxNZNRtEPAFD04qhy0g8AHsnwT47TDwB4tJCZmtQPAFMPkriY1Q8A7JmOwInW"
    "DwAy6MipbtcPAOgIe1RI2A8AjCytixfZDwDSracH3dkPAIxeEHCZ2g8AIC7AXU3bDwDQ/Ftc+dsPAH2aueud3A8A"
    "nXIYgTvdDwCQLzSI0t0PAGSfNmRj3g8ATlGNcO7eDwAutKYBdN8PAEDtmWX03w8A8iS85G/gDwBYoiXC5uAPAEy4"
    "KDxZ4Q8AmT+8jMfhDwCqHNvpMeIPAJEb2oWY4g8AhkG1j/viDwBKjVUzW+MPACoA0Jm34w8Af62e6RDkDwA0d9RG"
    "Z+QPAFwJTNO65A8AJJXSrgvlDwB4vE73WeUPABIS5Mil5Q8AiYYTPu/lDwB4ENlvNuYPAHjVxnV75g8AqhEeZr7m"
    "DwDy9OVV/+YPAAKnAFk+5w8AOZ4+gnvnDwCicHDjtucPAENCd43w5w8AjPBTkCjoDwA6FzX7XugPAGQIhNyT6A8A"
    "vM7wQcfoDwD2Tn04+egPAB2bh8wp6Q8A6ojTCVnpDwCimpP7hukPAGZIcayz6Q8A1baUJt/pDwB85qtzCeoPAKRm"
    "8Zwy6g8ALJUyq1rqDwAadNWmgeoPAPAc3pen6g8AINnzhczqDwA85mV48OoPABPsL3YT6w8ASir+hTXrDwC0YjGu"
    "VusPAPqE4vR26w8AFCDmX5brDwB8nc/0tOsPANBJ9LjS6w8APi5use/rDwDovR7jC+wPABVasVIn7A8A06+dBELs"
    "DwCW8Sn9W+wPAPTubEB17A8AtAxQ0o3sDwASH5G2pewPAP4nxPC87A8AFftUhNPsDwCzyIh06ewPALeRf8T+7A8A"
    "KIU1dxPtDwADSYSPJ+0PAEwvJBA77Q8Ablit+03tDwDdw5hUYO0PAOhPQR1y7Q8AgqnkV4PtDwDILKQGlO0PAAS3"
    "hSuk7Q8AtGp0yLPtDwBSZkHfwu0PAFJupHHR7Q8A04o8gd/tDwCAmZAP7e0PABTUDx767Q8AxEsSrgbuDwAGWtnA"
    "Eu4PAOAGkFce7g8AJGVLcynuDwC85AoVNO4PADybuD0+7g8A9IIp7kfuDwCGsB0nUe4PAEF/QOlZ7g8ALrQoNWLu"
    "DwDxl1gLau4PAHoHPmxx7g8AgnsyWHjuDwC6BnvPfu4PALJKSNKE7g8AQ2O2YIruDwBRyMx6j+4PANolfiCU7g8A"
    "6imoUZjuDwBcSBMOnO4PAPRzclWf7g8ArsxiJ6LuDwCsQmuDpO4PAHEt/Gim7g8A+tZu16fuDwAK+gTOqO4PADsz"
    "6Eup7g8AEGQpUKnuDwBeB8DZqO4PAFR2ieen7g8AJB1IeKbuDwCDnqKKpO4PANrkIh2i7g8AJCA1Lp/uDwAurya8"
    "m+4PAOTyJMWX7g8AOgo8R5PuDwAWdVVAju4PAHqcNq6I7g8A/T1/joLuDwCIuKfee+4PAP83/5t07g8AXr2pw2zu"
    "DwB+AJ5SZO4PAIgoo0Vb7g8AtldOmVHuDwDPBgBKR+4PAFAs4VM87g8A2CrgsjDuDwAFgq1iJO4PAFo8uF4X7g8A"
    "RxQqognuDwDMSeMn++0PAGwhdurr7Q8AfgQi5NvtDwDTOc4Oy+0PAPQsBGS57Q8AyTjp3KbtDwCN6Tdyk+0PADao"
    "OBx/7Q8AK8C50mntDwAArgaNU+0PACKk3kE87Q8A2C9q5yPtDwBE5i9zCu0PADT+B9rv7A8AuLcOENTsDwC0bpUI"
    "t+wPAMEwEraY7A8AeKkNCnnsDwD+MQ/1V+wPAGLJhmY17A8ANbO0TBHsDwDQb46U6+sPAJK2oCnE6w8A3Azu9Zrr"
    "DwBChcnhb+sPAJ4frdNC6w8ASy0LsBPrDwDpAhpZ4uoPAFcima6u6g8AJuOOjXjqDwDlc/3PP+oPAPbZjUwE6g8A"
    "O1Yv1sXpDwCkR6k7hOkPAChHHUc/6Q8A1sV2vfboDwDm6MRdqugPAOqxeuBZ6A8AQKmQ9gToDwDAM4JIq+cPAKVq"
    "H3VM5w8AAqIqEOjmDwDYq7agfeYPAH4wOJ8M5g8AQvc4c5TlDwCAcpdwFOUPAFj0NtSL5A8ANx79v/njDwCcse41"
    "XeMPAP7kLxK14g8AV1WZAwDiDwAUg3iCPOEPALBn7sRo4A8AqnErsILfDwCq/n7Fh94PAP07xgl13Q8AE78p5Ubc"
    "DwCCAi74+NoPAHW6suGF2Q8ABM9I7+bXDwALZb2tE9YPABLw4kkB1A8ArMe0p6HRDwCeH3YE4s4PALIRXtioyw8A"
    "Ii3NbtLHDwDtIh4vK8MPADq4wIFlvQ8ANFQAxAa2DwB0KCpYQKwPAJhFAR6Xng8A/B2kSPqJDwAsMPD3xWYPAEoc"
    "M0taGg8A"
)
_FI = np.frombuffer(_TABLES, "<f8", 256, 0)
_WI = np.frombuffer(_TABLES, "<f8", 256, 2048)
_KI = np.frombuffer(_TABLES, "<u8", 256, 4096)
_FI_LIST, _WI_LIST, _KI_LIST = _FI.tolist(), _WI.tolist(), _KI.tolist()
# The same by a word's low nine bits, its layer and sign: -(r w) is r (-w) bitwise.
_WI_SIGNED, _KI_TWICE = np.concatenate((_WI, -_WI)), np.concatenate((_KI, _KI))


def _uint32_words(entropy) -> list[int]:
    """SeedSequence's coercion: a non-negative integer as its little-endian 32-bit
    words (zero as one word), a list or tuple as its items' words in order."""
    if isinstance(entropy, (list, tuple)):
        return [word for item in entropy for word in _uint32_words(item)]
    try:
        n = operator.index(entropy)
    except TypeError:
        n = -1
    if n < 0:
        raise InvalidParameter(f"seed must be a non-negative integer, got {entropy!r}")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _pool(entropy: list[int]) -> list[int]:
    """SeedSequence.mix_entropy: the four-word pool of the assembled entropy words."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _high(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each a_i * b (a uint64 array, b < 2^64), from 32-bit limbs."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & _M32) >> 32)


def _times(lo: np.ndarray, hi: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The halves of (hi * 2^64 + lo) * s mod 2^128, elementwise, for a 128-bit s."""
    s_lo = s & _M64
    return lo * np.uint64(s_lo), _high(lo, s_lo) + hi * np.uint64(s_lo) + lo * np.uint64(s >> 64)


@functools.cache
def _jumps(bits: int) -> tuple[np.ndarray, ...]:
    """The halves of A_j = a^j and G_j = 1 + a + ... + a^(j-1) mod 2^128 for
    j = 1..2^bits, so that j steps take a state s to A_j s + G_j inc.  Each table
    doubles the one before: A_(m+j) = A_m A_j and G_(m+j) = G_m + A_m G_j."""
    if bits == 0:
        return tuple(np.array([v], np.uint64) for v in (_MULT & _M64, _MULT >> 64, 1, 0))
    a_lo, a_hi, g_lo, g_hi = _jumps(bits - 1)
    a_m = int(a_hi[-1]) << 64 | int(a_lo[-1])
    lo, hi = _times(g_lo, g_hi, a_m)
    lo += g_lo[-1]
    hi += g_hi[-1] + (lo < g_lo[-1])
    return tuple(map(np.concatenate, zip((a_lo, a_hi, g_lo, g_hi), _times(a_lo, a_hi, a_m) + (lo, hi))))


def _unit(word: int) -> float:
    """A uniform double in [0, 1) from the top 53 bits of a word."""
    return (word >> 11) * (1.0 / 9007199254740992.0)


def _units(words: np.ndarray) -> np.ndarray:
    return (words >> 11) * (1.0 / 9007199254740992.0)


def _log(u: float) -> float:
    """libm's log, -inf at zero."""
    return math.log(u) if u > 0.0 else -math.inf


def _attempt(r: int, word) -> tuple[float, bool]:
    """One ziggurat attempt on the word ``r``: its value and whether the normal takes
    it (numpy's random_standard_normal).  A wedge or tail reads more words from ``word()``."""
    idx = r & 0xFF
    rabs = r >> 9 & _M52
    x = rabs * _WI_LIST[idx]
    if r & 0x100:
        x = -x
    if rabs < _KI_LIST[idx]:
        return x, True
    if idx:
        return x, (_FI_LIST[idx - 1] - _FI_LIST[idx]) * _unit(word()) + _FI_LIST[idx] < math.exp(-0.5 * x * x)
    while True:
        xx = -_ZIG_INV_R * math.log1p(-_unit(word()))
        yy = -math.log1p(-_unit(word()))
        if yy + yy > xx * xx:
            return (-(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx), True


def _normal(word) -> float:
    """One standard normal from the word source ``word``."""
    while True:
        x, taken = _attempt(word(), word)
        if taken:
            return x


def _gamma(word, b: float, c: float) -> float:
    """One Marsaglia & Tsang Gamma(b + 1/3) draw (numpy's random_standard_gamma, shape > 1)."""
    while True:
        x = _normal(word)
        v = c * x + 1.0
        if v <= 0.0:
            continue
        v = v * v * v
        u = _unit(word())
        xx = x * x
        if u < 1.0 - 0.0331 * xx * xx or _log(u) < 0.5 * x * x + b * (1.0 - v + math.log(v)):
            return b * v


class _Cursor:
    """The words of a block, read one at a time from ``pos``; IndexError past its end."""

    __slots__ = ("words", "pos")

    def __init__(self, words: np.ndarray):
        self.words, self.pos = words, 0

    def __call__(self) -> int:
        word = int(self.words[self.pos])
        self.pos += 1
        return word


def _resolve(values: np.ndarray, ends: np.ndarray, taken: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-word attempts to per-word draws: a rejected attempt's draw is the draw
    starting at the attempt's end, which is later, so the last go first."""
    m = ends.size
    for p in np.flatnonzero(~taken)[::-1].tolist():
        q = ends[p]
        if q < m:
            values[p], ends[p] = values[q], ends[q]
        else:
            ends[p] = _PAST
    return values, ends


def _normal_attempts(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A ziggurat attempt starting at each word: its value, the position after its
    last word (past ``words.size`` if it runs past the block) and whether the
    normal takes it."""
    m = words.size
    low = (words & 0x1FF).astype(np.intp)
    rabs = words >> 9 & _M52
    x = rabs * _WI_SIGNED[low]
    ends = np.arange(1, m + 1)
    taken = rabs < _KI_TWICE[low]
    slow = np.flatnonzero(~taken)
    idx = low[slow] & 0xFF
    wedge, xw, i = slow[idx != 0], x[slow[idx != 0]], idx[idx != 0]
    u = _units(words[np.minimum(wedge + 1, m - 1)])
    taken[wedge] = (_FI[i - 1] - _FI[i]) * u + _FI[i] < np.array(list(map(math.exp, (-0.5 * xw * xw).tolist())))
    ends[wedge] += 1  # the last word's wedge ends past the block
    cursor = _Cursor(words)
    for p in slow[idx == 0].tolist():  # the tail, one at a time
        cursor.pos = p + 1
        try:
            x[p], taken[p] = _attempt(int(words[p]), cursor)
            ends[p] = cursor.pos
        except IndexError:
            ends[p] = _PAST
    return x, ends, taken


def _normal_block(words: np.ndarray):
    """The end of the normal attempt starting at each word, and a function giving the
    values and verdicts of the attempts at given positions."""
    x, ends, taken = _normal_attempts(words)
    return ends, lambda pos: (x[pos], taken[pos])


def _gamma_block(words: np.ndarray, b: float, c: float):
    """The end of the Gamma(b + 1/3) attempt starting at each word, and a function
    giving the values and verdicts of the attempts at given positions."""
    m = words.size
    x, ends = _resolve(*_normal_attempts(words))
    v = c * x + 1.0
    live = v > 0.0  # only then is a uniform read

    def at(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x_p, v_p, live_p = x[pos], v[pos], live[pos]
        u = _units(words[np.minimum(ends[pos], m - 1)])
        v_p = v_p * v_p * v_p
        xx = x_p * x_p
        taken = live_p & (u < 1.0 - 0.0331 * xx * xx)
        logs = np.flatnonzero(live_p & ~taken)
        x_l, v_l = x_p[logs], v_p[logs]
        try:
            log_u = np.array(list(map(math.log, u[logs].tolist())))
        except ValueError:  # a uniform of 0.0, whose libm log is -inf
            log_u = np.array(list(map(_log, u[logs].tolist())))
        log_v = np.array(list(map(math.log, v_l.tolist())))
        taken[logs] = log_u < 0.5 * x_l * x_l + b * (1.0 - v_l + log_v)
        return b * v_p, taken

    return ends + live, at


def _uniform_block(words: np.ndarray):
    """The end of the uniform starting at each word, and a function giving the values
    and verdicts of those at given positions."""
    return np.arange(1, words.size + 1), lambda pos: (_units(words[pos]), np.ones(pos.size, bool))


def _walk(ends: np.ndarray, step: int) -> tuple[np.ndarray, int]:
    """The positions of the attempts on the chain from a block's first word, and where the
    chain stops: the block's end, or an attempt that runs past it.  ``ends`` gives
    the position after the attempt starting at each word, taken or not; the walk
    jumps over runs of attempts of ``step`` words."""
    m = ends.size
    # An attempt at one of the last step - 1 words ends early or past the block.
    irregular = np.append(np.flatnonzero(ends[:m - step + 1] != np.arange(step, m + 1)), np.arange(m - step + 1, m))
    after = dict(zip(irregular.tolist(), ends[irregular].tolist()))
    # Each residue class mod step, ending in its first position past the block.
    stops = [irregular[irregular % step == r].tolist() + [m + (r - m) % step] for r in range(step)]
    on = np.zeros(m, bool)
    p = 0
    while True:
        stop = stops[p % step]
        q = stop[bisect.bisect_left(stop, p)]
        on[p:q:step] = True
        if q >= m or after[q] > m:
            return np.flatnonzero(on), q
        on[q] = True
        p = after[q]


class Draws:
    """The draws of ``default_rng(SeedSequence(entropy, spawn_key=spawn_key))``, bit for bit.

    ``entropy`` is a non-negative integer or a list of them, ``spawn_key`` a
    tuple of them (the i-th child of ``SeedSequence(s).spawn`` has entropy
    ``s`` and spawn key ``(i,)``); anything else raises ``InvalidParameter``.
    """

    def __init__(self, entropy, spawn_key: tuple = ()):
        run, spawn = _uint32_words(entropy), _uint32_words(spawn_key)
        if spawn:
            run += [0] * (_POOL - len(run))
        pool = _pool(run + spawn)
        const, state = _INIT_B, []
        for i in range(8):
            value = pool[i % _POOL] ^ const
            const = const * _MULT_B & _M32
            value = value * const & _M32
            state.append(value ^ value >> 16)
        seed, inc = (
            (state[k] | state[k + 1] << 32) << 64 | state[k + 2] | state[k + 3] << 32 for k in (0, 4)
        )
        self._inc = (inc << 1 | 1) & _M128
        self._state = ((self._inc + seed) * _MULT + self._inc) & _M128
        self._g_inc = None  # the halves of G_j inc, made by the first block that needs them

    def _word(self) -> int:
        """The next word, one scalar step of the state."""
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        r = s >> 122
        return (x >> r | x << 64 - r) & _M64

    def _block(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``count`` words and the halves of the state after each, without
        stepping the state."""
        a_lo, a_hi, g_lo, g_hi = _jumps((count - 1).bit_length())
        if self._g_inc is None or self._g_inc[0].size < count:
            self._g_inc = _times(g_lo, g_hi, self._inc)
        g_lo, g_hi = (t[:count] for t in self._g_inc)
        lo, hi = _times(a_lo[:count], a_hi[:count], self._state)
        lo += g_lo
        hi += g_hi + (lo < g_lo)
        x = hi ^ lo
        r = hi >> 58
        return x >> r | x << (64 - r & 63), lo, hi

    def _fill(self, n: int, step: int, block, scalar) -> np.ndarray:
        """``n`` draws.  ``block(words)`` gives the end of the attempt starting at each
        word and a function giving the values and verdicts of attempts at given
        positions; ``step`` is the words an attempt usually reads, and
        ``scalar(word)`` makes one draw from the word source ``word``."""
        if n <= _SCALAR_DRAWS:
            return np.array([scalar(self._word) for _ in range(n)], dtype=float)
        out = np.empty(n)
        filled = 0
        while filled < n:
            left = n - filled
            words, lo, hi = self._block(min(_BLOCK, step * left + left // 8 + 8))
            ends, at = block(words)
            pos, stop = _walk(ends, step)
            values, taken = at(pos)
            made = np.flatnonzero(taken)[:left]
            if made.size == left:
                stop = ends[pos[made[-1]]]
            elif stop == 0:  # the first attempt runs past the block
                out[filled] = scalar(self._word)
                filled += 1
                continue
            out[filled:filled + made.size] = values[made]
            filled += made.size
            self._state = int(hi[stop - 1]) << 64 | int(lo[stop - 1])
        return out

    def standard_normal(self, size: int) -> np.ndarray:
        return self._fill(size, 1, _normal_block, _normal)

    def gamma(self, shape: float, size: int) -> np.ndarray:
        """Gamma(shape, 1) draws; numpy's branch for shape > 1 is the only one made."""
        if not shape > 1.0:
            raise InvalidParameter(f"gamma shape must be > 1, got {shape}")
        b = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * b)
        return self._fill(size, 2, lambda words: _gamma_block(words, b, c), lambda word: _gamma(word, b, c))

    def uniform(self, low: float, high: float, size: int | None = None):
        """A float in [low, high), or an array of ``size`` of them."""
        span = high - low
        if size is None:
            return low + span * _unit(self._word())
        return low + span * self._fill(size, 1, _uniform_block, lambda word: _unit(word()))
