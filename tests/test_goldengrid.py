import itertools

from mpmath import mp

from icogate.goldengrid import enumerate_region, stream_center_out
from icogate.golden import GoldenInt, embed


def brute_region(plus_lo, plus_hi, minus_lo, minus_hi, box=80):
    out = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            x = GoldenInt(a, b)
            p = embed(x, "plus", 96)
            m = embed(x, "minus", 96)
            if plus_lo <= p <= plus_hi and minus_lo <= m <= minus_hi:
                out.append(x)
    return set(out)


def test_enumerate_square_region():
    with mp.workprec(96):
        got = set(enumerate_region(-10, 10, -10, 10))
    assert got == brute_region(-10, 10, -10, 10, box=20)


def test_enumerate_skewed_band_matches_brute_force():
    # sigma_plus narrow, sigma_minus wide: the rescaling path
    with mp.workprec(96):
        got = set(enumerate_region(50, 51, -40, 40))
    expected = brute_region(50, 51, -40, 40)
    assert expected  # non-vacuous
    assert got == expected


def test_stream_matches_region_and_is_center_ordered():
    with mp.workprec(96):
        streamed = list(stream_center_out(-30, 30, -5, 5, center=3,
                                          slab_points=40))
        dists = [abs(embed(x, "plus", 96) - 3) for x in streamed]
    assert set(streamed) == set(enumerate_region(-30, 30, -5, 5))
    assert len(streamed) == len(set(streamed))
    # mirror pairs tie up to one 96-bit ulp; compare differences, which
    # mpf represents exactly even below ambient-precision resolution
    assert all(d1 - d2 <= mp.mpf(2) ** -60 for d1, d2 in zip(dists, dists[1:]))


def test_stream_lazy_prefix():
    # taking a prefix must agree with the sorted full enumeration
    with mp.workprec(96):
        prefix = list(itertools.islice(
            stream_center_out(-200, 200, -8, 8, slab_points=25), 40))
        full = enumerate_region(-200, 200, -8, 8)
        full.sort(key=lambda x: (abs(embed(x, "plus", 96)), (x.a, x.b)))
    assert prefix == full[:40]


def test_empty_band():
    with mp.workprec(96):
        assert enumerate_region(5, 4, -1, 1) == []
        assert list(stream_center_out(5, 4, -1, 1)) == []
