from lsblab.rng import Rng, derive_seed


def test_equal_seeds_equal_streams():
    a = Rng(123456789)
    b = Rng(123456789)
    assert a.bits(1000) == b.bits(1000)
    assert [a.sign() for _ in range(100)] == [b.sign() for _ in range(100)]
    order_a, order_b = list(range(97)), list(range(97))
    a.shuffle(order_a)
    b.shuffle(order_b)
    assert order_a == order_b


def test_different_seeds_differ():
    assert Rng(1).bits(64) != Rng(2).bits(64)


def test_coin_is_fair():
    # invariant: mean of 10^6 flips within 0.5 +/- 0.005
    rng = Rng(2024)
    n = 1_000_000
    mean = sum(rng.bits(n)) / n
    assert abs(mean - 0.5) <= 0.005


def test_sign_values():
    rng = Rng(7)
    signs = {rng.sign() for _ in range(100)}
    assert signs == {-1, 1}


def test_shuffle_is_seeded_permutation():
    order1 = list(range(50))
    order2 = list(range(50))
    Rng(99).shuffle(order1)
    Rng(99).shuffle(order2)
    assert order1 == order2
    assert sorted(order1) == list(range(50))
    assert order1 != list(range(50))


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(42, 1) == derive_seed(42, 1)
    children = {derive_seed(42, i) for i in range(1000)}
    assert len(children) == 1000
    assert derive_seed(42, 1, 2) != derive_seed(42, 1)
    assert all(0 <= s < 2**64 for s in list(children)[:10])
