"""Binary BCH codes: encode, syndrome decode (Berlekamp-Massey + Chien).

The paper uses BCH-t ("an n-bit-correcting BCH code") both as the strong
transient-error code of the 4LC design (BCH-10 over a 512-bit block, 100
check bits) and, as BCH-1, the light code protecting the 3-ON-2 design's
708-bit cell image (10 check bits).  Both live in GF(2^10)
(n = 1023), shortened to the message lengths at hand.

Codewords are numpy ``uint8`` bit arrays, data bits first, check bits
last (systematic encoding).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.coding.gf2m import GF2m

__all__ = ["BCH", "BCHDecodeFailure", "bch_for_message"]


class BCHDecodeFailure(Exception):
    """More errors than the code can correct (detected, uncorrectable)."""


def _poly_mod2_mul(a: int, b: int) -> int:
    """Multiply two GF(2) polynomials given as integer bitmasks."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_mod2_mod(a: int, b: int) -> int:
    """Remainder of GF(2) polynomial division a mod b (bitmask form)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


@functools.lru_cache(maxsize=None)
def _generator_poly(m: int, t: int) -> int:
    """Generator polynomial of the narrow-sense binary BCH code."""
    gf = _field(m)
    g = 1
    seen: set[int] = set()
    for i in range(1, 2 * t + 1):
        elem = gf.alpha_pow(i)
        if elem in seen:
            continue
        # record full conjugacy class so we skip duplicates cheaply
        e = elem
        while e not in seen:
            seen.add(e)
            e = gf.mul(e, e)
        g = _poly_mod2_mul(g, gf.minimal_polynomial(elem))
    return g


@functools.lru_cache(maxsize=None)
def _field(m: int) -> GF2m:
    return GF2m(m)


class BCH:
    """A binary narrow-sense BCH code over GF(2^m), optionally shortened.

    Parameters
    ----------
    m:
        Field degree; natural length is ``n = 2^m - 1``.
    t:
        Number of correctable bit errors.
    k_message:
        Message (data) length in bits.  Must satisfy
        ``k_message <= n - n_check``.  The code is shortened by prepending
        virtual zero data bits.
    """

    def __init__(self, m: int, t: int, k_message: int):
        self.m = m
        self.t = t
        self.gf = _field(m)
        self.n_natural = (1 << m) - 1
        self.generator = _generator_poly(m, t)
        self.n_check = self.generator.bit_length() - 1
        self.k_natural = self.n_natural - self.n_check
        if k_message > self.k_natural:
            raise ValueError(
                f"message of {k_message} bits does not fit: "
                f"BCH(m={m}, t={t}) supports at most {self.k_natural}"
            )
        if k_message < 1:
            raise ValueError("message must have at least one bit")
        self.k = k_message
        self.n = self.k + self.n_check  # shortened block length
        self.shortening = self.k_natural - self.k
        self._position_remainders: np.ndarray | None = None

    # ------------------------------------------------------------------
    def position_remainders(self) -> np.ndarray:
        """``x^deg(i) mod g`` for every codeword position ``i``, as ints.

        Array index ``i`` corresponds to polynomial degree ``top - i``
        (``top = n_natural - 1 - shortening``), so entry ``i`` is the
        ``n_check``-bit GF(2) column a set bit at position ``i``
        contributes to the codeword's remainder modulo the generator.
        XOR-reducing the entries at a word's set bits gives:

        - on a received word: the full remainder, which is zero iff every
          syndrome is zero (the batch layer's zero-syndrome dispatch);
        - on data positions only: the systematic check bits (batch
          encode);
        - for ``t = 1``: the remainder *is* the field element
          ``S1 = alpha^deg`` of a single error, so its discrete log
          locates the error directly.

        The table is computed once per code and cached; treat it as
        read-only (it is the shared backing store for the batch kernels).
        """
        if self._position_remainders is None:
            top = self.n_natural - 1 - self.shortening
            # Remainders are n_check-bit integers; past 63 bits they only
            # fit as Python ints (object dtype).  The t = 1 kernels that
            # *index* with the table always have n_check = m <= 32.
            dtype: type | np.dtype = np.int64 if self.n_check < 63 else object
            rem_by_deg = np.zeros(top + 1, dtype=dtype)
            r = 1  # x^0 mod g
            high_bit = 1 << self.n_check
            for deg in range(top + 1):
                rem_by_deg[deg] = r
                r <<= 1
                if r & high_bit:
                    r ^= self.generator
            table = rem_by_deg[::-1].copy()  # index i <-> degree top - i
            table.setflags(write=False)
            self._position_remainders = table
        return self._position_remainders

    # ------------------------------------------------------------------
    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Systematic encode: returns ``[data_bits | check_bits]``.

        ``data_bits[0]`` is the highest-order message coefficient, so the
        shortened positions (virtual zeros) sit "above" the array.
        """
        bits = np.asarray(data_bits)
        if bits.shape != (self.k,):
            raise ValueError(f"expected {self.k} data bits, got {bits.shape}")
        # message polynomial (as int): data * x^(n_check) mod g
        msg = 0
        for b in bits:
            msg = (msg << 1) | int(b)
        rem = _poly_mod2_mod(msg << self.n_check, self.generator)
        check = np.fromiter(
            ((rem >> (self.n_check - 1 - i)) & 1 for i in range(self.n_check)),
            dtype=np.uint8,
            count=self.n_check,
        )
        return np.concatenate([bits.astype(np.uint8), check])

    # ------------------------------------------------------------------
    def syndromes(self, received: np.ndarray) -> np.ndarray:
        """S_1 .. S_2t of the received word (natural-length indexing)."""
        r = np.asarray(received)
        if r.shape != (self.n,):
            raise ValueError(f"expected {self.n} bits, got {r.shape}")
        # Bit j of the array corresponds to polynomial degree n-1-j in the
        # shortened code == natural degree (n_natural - 1 - shortening) - j.
        positions = np.nonzero(r)[0]
        top = self.n_natural - 1 - self.shortening
        degrees = top - positions
        S = np.zeros(2 * self.t, dtype=np.int64)
        if positions.size:
            for j in range(1, 2 * self.t + 1):
                S[j - 1] = np.bitwise_xor.reduce(self.gf.alpha_pow(degrees * j))
        return S

    def _berlekamp_massey(self, S: np.ndarray) -> np.ndarray:
        """Error-locator polynomial sigma(x), lowest degree first."""
        gf = self.gf
        C = [1] + [0] * (2 * self.t)  # current locator
        B = [1] + [0] * (2 * self.t)  # last copy before update
        L, m_shift, b = 0, 1, 1
        for n_iter in range(2 * self.t):
            # discrepancy
            d = int(S[n_iter])
            for i in range(1, L + 1):
                d ^= gf.mul(C[i], int(S[n_iter - i]))
            if d == 0:
                m_shift += 1
            elif 2 * L <= n_iter:
                T = C[:]
                coef = gf.div(d, b)
                for i in range(0, 2 * self.t + 1 - m_shift):
                    C[i + m_shift] ^= gf.mul(coef, B[i])
                L = n_iter + 1 - L
                B = T
                b = d
                m_shift = 1
            else:
                coef = gf.div(d, b)
                for i in range(0, 2 * self.t + 1 - m_shift):
                    C[i + m_shift] ^= gf.mul(coef, B[i])
                m_shift += 1
        return np.asarray(C[: L + 1], dtype=np.int64)

    def _chien_search(self, sigma: np.ndarray) -> np.ndarray:
        """Error positions (array indices) from the locator polynomial."""
        gf = self.gf
        # Roots of sigma are alpha^{-degree}; only degrees within the
        # shortened word are valid error locations.
        top = self.n_natural - 1 - self.shortening
        degrees = np.arange(top, -1, -1)  # degree of each array index
        x = gf.alpha_pow(-degrees)  # candidate inverse locations
        vals = gf.poly_eval(sigma, x)
        return np.nonzero(vals == 0)[0]

    def decode(self, received: np.ndarray) -> tuple[np.ndarray, int]:
        """Correct up to t bit errors; returns (data_bits, n_corrected).

        Raises :class:`BCHDecodeFailure` when the error pattern is
        detectably uncorrectable.  (Patterns beyond the code's guarantee
        may also miscorrect silently, as in any bounded-distance decoder.)
        """
        r = np.asarray(received).astype(np.uint8)  # astype copies: safe to flip
        S = self.syndromes(r)
        if not np.any(S):
            # Error-free fast path: the overwhelmingly common case in a
            # datapath read.  No locator is ever built (tests assert zero
            # Berlekamp-Massey iterations here), mirroring the batch
            # layer's zero-syndrome dispatch.
            return r[: self.k].copy(), 0
        sigma = self._berlekamp_massey(S)
        n_err = len(sigma) - 1
        positions = self._chien_search(sigma)
        if len(positions) != n_err or n_err > self.t:
            raise BCHDecodeFailure(
                f"uncorrectable: locator degree {n_err}, "
                f"{len(positions)} roots in range"
            )
        r[positions] ^= 1
        if np.any(self.syndromes(r)):
            raise BCHDecodeFailure("correction did not zero the syndrome")
        return r[: self.k].copy(), int(n_err)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BCH(m={self.m}, t={self.t}, n={self.n}, k={self.k}, "
            f"check={self.n_check})"
        )


def bch_for_message(k_message: int, t: int) -> BCH:
    """Smallest-field BCH-t code fitting a ``k_message``-bit message."""
    for m in range(3, 17):
        n = (1 << m) - 1
        if k_message + m * t > n:  # quick lower bound on check bits
            continue
        try:
            code = BCH(m, t, k_message)
        except ValueError:
            continue
        return code
    raise ValueError(f"no supported field fits k={k_message}, t={t}")
